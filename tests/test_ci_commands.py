"""Every ``python -m repro`` command in the CI workflow still parses.

A CI job that calls a removed verb or flag fails only when that job
runs.  This test reads ``.github/workflows/ci.yml`` without a YAML
library (CI installs none), unfolds each ``run:`` script and checks that
every ``python -m repro ...`` command line parses with
:func:`repro.cli.build_parser`, and that the Python a job feeds to
``python -`` through a here-document compiles.  Nothing is executed.
"""

import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

WORKFLOW = (
    pathlib.Path(__file__).resolve().parents[1]
    / ".github" / "workflows" / "ci.yml"
)

_RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")
_COMMAND = re.compile(r"\bpython3? -m repro\b(.*)")
_HEREDOC = re.compile(r"\bpython3? - <<-?\s*'?(\w+)'?\s*$")
_JOB = re.compile(r"^  ([\w-]+):\s*$")
_BLOCK_STYLES = (">", ">-", "|", "|-")


def _indent(line):
    return len(line) - len(line.lstrip())


def run_scripts(text):
    """The shell script of every ``run:`` key, block scalars unfolded:
    ``>`` joins its lines with spaces, ``|`` keeps them, each dedented
    by the block's indentation (that of its first line)."""
    lines = text.splitlines()
    scripts = []
    index = 0
    while index < len(lines):
        match = _RUN.match(lines[index])
        index += 1
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value not in _BLOCK_STYLES:
            scripts.append(value)
            continue
        block = []
        while index < len(lines) and (
            not lines[index].strip() or _indent(lines[index]) > indent
        ):
            block.append(lines[index])
            index += 1
        if value[0] == ">":
            scripts.append(" ".join(line.strip() for line in block))
            continue
        margin = min(_indent(line) for line in block if line.strip())
        scripts.append("\n".join(line[margin:] for line in block))
    return scripts


def job_text(text, name):
    """The lines of the workflow job ``name`` (up to the next job)."""
    found = []
    inside = False
    for line in text.splitlines():
        match = _JOB.match(line)
        if match is not None:
            inside = match.group(1) == name
        elif inside:
            found.append(line)
    return "\n".join(found)


def heredoc_pythons(script):
    """The body of every ``python - <<'DELIM'`` here-document in
    ``script``."""
    bodies = []
    lines = script.splitlines()
    for index, line in enumerate(lines):
        match = _HEREDOC.search(line)
        if match is None:
            continue
        end = lines.index(match.group(1), index + 1)
        bodies.append("\n".join(lines[index + 1:end]))
    return bodies


def repro_argvs(script):
    """The arguments after ``python -m repro`` on each command line of
    ``script``, with backslash continuations joined and shell operators
    (``&``, ``|``, ``;``, redirections) ending a command."""
    argvs = []
    for line in script.replace("\\\n", " ").splitlines():
        for match in _COMMAND.finditer(line):
            lexer = shlex.shlex(match.group(1), posix=True,
                                punctuation_chars=True)
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if token and set(token) <= set(lexer.punctuation_chars):
                    break
                argv.append(token)
            argvs.append(argv)
    return argvs


def ci_commands():
    text = WORKFLOW.read_text(encoding="utf-8")
    return [argv for script in run_scripts(text) for argv in repro_argvs(script)]


def parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


SAMPLE = """\
jobs:
  smoke:
    steps:
      - run: PYTHONPATH=src python -m repro runs list
      - name: folded
        run: >
          PYTHONPATH=src python -m repro arena
          --rates 0.8 --no-phases --cache-dir ''
      - name: literal
        run: |
          PYTHONPATH=src python -m repro worker-pool --spool spool \\
            --idle-exit 120 &
          PYTHONPATH=src python -m repro sweep NODC | tee out.log
          if PYTHONPATH=src python -m repro cache; then exit 1; fi
"""


class TestExtraction:
    def test_unfolds_every_scalar_style(self):
        argvs = [
            argv for script in run_scripts(SAMPLE)
            for argv in repro_argvs(script)
        ]
        assert argvs == [
            ["runs", "list"],
            ["arena", "--rates", "0.8", "--no-phases", "--cache-dir", ""],
            ["worker-pool", "--spool", "spool", "--idle-exit", "120"],
            ["sweep", "NODC"],
            ["cache"],
        ]

    def test_a_removed_flag_fails_to_parse(self):
        folded = repro_argvs(run_scripts(SAMPLE)[1])[0]
        assert not parses(folded)
        assert parses([arg for arg in folded if arg != "--no-phases"])

    def test_workflow_has_commands(self):
        verbs = {argv[0] for argv in ci_commands()}
        assert {"report", "sweep", "arena", "explain", "cache"} <= verbs

    def test_literal_block_keeps_relative_indentation(self):
        sample = (
            "jobs:\n"
            "  check:\n"
            "    steps:\n"
            "      - run: |\n"
            "          python - <<'EOF'\n"
            "          for x in (1, 2):\n"
            "              print(x)\n"
            "\n"
            "          print('done')\n"
            "          EOF\n"
        )
        (script,) = run_scripts(sample)
        assert heredoc_pythons(script) == [
            "for x in (1, 2):\n    print(x)\n\nprint('done')"
        ]

    def test_retired_spool_commands_fail_to_parse(self):
        assert not parses(["worker-pool", "--spool", "x"])
        assert not parses(["sweep", "NODC", "--spool", "x"])
        assert parses(["sweep", "NODC"])


@pytest.mark.parametrize(
    "argv", ci_commands(), ids=lambda argv: " ".join(argv)[:60]
)
def test_ci_command_parses(argv):
    assert parses(argv), f"CI runs `python -m repro {shlex.join(argv)}`"


def test_artifact_smoke_heredoc_compiles():
    text = WORKFLOW.read_text(encoding="utf-8")
    bodies = [
        body for script in run_scripts(job_text(text, "artifact-smoke"))
        for body in heredoc_pythons(script)
    ]
    assert bodies, "artifact-smoke feeds no Python to `python -`"
    for body in bodies:
        compile(body, "artifact-smoke heredoc", "exec")
