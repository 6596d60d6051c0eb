"""The pattern DSL for workload definitions.

The paper specifies workloads as patterns like::

    Pattern1: r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)

where ``F1``/``F2`` are placeholders bound to concrete (randomly chosen)
files per transaction instance.  :class:`Pattern` parses this syntax and
instantiates concrete step lists from a placeholder binding.
"""

from __future__ import annotations

import re
import typing

from repro.txn.step import AccessMode, Step

_STEP_RE = re.compile(
    r"^\s*(?P<op>[rw])\s*\(\s*(?P<file>[A-Za-z_][A-Za-z_0-9]*|\d+)\s*:\s*"
    r"(?P<cost>\d+(?:\.\d+)?)\s*\)\s*$"
)


class PatternError(ValueError):
    """Raised for syntax errors in a pattern string."""


class PatternStep(typing.NamedTuple):
    """One parsed step: placeholder name (or literal id), mode, cost."""

    placeholder: str
    mode: AccessMode
    cost: float


class Pattern:
    """A parsed transaction pattern.

    ``placeholders`` preserves first-appearance order, so workload
    generators can bind them positionally (e.g. two distinct files drawn
    for ``F1`` and ``F2``).
    """

    #: per-pattern instantiation memo size bound (distinct bindings)
    _MEMO_LIMIT = 4096

    def __init__(self, steps: typing.Sequence[PatternStep]) -> None:
        if not steps:
            raise PatternError("a pattern needs at least one step")
        self.steps = list(steps)
        seen: typing.Dict[str, None] = {}
        for step in self.steps:
            seen.setdefault(step.placeholder, None)
        self.placeholders: typing.List[str] = list(seen)
        #: resolved-binding tuple -> shared Step tuple (Steps are frozen,
        #: so instances may be shared across transactions)
        self._memo: typing.Dict[
            typing.Tuple[int, ...], typing.Tuple[Step, ...]
        ] = {}

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse ``"r(F1:1) -> w(F2:0.2)"`` into a Pattern.

        Both ``->`` and unicode arrows are accepted as separators; file
        names may be symbolic placeholders or literal integers.
        """
        normalised = text.replace("→", "->").strip()
        if not normalised:
            raise PatternError("empty pattern string")
        parts = normalised.split("->")
        steps = []
        for part in parts:
            match = _STEP_RE.match(part)
            if match is None:
                raise PatternError(f"cannot parse pattern step {part.strip()!r}")
            mode = (
                AccessMode.EXCLUSIVE
                if match.group("op") == "w"
                else AccessMode.SHARED
            )
            steps.append(
                PatternStep(
                    placeholder=match.group("file"),
                    mode=mode,
                    cost=float(match.group("cost")),
                )
            )
        return cls(steps)

    def instantiate(
        self, binding: typing.Mapping[str, int]
    ) -> typing.Tuple[Step, ...]:
        """Concrete steps with placeholders replaced per ``binding``.

        Literal integer "placeholders" bind to themselves unless
        overridden.  Resolution is memoised per distinct binding: the
        workloads draw the same few file combinations over and over, and
        :class:`Step` is frozen, so the tuple and its steps are shared
        (a :class:`~repro.txn.transaction.BatchTransaction` keeps its
        own list).
        """
        resolved = []
        for name in self.placeholders:
            if name in binding:
                resolved.append(binding[name])
            elif name.isdigit():
                resolved.append(int(name))
            else:
                raise PatternError(f"no binding for placeholder {name!r}")
        key = tuple(resolved)
        steps = self._memo.get(key)
        if steps is None:
            lookup = dict(zip(self.placeholders, resolved))
            steps = tuple(
                Step(
                    file_id=lookup[pattern_step.placeholder],
                    mode=pattern_step.mode,
                    cost=pattern_step.cost,
                )
                for pattern_step in self.steps
            )
            if len(self._memo) < self._MEMO_LIMIT:
                self._memo[key] = steps
        return steps

    @property
    def total_cost(self) -> float:
        """Sum of step costs (at DD = 1)."""
        return sum(step.cost for step in self.steps)

    def __str__(self) -> str:
        rendered = []
        for step in self.steps:
            tag = "w" if step.mode.is_write else "r"
            rendered.append(f"{tag}({step.placeholder}:{step.cost:g})")
        return " -> ".join(rendered)

    def __len__(self) -> int:
        return len(self.steps)


#: Experiment 1 & 3 workload (Section 5.1): two files, read then bulk-read,
#: then update both.  X locks are taken from the first touch of each file.
PATTERN_1 = Pattern.parse("r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)")

#: Experiment 2 workload (Section 5.2): bulk-read one read-only file, then
#: update two hot files.
PATTERN_2 = Pattern.parse("r(B:5) -> w(F1:1) -> w(F2:1)")
