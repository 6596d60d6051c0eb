"""Same-instant ordering of step completions against CN work.

A step is complete when its last cohort's last quantum ends.  The
transaction then resumes two event hops later -- one hop for the
cohort's completion, one for the step's -- and every same-instant tie
with other work is resolved by that distance.  Costs are integer
milliseconds, so such ties are routine in the paper's workloads; this
pins them down with exact binary times (obj_time 8 ms, quantum 4 ms).
"""

from repro.des import Environment
from repro.machine import MachineConfig, SharedNothingMachine
from repro.obs import MemoryRecorder

#: the record kinds whose interleaving at the tie instant is pinned
KINDS = ("cn.exec_start", "cn.exec_end", "txn.step_end")


def run_tie_scenario():
    """Two DD=2 steps and a CN slice all end at t = 10 ms.

    - txn 1 (file 0, nodes 0-1): sends 0-2, scans 1 object per cohort
      in two 4 ms quanta, last quantum ends at 10;
    - txn 2 (file 2, nodes 2-3): sends 2-4, scans 0.75 object per
      cohort (4 ms + 2 ms), last quantum ends at 10;
    - a ``slice`` job holds the CN 5-10;
    - probes ``one-hop`` and ``two-hop`` wake at 10 after the quanta,
      then wait one and two same-instant hops before asking for the CN.
    """
    env = Environment()
    recorder = MemoryRecorder()
    env.trace = recorder
    machine = SharedNothingMachine(
        env, MachineConfig(dd=2, obj_time_ms=8.0)
    )
    cn = machine.control_node

    def step(txn_id, file_id, cost):
        yield from machine.run_step(txn_id, file_id, cost)
        recorder.emit(
            env.now, "txn.step_end", txn=txn_id, file=file_id, step=0
        )

    def cn_slice():
        yield env.timeout(5.0)
        yield from cn.consume(5.0, "slice")

    def probe(category, hops):
        yield env.timeout(9.0)
        yield env.timeout(1.0)  # queued after the quanta ending at 10
        for _ in range(hops):
            yield env.timeout(0)
        yield from cn.consume(1.0, category)

    env.process(step(1, 0, 2.0))
    env.process(step(2, 2, 1.5))
    env.process(cn_slice())
    env.process(probe("one-hop", 1))
    env.process(probe("two-hop", 2))
    env.run()
    return [
        (event.time, event.kind,
         event.fields.get("category", event.fields.get("txn")))
        for event in recorder.events
        if event.kind in KINDS and event.time >= 10.0
    ]


def test_step_completions_interleave_with_cn_work_in_hop_order():
    assert run_tie_scenario() == [
        (10.0, "cn.exec_end", "slice"),
        # one hop after the quanta: ahead of both resumed transactions
        (10.0, "cn.exec_start", "one-hop"),
        (11.0, "cn.exec_end", "one-hop"),
        # the transactions resume in the order their steps completed
        (11.0, "cn.exec_start", "message"),
        (13.0, "cn.exec_end", "message"),
        (13.0, "txn.step_end", 1),
        (13.0, "cn.exec_start", "message"),
        (15.0, "cn.exec_end", "message"),
        (15.0, "txn.step_end", 2),
        # two hops after the quanta: behind them
        (15.0, "cn.exec_start", "two-hop"),
        (16.0, "cn.exec_end", "two-hop"),
    ]
