"""Machine and simulation parameters (Table 1 of the paper).

All times are in simulated milliseconds (the paper's clock is 1 ms).
Defaults reproduce Table 1 exactly; every experiment varies only
``num_files``, ``dd`` and the arrival rate.
"""

from __future__ import annotations

import dataclasses
import math
import typing


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Parameters of the shared-nothing machine model.

    Attributes mirror Table 1 of the paper:

    - ``num_nodes``     -- NumNodes, number of data-processing nodes.
    - ``num_files``     -- NumFiles, number of file locking granules.
    - ``dd``            -- degree of declustering (partitions per file).
    - ``mpl``           -- multiprogramming level; ``None`` means infinite.
    - ``msgtime_ms``    -- CPU time at the control node per message
      send or receive.
    - ``sot_time_ms``   -- CPU time of transaction startup.
    - ``cot_time_ms``   -- CPU time of commitment (2PC coordination).
    - ``ddtime_ms``     -- CPU time of one deadlock-detection test in C2PL.
    - ``kwtpgtime_ms``  -- CPU time of computing one E(q) in LOW.
    - ``chaintime_ms``  -- CPU time of computing the optimised serializable
      order in GOW.
    - ``toptime_ms``    -- CPU time of GOW's chain-form test.
    - ``obj_time_ms``   -- time to scan one object on a DPN at DD = 1
      (1 s = 2.5 MB at 2.5 MB/s on a 4 MIPS node, per the paper).
    - ``netdelay_ms``   -- network transit delay (0 in the paper).
    - ``cpu_speed_mips``-- control-node CPU speed; the per-operation costs
      above are already expressed at this speed, so it only scales costs
      when changed from the default.
    """

    num_nodes: int = 8
    num_files: int = 16
    dd: int = 1
    mpl: typing.Optional[int] = None
    cpu_speed_mips: float = 4.0
    netdelay_ms: float = 0.0
    msgtime_ms: float = 2.0
    sot_time_ms: float = 2.0
    cot_time_ms: float = 7.0
    ddtime_ms: float = 1.0
    kwtpgtime_ms: float = 10.0
    chaintime_ms: float = 30.0
    toptime_ms: float = 5.0
    obj_time_ms: float = 1000.0

    #: delay before a DELAYed request of a paper scheduler is
    #: re-submitted when no wake-up (commit/abort) arrives first; the
    #: paper only says "after some delay".  The admission-order family
    #: (DGCC, CAR, PRED) wakes exactly and never reads it.
    retry_delay_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {self.num_files}")
        if not 1 <= self.dd <= self.num_nodes:
            raise ValueError(
                f"dd must be in [1, num_nodes={self.num_nodes}], got {self.dd}"
            )
        if self.mpl is not None and self.mpl < 1:
            raise ValueError(f"mpl must be >= 1 or None, got {self.mpl}")
        for field in (
            "netdelay_ms",
            "msgtime_ms",
            "sot_time_ms",
            "cot_time_ms",
            "ddtime_ms",
            "kwtpgtime_ms",
            "chaintime_ms",
            "toptime_ms",
            "retry_delay_ms",
        ):
            value = getattr(self, field)
            if value < 0 or math.isnan(value):
                raise ValueError(f"{field} must be >= 0, got {value}")
        if self.obj_time_ms <= 0:
            raise ValueError(f"obj_time_ms must be > 0, got {self.obj_time_ms}")
        if self.cpu_speed_mips <= 0:
            raise ValueError(
                f"cpu_speed_mips must be > 0, got {self.cpu_speed_mips}"
            )

    @property
    def cpu_scale(self) -> float:
        """Cost multiplier when the CN CPU deviates from the 4 MIPS default."""
        return 4.0 / self.cpu_speed_mips

    def scaled(self, cost_ms: float) -> float:
        """A CN CPU cost adjusted for a non-default CPU speed."""
        return cost_ms * self.cpu_scale

    def replace(self, **changes: object) -> "MachineConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
