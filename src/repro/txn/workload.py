"""Workload generation: arrival processes and the paper's experiments.

A workload couples a Poisson arrival process (rate in transactions per
second) with a transaction factory.  The factories provided here implement
the paper's Experiments:

- Experiment 1/3: Pattern 1 over ``NumFiles`` files, the two files drawn
  distinct uniformly at random; Experiment 3 adds the Gaussian
  declaration-error model.
- Experiment 2: Pattern 2 with one bulk-read over 8 read-only files and
  updates of two distinct files from 8 hot files; each node is home to
  exactly one read-only and one hot file.
"""

from __future__ import annotations

import typing

from repro.des.rng import RandomStreams
from repro.txn.pattern import PATTERN_1, PATTERN_2, Pattern
from repro.txn.transaction import BatchTransaction

FileChooser = typing.Callable[[RandomStreams], typing.Mapping[str, int]]


class DeclarationErrorModel:
    """Experiment 3's estimate error: C = C0 * (1 + x), x ~ N(0, sigma).

    Declared cost floors at 0 when x <= -1 (the paper's rule).
    ``sigma = 0`` declares exact costs.
    """

    def __init__(self, sigma: float = 0.0) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = sigma

    def declare(
        self, exact_costs: typing.Sequence[float], streams: RandomStreams
    ) -> typing.Sequence[float]:
        """Per-step declared costs for a new transaction.

        At ``sigma = 0`` these are ``exact_costs`` themselves;
        :class:`~repro.txn.transaction.BatchTransaction` converts its
        declared costs to float once, in its constructor.
        """
        if self.sigma == 0.0:
            return exact_costs
        declared = []
        for cost in exact_costs:
            x = streams.gauss("declaration-error", 0.0, self.sigma)
            declared.append(0.0 if x <= -1.0 else cost * (1.0 + x))
        return declared


class Workload:
    """Poisson arrivals of instances of one pattern.

    ``arrival_rate_tps`` is the paper's lambda in transactions per second;
    the simulator clock is milliseconds.
    """

    def __init__(
        self,
        pattern: Pattern,
        choose_files: FileChooser,
        arrival_rate_tps: float,
        error_model: typing.Optional[DeclarationErrorModel] = None,
        name: str = "workload",
    ) -> None:
        if arrival_rate_tps <= 0:
            raise ValueError(
                f"arrival rate must be > 0 TPS, got {arrival_rate_tps}"
            )
        self.pattern = pattern
        self.choose_files = choose_files
        self.arrival_rate_tps = arrival_rate_tps
        self.error_model = error_model or DeclarationErrorModel(0.0)
        self.name = name
        self._next_txn_id = 0

    @property
    def rate_per_ms(self) -> float:
        return self.arrival_rate_tps / 1000.0

    def next_interarrival_ms(self, streams: RandomStreams) -> float:
        """One exponential inter-arrival draw in milliseconds."""
        return streams.exponential("interarrival", self.rate_per_ms)

    def allocate_txn_id(self) -> int:
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def make_transaction(
        self, arrival_time: float, streams: RandomStreams
    ) -> BatchTransaction:
        """Instantiate the pattern with fresh file choices and declarations."""
        binding = self.choose_files(streams)
        steps = self.pattern.instantiate(binding)
        declared = self.error_model.declare(
            [s.cost for s in steps], streams
        )
        return BatchTransaction(
            txn_id=self.allocate_txn_id(),
            steps=steps,
            arrival_time=arrival_time,
            declared_costs=declared,
        )


# -- the paper's file choosers ------------------------------------------------


def uniform_two_files(num_files: int) -> FileChooser:
    """Experiment 1/3: F1, F2 distinct uniform over ``num_files`` files."""
    if num_files < 2:
        raise ValueError(f"need at least 2 files, got {num_files}")

    def choose(streams: RandomStreams) -> typing.Mapping[str, int]:
        f1, f2 = streams.sample_without_replacement(
            "file-choice", range(num_files), 2
        )
        return {"F1": f1, "F2": f2}

    return choose


def hot_set_chooser(
    read_only_files: typing.Sequence[int] = tuple(range(8)),
    hot_files: typing.Sequence[int] = tuple(range(8, 16)),
) -> FileChooser:
    """Experiment 2: B from the read-only pool, F1 != F2 from the hot pool.

    With the paper's home-node rule (file mod 8) the defaults give every
    node exactly one read-only and one hot file.
    """
    if len(hot_files) < 2:
        raise ValueError("hot set needs at least 2 files")
    if not read_only_files:
        raise ValueError("read-only set must not be empty")
    if set(read_only_files) & set(hot_files):
        raise ValueError("read-only and hot sets must be disjoint")
    read_only_files = tuple(read_only_files)
    hot_files = tuple(hot_files)

    def choose(streams: RandomStreams) -> typing.Mapping[str, int]:
        b = streams.sample_without_replacement(
            "readonly-choice", read_only_files, 1
        )[0]
        f1, f2 = streams.sample_without_replacement(
            "hot-choice", hot_files, 2
        )
        return {"B": b, "F1": f1, "F2": f2}

    return choose


def experiment1_workload(
    arrival_rate_tps: float, num_files: int = 16
) -> Workload:
    """Pattern 1 over ``num_files`` files (Experiments 1 and the Fig. 8 runs)."""
    return Workload(
        PATTERN_1,
        uniform_two_files(num_files),
        arrival_rate_tps,
        name=f"exp1(files={num_files})",
    )


def experiment2_workload(arrival_rate_tps: float) -> Workload:
    """Pattern 2 over the 8 read-only + 8 hot files of Experiment 2."""
    return Workload(
        PATTERN_2,
        hot_set_chooser(),
        arrival_rate_tps,
        name="exp2(hot-set)",
    )


def experiment3_workload(
    arrival_rate_tps: float, sigma: float, num_files: int = 16
) -> Workload:
    """Pattern 1 with the Gaussian declaration-error model (Experiment 3)."""
    return Workload(
        PATTERN_1,
        uniform_two_files(num_files),
        arrival_rate_tps,
        error_model=DeclarationErrorModel(sigma),
        name=f"exp3(sigma={sigma:g})",
    )


class MixedWorkload(Workload):
    """Batches mixed with small jobs (the paper's motivating scenario).

    Each arrival is a *bulk* Pattern-1 batch with probability
    ``1 - small_share``, otherwise a *small* single-file update of
    ``small_cost`` objects.  Transactions carry a ``label`` ("bulk" or
    "small") so per-class response times can be reported.
    """

    def __init__(
        self,
        arrival_rate_tps: float,
        small_share: float = 0.8,
        small_cost: float = 0.1,
        num_files: int = 16,
        error_model: typing.Optional[DeclarationErrorModel] = None,
    ) -> None:
        if not 0.0 <= small_share <= 1.0:
            raise ValueError(f"small_share must be in [0, 1], got {small_share}")
        if small_cost <= 0:
            raise ValueError(f"small_cost must be > 0, got {small_cost}")
        super().__init__(
            PATTERN_1,
            uniform_two_files(num_files),
            arrival_rate_tps,
            error_model=error_model,
            name=f"mixed(small={small_share:g})",
        )
        self.small_share = small_share
        self.small_cost = small_cost
        self.num_files = num_files

    def make_transaction(
        self, arrival_time: float, streams: RandomStreams
    ) -> BatchTransaction:
        from repro.txn.step import AccessMode, Step

        if streams.stream("mix").random() < self.small_share:
            file_id = streams.uniform_int("small-file", 0, self.num_files - 1)
            steps = [Step(file_id, AccessMode.EXCLUSIVE, self.small_cost)]
            label = "small"
        else:
            binding = self.choose_files(streams)
            steps = self.pattern.instantiate(binding)
            label = "bulk"
        declared = self.error_model.declare([s.cost for s in steps], streams)
        return BatchTransaction(
            txn_id=self.allocate_txn_id(),
            steps=steps,
            arrival_time=arrival_time,
            declared_costs=declared,
            label=label,
        )


def mixed_workload(
    arrival_rate_tps: float,
    small_share: float = 0.8,
    small_cost: float = 0.1,
    num_files: int = 16,
) -> MixedWorkload:
    """Convenience factory for the mixed batch/small-job workload."""
    return MixedWorkload(
        arrival_rate_tps,
        small_share=small_share,
        small_cost=small_cost,
        num_files=num_files,
    )
