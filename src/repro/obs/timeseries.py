"""Time-series metrics sampled on the simulation clock.

The trace (:mod:`repro.obs.recorder`) records *discrete events*; this
module records *trajectories*: utilisation, active MPL, blocked-set
size, lock-table and WTPG size, cumulative aborts -- the continuous
contention signals the paper's Figs. 8-13 argue from -- sampled every
``interval_ms`` of simulated time.

Sampling is driven by the DES clock itself: the engine calls
:meth:`TimeSeriesSampler.advance_to` whenever the clock is about to
cross a sample boundary, *before* the events at the new time fire.  A
sample at boundary ``b`` therefore reflects the model state after all
events strictly before ``b`` (sample-and-hold).  The sampler is pure
observation -- it schedules no events and draws no randomness -- so a
sampled run is byte-identical to an unsampled one, exactly like tracing.
One gauge touches model state: ``dpn.backlog.objects`` makes each
data-processing node book the quanta it served before ``b``
(:meth:`~repro.machine.data_node.DataProcessingNode.book`).  Booking
credits a quantum the same whenever it runs, so no result depends on
it; but a cohort's ``scanned`` is only current after its node's
``book(now)``, and between bookings it depends on who read last.

Each :class:`Series` keeps

- a *ring buffer* of the most recent ``max_points`` ``(t, value)``
  pairs (bounded memory over arbitrarily long runs),
- streaming statistics (count/sum/min/max) over *all* samples, and
- a histogram over all samples -- :class:`FixedHistogram` for bounded
  signals such as utilisation, :class:`LogHistogram` for heavy-tailed
  ones such as queue depths and set sizes.
"""

from __future__ import annotations

import collections
import csv
import math
import pathlib
import typing

from repro.artifact import Family

PathLike = typing.Union[str, pathlib.Path]

#: default ring capacity per series (points beyond it evict the oldest)
DEFAULT_MAX_POINTS = 4096

#: a probe reads one model value as of sample time ``t`` (ms)
Probe = typing.Callable[[float], float]


class FixedHistogram:
    """Equal-width bins over ``[lo, hi)`` with under/overflow counters."""

    def __init__(self, lo: float, hi: float, bins: int = 20) -> None:
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.lo = lo
        self.hi = hi
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self._width = (hi - lo) / bins

    def observe(self, value: float) -> None:
        if value < self.lo:
            self.underflow += 1
        elif value >= self.hi:
            self.overflow += 1
        else:
            self.counts[int((value - self.lo) / self._width)] += 1

    def edges(self) -> typing.List[float]:
        """The ``bins + 1`` bin boundaries."""
        return [self.lo + i * self._width for i in range(len(self.counts) + 1)]

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "type": "fixed",
            "edges": self.edges(),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }


class LogHistogram:
    """Log-scale bins for non-negative heavy-tailed signals.

    Bin ``i`` covers ``[lo * base**i, lo * base**(i+1))``; values below
    ``lo`` (zeros included) land in the dedicated zero/underflow bucket,
    values at or beyond the last edge in the overflow bucket.
    """

    def __init__(
        self,
        lo: float = 1.0,
        decades: int = 6,
        bins_per_decade: int = 2,
    ) -> None:
        if lo <= 0:
            raise ValueError(f"lo must be > 0, got {lo}")
        if decades < 1 or bins_per_decade < 1:
            raise ValueError("need decades >= 1 and bins_per_decade >= 1")
        self.lo = lo
        self.counts = [0] * (decades * bins_per_decade)
        self.underflow = 0
        self.overflow = 0
        self._log_lo = math.log10(lo)
        self._bins_per_decade = bins_per_decade

    def observe(self, value: float) -> None:
        if value < self.lo:
            self.underflow += 1
            return
        index = int(
            (math.log10(value) - self._log_lo) * self._bins_per_decade
        )
        if index >= len(self.counts):
            self.overflow += 1
        else:
            self.counts[index] += 1

    def edges(self) -> typing.List[float]:
        """The ``bins + 1`` bin boundaries (geometric)."""
        return [
            10.0 ** (self._log_lo + i / self._bins_per_decade)
            for i in range(len(self.counts) + 1)
        ]

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "type": "log",
            "edges": self.edges(),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }


Histogram = typing.Union[FixedHistogram, LogHistogram]


class Series:
    """One sampled signal: recent points, streaming stats, histogram."""

    def __init__(
        self,
        name: str,
        unit: str = "",
        max_points: int = DEFAULT_MAX_POINTS,
        hist: typing.Optional[Histogram] = None,
    ) -> None:
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        self.name = name
        self.unit = unit
        self.points: typing.Deque[typing.Tuple[float, float]] = (
            collections.deque(maxlen=max_points)
        )
        self.hist = hist
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.last = math.nan

    def record(self, t: float, value: float) -> None:
        self.points.append((t, value))
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.last = value
        if self.hist is not None:
            self.hist.observe(value)

    @property
    def mean(self) -> float:
        """Mean over every sample taken, NaN when empty."""
        return self.total / self.count if self.count else math.nan

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        payload: typing.Dict[str, typing.Any] = {
            "unit": self.unit,
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else math.nan,
            "max": self.maximum if self.count else math.nan,
            "last": self.last,
            "points": [[t, v] for t, v in self.points],
        }
        if self.hist is not None:
            payload["hist"] = self.hist.to_dict()
        return payload

    def __repr__(self) -> str:
        return f"<Series {self.name!r} n={self.count} last={self.last:.4g}>"


class TimeSeriesSampler:
    """Samples registered probes every ``interval_ms`` of simulated time.

    The engine consults :attr:`next_due` once per event pop (a plain
    attribute read) and calls :meth:`advance_to` only when the clock is
    about to cross it, so an attached-but-boundary-free stretch costs
    one comparison per event.  A run without a sampler costs one ``is
    None`` check per event.
    """

    def __init__(
        self,
        interval_ms: float = 1_000.0,
        max_points: int = DEFAULT_MAX_POINTS,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval must be > 0 ms, got {interval_ms}")
        self.interval_ms = interval_ms
        self.max_points = max_points
        #: simulated time of the next sample; read by the engine hot loop
        self.next_due = interval_ms
        self.samples_taken = 0
        self.series: typing.Dict[str, Series] = {}
        self._probes: typing.List[typing.Tuple[Series, Probe]] = []

    def add_probe(
        self,
        name: str,
        probe: Probe,
        unit: str = "",
        hist: typing.Optional[Histogram] = None,
    ) -> Series:
        """Register ``probe`` under ``name``; returns its Series."""
        if name in self.series:
            raise ValueError(f"probe {name!r} is already registered")
        series = Series(name, unit=unit, max_points=self.max_points, hist=hist)
        self.series[name] = series
        self._probes.append((series, probe))
        return series

    def add_probes(
        self, probes: typing.Mapping[str, typing.Mapping[str, typing.Any]]
    ) -> None:
        """Register a catalogue: name -> {probe, unit?, hist?}."""
        for name, spec in probes.items():
            self.add_probe(
                name,
                spec["probe"],
                unit=spec.get("unit", ""),
                hist=spec.get("hist"),
            )

    def advance_to(self, now: float) -> None:
        """Take every sample due at or before ``now`` (engine callback)."""
        due = self.next_due
        while due <= now:
            for series, probe in self._probes:
                series.record(due, probe(due))
            self.samples_taken += 1
            due += self.interval_ms
        self.next_due = due

    def to_dict(
        self, meta: typing.Optional[typing.Mapping[str, typing.Any]] = None
    ) -> typing.Dict[str, typing.Any]:
        """The JSON-ready artifact form of everything sampled."""
        payload: typing.Dict[str, typing.Any] = {
            "interval_ms": self.interval_ms,
            "samples": self.samples_taken,
            "series": {
                name: series.to_dict()
                for name, series in sorted(self.series.items())
            },
        }
        if meta:
            payload["meta"] = dict(meta)
        return payload

    def __repr__(self) -> str:
        return (
            f"<TimeSeriesSampler interval={self.interval_ms:g}ms "
            f"series={len(self.series)} samples={self.samples_taken}>"
        )


# -- probe helpers ------------------------------------------------------------


def gauge(read: typing.Callable[[], float]) -> Probe:
    """A probe sampling the current value of ``read()`` (t is ignored)."""
    return lambda _t: float(read())


def windowed_rate(
    integral: typing.Callable[[float], float], scale: float = 1.0
) -> Probe:
    """Per-interval mean rate of a cumulative quantity.

    ``integral(t)`` must return the quantity accumulated by simulated
    time ``t`` (e.g. :meth:`TimeWeighted.integral` for busy-time, or a
    counter total for event counts); the probe reports the increase per
    ms since the previous sample, times ``scale``.  The first window is
    measured from t = 0, so the helper assumes the instrumented object
    started accumulating at time zero (true for everything a
    :class:`~repro.sim.simulation.Simulation` builds).

    A *decrease* means the underlying monitor was reset mid-window (the
    warm-up boundary does this to every statistic): the pre-reset area
    is gone, so the accumulation since the reset -- the current
    integral by itself -- is the best available estimate for the
    window, and the sample can never go negative.
    """
    state = {"t": 0.0, "area": 0.0}

    def probe(t: float) -> float:
        area = float(integral(t))
        span = t - state["t"]
        grown = area - state["area"]
        if grown < 0.0:  # monitor reset since the last sample
            grown = area
        value = grown / span * scale if span > 0 else 0.0
        state["t"], state["area"] = t, area
        return value

    return probe


def utilisation_hist() -> FixedHistogram:
    """The standard histogram for [0, 1] utilisation-like signals."""
    return FixedHistogram(0.0, 1.0 + 1e-9, bins=20)


def size_hist() -> LogHistogram:
    """The standard histogram for set sizes / queue depths / MPL."""
    return LogHistogram(lo=1.0, decades=6, bins_per_decade=2)


# -- artifact export ----------------------------------------------------------


def write_series_csv(
    payload: typing.Mapping[str, typing.Any], path: PathLike
) -> pathlib.Path:
    """Long-format CSV (``series,t_ms,value``) of every point of a
    SERIES payload (:meth:`TimeSeriesSampler.to_dict`)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["series", "t_ms", "value"])
        for name, body in sorted(payload["series"].items()):
            for t, value in body["points"]:
                writer.writerow([name, f"{t:g}", f"{value:g}"])
    return path


def validate_series(payload: typing.Mapping[str, typing.Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid series payload."""
    if not isinstance(payload, dict):
        raise ValueError("series artifact must be a JSON object")
    series = payload.get("series")
    if not isinstance(series, dict):
        raise ValueError("series artifact lacks a 'series' mapping")
    for name, body in series.items():
        for field in ("count", "points"):
            if field not in body:
                raise ValueError(f"series {name!r} lacks {field!r}")
        for point in body["points"]:
            if not (isinstance(point, list) and len(point) == 2):
                raise ValueError(f"series {name!r} has malformed point {point!r}")


#: a sampler's :meth:`TimeSeriesSampler.to_dict` payload
SERIES = Family("series", 1, validate_series)


# -- terminal report ----------------------------------------------------------

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: typing.Sequence[float], width: int = 48) -> str:
    """Render ``values`` as a fixed-width unicode sparkline."""
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return "(no samples)"
    if len(values) > width:
        # downsample by bucket means so the line stays `width` cells
        buckets: typing.List[typing.List[float]] = [[] for _ in range(width)]
        for index, value in enumerate(values):
            buckets[index * width // len(values)].append(value)
        values = [
            sum(bucket) / len(bucket) for bucket in buckets if bucket
        ]
    lo, hi = min(finite), max(finite)
    span = hi - lo
    cells = []
    for value in values:
        if math.isnan(value):
            cells.append(" ")
            continue
        level = 0 if span <= 0 else int(
            (value - lo) / span * (len(_SPARK_LEVELS) - 1)
        )
        cells.append(_SPARK_LEVELS[level])
    return "".join(cells)


def render_series_report(
    payload: typing.Mapping[str, typing.Any], width: int = 48
) -> str:
    """A terminal digest: one sparkline + summary row per series."""
    meta = payload.get("meta") or {}
    header = f"time-series report: {payload.get('samples', 0)} sample(s) " \
             f"every {payload.get('interval_ms', 0):g} ms"
    if meta:
        description = ", ".join(
            f"{key}={meta[key]}" for key in sorted(meta)
        )
        header += f" ({description})"
    lines = [header, ""]
    series = payload.get("series", {})
    if not series:
        lines.append("  (no series sampled)")
        return "\n".join(lines)
    name_width = max(len(name) for name in series)
    for name in sorted(series):
        body = series[name]
        values = [point[1] for point in body.get("points", [])]
        unit = f" {body['unit']}" if body.get("unit") else ""
        lines.append(
            f"  {name:<{name_width}}  {sparkline(values, width)}  "
            f"min={body.get('min', math.nan):.4g} "
            f"mean={body.get('mean', math.nan):.4g} "
            f"max={body.get('max', math.nan):.4g} "
            f"last={body.get('last', math.nan):.4g}{unit}"
        )
    return "\n".join(lines)
