"""Always-available tracing & metrics for simulation runs.

The simulator's end-of-run aggregates (``sim/metrics.py``) say *what*
each scheduler achieved; this package records *why*: every transaction
lifecycle transition, every lock grant/release, every scheduler decision
(WTPG edge fixes, chain-form verdicts, K-conflict admissions, OPT
validation failures) and every machine-resource busy/idle/queue change,
timestamped on the simulation clock.

Design rules:

- **Observation only.**  Recorders never draw random numbers, never
  create events and never touch the event queue, so a traced run is
  byte-identical to an untraced one.
- **Zero overhead when off.**  Every instrumented site guards its
  ``emit`` behind a single ``recorder.enabled`` attribute check; the
  default :data:`NULL_RECORDER` keeps that check False everywhere.

Public surface:

- :class:`TraceEvent` / :mod:`repro.obs.events` -- the typed event kinds.
- :class:`TraceRecorder` / :class:`NullRecorder` /
  :class:`MemoryRecorder` -- the recording protocol and implementations.
- :mod:`repro.obs.export` -- JSONL, Chrome-trace (Perfetto) and text
  summary exporters.  The JSONL trace is the TRACE artifact family
  (:data:`~repro.obs.events.TRACE`), checked by
  :func:`repro.artifact.check_stream`.
- :mod:`repro.obs.attrib` -- post-hoc causal attribution: span
  timelines with restart lineage, the conservation invariant, batch
  time budgets, blocking graphs, critical paths and anomaly flags
  (the engine behind ``repro explain``).
- :mod:`repro.obs.timeseries` -- DES-clock time-series sampler with
  ring-buffered series, histograms, CSV/JSON export and sparkline
  reports.
- :mod:`repro.obs.profile` -- the wall-clock profiler: it wraps one
  run's entry points from outside the model and attributes the
  simulator's own time to its layers (event loop, machine, scheduler,
  lock table, WTPG, metrics).
- :mod:`repro.obs.telemetry` -- live batch telemetry: per-run lifecycle
  records and heartbeats, the ``status.json`` aggregator and the
  ``repro watch`` renderer.

Every name is imported from its defining module on first use
(:mod:`repro._facade`): a run that never writes a trace or telemetry
never loads the exporters or the telemetry machinery.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Attribution": "repro.obs.attrib",
    "BatchStatus": "repro.obs.telemetry",
    "ConservationError": "repro.obs.attrib",
    "EVENT_KINDS": "repro.obs.events",
    "FixedHistogram": "repro.obs.timeseries",
    "LogHistogram": "repro.obs.timeseries",
    "MemoryRecorder": "repro.obs.recorder",
    "NULL_RECORDER": "repro.obs.recorder",
    "NullRecorder": "repro.obs.recorder",
    "PhaseProfiler": "repro.obs.profile",
    "Series": "repro.obs.timeseries",
    "Span": "repro.obs.attrib",
    "TELEMETRY_EVENT_KINDS": "repro.obs.telemetry",
    "TimeSeriesSampler": "repro.obs.timeseries",
    "TraceEvent": "repro.obs.events",
    "TraceRecorder": "repro.obs.recorder",
    "TxnTimeline": "repro.obs.attrib",
    "WorkerTelemetry": "repro.obs.telemetry",
    "check_conservation": "repro.obs.attrib",
    "fold_trace": "repro.obs.attrib",
    "fold_trace_path": "repro.obs.attrib",
    "gauge": "repro.obs.timeseries",
    "max_rss_kb": "repro.obs.telemetry",
    "render_series_report": "repro.obs.timeseries",
    "render_status": "repro.obs.telemetry",
    "render_summary": "repro.obs.export",
    "sparkline": "repro.obs.timeseries",
    "telemetry_event_kinds": "repro.obs.telemetry",
    "to_chrome_trace": "repro.obs.export",
    "validate_series": "repro.obs.timeseries",
    "windowed_rate": "repro.obs.timeseries",
    "write_chrome_trace": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "write_series_csv": "repro.obs.timeseries",
})
