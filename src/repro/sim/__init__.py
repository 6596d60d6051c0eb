"""Simulation orchestration: runs, metrics and operating-point search."""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "MetricEstimate": "repro.sim.replication",
    "MetricsCollector": "repro.sim.metrics",
    "ReplicatedResult": "repro.sim.replication",
    "Simulation": "repro.sim.simulation",
    "SimulationResult": "repro.sim.metrics",
    "TARGET_RT_MS": "repro.sim.experiment",
    "ThroughputRequest": "repro.sim.experiment",
    "best_mpl_result": "repro.sim.experiment",
    "estimate": "repro.sim.replication",
    "find_throughput_batch": "repro.sim.experiment",
    "replicate": "repro.sim.replication",
    "run_simulation": "repro.sim.simulation",
    "run_specs": "repro.sim.experiment",
})
