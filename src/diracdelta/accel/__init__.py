"""Engine-side models: FIFO pipeline, unit lanes, subgraph runs, cost model."""
from .fifo import SCHEDULERS, DeadlockError, FifoChannel, run_network
from .perf import (
    BatchPoint,
    CostModelParams,
    PerfReport,
    build_report,
    load_cost_config,
    roofline,
)
from .subgraph import (
    SimulatorExecutor,
    SubgraphResult,
    SubgraphStats,
    pool_pass,
    run_subgraph,
    shift_pass,
)
from .units import PoolLane, ShiftLane

__all__ = [
    "SCHEDULERS",
    "DeadlockError",
    "FifoChannel",
    "run_network",
    "BatchPoint",
    "CostModelParams",
    "PerfReport",
    "build_report",
    "load_cost_config",
    "roofline",
    "SimulatorExecutor",
    "SubgraphResult",
    "SubgraphStats",
    "pool_pass",
    "run_subgraph",
    "shift_pass",
    "PoolLane",
    "ShiftLane",
]
