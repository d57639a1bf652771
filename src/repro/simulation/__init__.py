"""Monte Carlo simulation substrate.

The paper's results are exact; this subpackage is the independent
"testbed" that validates them by actually executing the distributed
protocol on sampled inputs:

* :mod:`repro.simulation.rng` -- deterministic seed management so every
  experiment is reproducible from one root seed.
* :mod:`repro.simulation.statistics` -- binomial summaries with Wilson
  confidence intervals (the right interval for probabilities near 0/1).
* :mod:`repro.simulation.engine` -- the trial engine: estimate a
  system's winning probability, vectorised where possible.
* :mod:`repro.simulation.runner` -- parameter sweeps (threshold grids,
  player counts) producing experiment records.
* :mod:`repro.simulation.parallel` -- the sharded executor: split a
  trial budget into per-shard named seed streams and run them across a
  process pool, bit-identically for any worker count.
* :mod:`repro.simulation.faulttolerance` -- retry policies, wall-clock
  timeouts, deterministic fault injection and shard-level
  checkpoint/resume for the sharded executor; every recovery path
  replays named streams, so faults never change results.
"""

from repro.simulation.engine import MonteCarloEngine
from repro.simulation.faulttolerance import (
    CheckpointError,
    CheckpointFingerprintError,
    FaultPlan,
    FaultSpec,
    FaultToleranceConfig,
    FaultToleranceError,
    RetryPolicy,
    ShardFailure,
    ShardRetriesExhaustedError,
    load_checkpoint,
)
from repro.simulation.parallel import (
    ShardedEstimate,
    ShardOutcome,
    count_wins,
    estimate_winning_probability_sharded,
    plan_shards,
    shard_stream_name,
)
from repro.simulation.rng import SeedSequenceFactory
from repro.simulation.runner import SweepResult, sweep_thresholds, sweep_players
from repro.simulation.statistics import BinomialSummary, wilson_interval

__all__ = [
    "BinomialSummary",
    "CheckpointError",
    "CheckpointFingerprintError",
    "FaultPlan",
    "FaultSpec",
    "FaultToleranceConfig",
    "FaultToleranceError",
    "RetryPolicy",
    "ShardFailure",
    "ShardOutcome",
    "ShardRetriesExhaustedError",
    "ShardedEstimate",
    "count_wins",
    "estimate_winning_probability_sharded",
    "load_checkpoint",
    "plan_shards",
    "shard_stream_name",
    "MonteCarloEngine",
    "SeedSequenceFactory",
    "SweepResult",
    "sweep_players",
    "sweep_thresholds",
    "wilson_interval",
]
