"""repro.check — runtime invariant monitors + differential replay.

Two complementary correctness layers over the simulator:

* :mod:`repro.check.monitors` — opt-in runtime invariant monitors that
  subscribe to a live trainer's hook lists (netsim byte conservation, PS
  deposit/apply ledger, GIB partition + Eq. 5 budget chain, SSP/DSSP
  staleness bounds, quorum consistency, ICS in-flight accounting). Strict
  mode raises at the offending event; collect mode reports.
* :mod:`repro.check.replay` — a differential-replay harness that runs two
  supposedly-equivalent configurations (resumed vs. uninterrupted, any A/B
  pair) and bisects their normalized event streams to the first divergent
  event, with span context from :mod:`repro.obs`.

See ``docs/invariants.md`` and ``python -m repro check --help``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CheckReport",
    "DEFAULT_MONITORS",
    "Divergence",
    "GIBInvariantMonitor",
    "ICSInflightMonitor",
    "InvariantChecker",
    "InvariantViolation",
    "Monitor",
    "NetworkConservationMonitor",
    "PSLedgerMonitor",
    "QuorumConsistencyMonitor",
    "ReplayEvent",
    "ReplayReport",
    "STREAM_SCHEMA",
    "StalenessBoundMonitor",
    "capture_stream",
    "differential_replay",
    "dump_stream",
    "first_divergence",
    "load_stream",
    "replay_resume",
    "stream_digest",
    "run_checked",
    "span_context",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".monitors": (
            "CheckReport",
            "DEFAULT_MONITORS",
            "GIBInvariantMonitor",
            "ICSInflightMonitor",
            "InvariantChecker",
            "InvariantViolation",
            "Monitor",
            "NetworkConservationMonitor",
            "PSLedgerMonitor",
            "QuorumConsistencyMonitor",
            "StalenessBoundMonitor",
            "run_checked",
        ),
        ".replay": (
            "Divergence",
            "ReplayEvent",
            "ReplayReport",
            "STREAM_SCHEMA",
            "capture_stream",
            "differential_replay",
            "dump_stream",
            "first_divergence",
            "load_stream",
            "replay_resume",
            "stream_digest",
            "span_context",
        ),
    },
)
