"""The benchmark's workloads, one module each.

Each module defines ``UNIT`` (what one unit operation is, for per-layer
normalisation), ``setup(seed, ctx)`` returning the generated inputs, and
``run(state, seconds, recorder)`` returning an outcome dict:
``attempted``, ``failed`` and ``incorrect`` operation counts, ``stats``
(named timing metrics as ``harness.Stat``), ``op`` and ``work`` (the stats
gated as ``op_ms_mean`` and ``work_per_s``) and ``details`` for the report.
"""

NAMES = ("train", "gradcheck", "decode", "ingest")
