"""The parity gate (``python -m repro.bench``).

Runs each paper evaluation configuration (Fig. 2 / Fig. 3 / Fig. 5 plus
the §4.3 lazy SPR search, whole-vector and site-block layouts) once,
requires the batched, compressed and sharded twins to reproduce the same
likelihood bits and I/O counters, emits a deterministic
``BENCH_results.json`` and can compare it exactly against a stored one.
It times nothing — ``benchmarks/ooc/`` is the stopwatch. See
:mod:`repro.bench.runner` (CLI) and :mod:`repro.bench.schema` (document).
"""

from repro.bench.schema import (
    RESULT_METRICS,
    RESULTS_SCHEMA,
    compare_results,
    validate_results,
)

__all__ = [
    "RESULTS_SCHEMA",
    "RESULT_METRICS",
    "compare_results",
    "validate_results",
]
