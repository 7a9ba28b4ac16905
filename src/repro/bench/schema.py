"""Schema and baseline comparison for ``BENCH_results.json``.

``python -m repro.bench`` emits one versioned document per run, a pure
function of the commit (no clock reading anywhere in it):

* :data:`RESULTS_SCHEMA` — the layout version tag;
* :func:`validate_results` — the hand-rolled validator (same no-jsonschema
  discipline as :func:`repro.obs.exporters.validate_profile`);
* :func:`compare_results` — the one rule behind ``--baseline``: a
  workload whose configuration is unchanged must equal its baseline
  exactly, in either direction; one whose configuration changed is
  skipped with a note instead of producing a false alarm.

The per-workload counters are :data:`RESULT_METRICS` — the parity
counters of :mod:`repro.core.stats`, by import.
"""

from __future__ import annotations

from typing import Any

from repro.core.stats import PARITY_COUNTERS

#: Version tag of the ``BENCH_results.json`` document layout.
RESULTS_SCHEMA = "repro-bench/2"

#: Per-workload counters every result entry must report — the §4
#: evaluation metrics.
RESULT_METRICS = PARITY_COUNTERS

#: Derived rates every entry reports (functions of the counters).
RATE_KEYS = ("miss_rate", "read_rate")

#: Modelled device figures, present where the workload has a disk model
#: in-process: sums of modelled costs, not clock readings.
MODEL_KEYS = ("simulated_io_seconds", "faults")

#: Relative lnL agreement ``--baseline`` demands — the oracle's constant
#: (tests/oracle.py). The exact bits (``log_likelihood_hex``) are a
#: same-machine property (BLAS build), gated only within one run.
LNL_RTOL = 1e-9

#: Required top-level document keys.
_REQUIRED_TOP = ("schema", "config", "workloads")

#: Required keys of each workload entry.
_ENTRY_KEYS = ("figure", "config", "log_likelihood", "log_likelihood_hex",
               "metrics", "derived")


def validate_results(doc: Any) -> list[str]:
    """Validate a ``BENCH_results.json`` document; returns problem strings.

    An empty list means the document conforms to :data:`RESULTS_SCHEMA`.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    for key in _REQUIRED_TOP:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if doc["schema"] != RESULTS_SCHEMA:
        problems.append(
            f"schema is {doc['schema']!r}, expected {RESULTS_SCHEMA!r}")
    if not isinstance(doc["config"], dict):
        problems.append("config must be an object")

    workloads = doc["workloads"]
    if not isinstance(workloads, dict) or not workloads:
        return [*problems, "workloads must be a non-empty object"]
    for name, entry in workloads.items():
        if not isinstance(entry, dict):
            problems.append(f"workload {name!r} must be an object")
            continue
        for key in _ENTRY_KEYS:
            if key not in entry:
                problems.append(f"workload {name!r} missing {key!r}")
        if not isinstance(entry.get("config"), dict):
            problems.append(f"workload {name!r} config must be an object")
        if "log_likelihood" in entry and not isinstance(
                entry["log_likelihood"], (int, float)):
            problems.append(
                f"workload {name!r} 'log_likelihood' must be numeric")
        if "log_likelihood_hex" in entry and not isinstance(
                entry["log_likelihood_hex"], str):
            problems.append(
                f"workload {name!r} 'log_likelihood_hex' must be a string")

        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            problems.append(f"workload {name!r} metrics must be an object")
        else:
            for key in RESULT_METRICS:
                if not isinstance(metrics.get(key), int):
                    problems.append(
                        f"workload {name!r} metrics missing integer {key!r}")

        derived = entry.get("derived")
        if not isinstance(derived, dict):
            problems.append(f"workload {name!r} derived must be an object")
        else:
            for key in RATE_KEYS:
                value = derived.get(key)
                if not isinstance(value, (int, float)):
                    problems.append(
                        f"workload {name!r} derived missing numeric {key!r}")
                elif not 0.0 <= value <= 1.0:
                    problems.append(
                        f"workload {name!r} derived {key!r}={value} "
                        "outside [0, 1]")
        for key in MODEL_KEYS:
            if key in entry and not isinstance(entry[key], (int, float)):
                problems.append(f"workload {name!r} {key} must be numeric")
    return problems


def compare_results(current: dict,
                    baseline: dict) -> tuple[list[str], list[str]]:
    """Compare a fresh result document against a stored baseline.

    Returns ``(differences, notes)``. Every difference should fail CI: a
    baseline workload missing from the current run, or — where the
    recorded config is unchanged — any counter, derived rate or modelled
    device figure that is not equal to its baseline (fewer misses is as
    much a change of behaviour as more: the fix is to regenerate the
    baseline in the same change, where the diff gets reviewed), or an lnL
    beyond :data:`LNL_RTOL`. Workloads whose config differs are skipped
    with a note — a reconfigured workload is not a regression. Fields
    outside this list (``compression_ratio``, ``backing_bytes_written``:
    zlib build) are host-dependent and gated within the run only.
    """
    for label, doc in (("baseline", baseline), ("current results", current)):
        problems = validate_results(doc)
        if problems:
            return [f"{label} invalid: {p}" for p in problems], []
    differences: list[str] = []
    notes: list[str] = []

    cur_wl, base_wl = current["workloads"], baseline["workloads"]
    for name in sorted(set(base_wl) - set(cur_wl)):
        differences.append(f"{name}: workload present in baseline but "
                           "missing from current results")
    for name in sorted(set(cur_wl) - set(base_wl)):
        notes.append(f"{name}: new workload, no baseline to compare")

    for name in sorted(set(cur_wl) & set(base_wl)):
        cur, base = cur_wl[name], base_wl[name]
        if cur["config"] != base["config"]:
            notes.append(f"{name}: config changed, comparison skipped")
            continue
        c, b = cur["log_likelihood"], base["log_likelihood"]
        if abs(c - b) > LNL_RTOL * abs(b):
            differences.append(
                f"{name}: log_likelihood {b!r} -> {c!r} "
                f"(beyond {LNL_RTOL} relative)")
        exact = [(f"metrics.{key}", cur["metrics"][key], base["metrics"][key])
                 for key in RESULT_METRICS]
        exact += [(f"derived.{key}", cur["derived"][key], base["derived"][key])
                  for key in RATE_KEYS]
        exact += [(key, cur.get(key), base.get(key)) for key in MODEL_KEYS]
        differences += [f"{name}: {field} {b!r} -> {c!r}"
                        for field, c, b in exact if c != b]
    return differences, notes
