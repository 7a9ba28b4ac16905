"""``run.py --compare A.json B.json``: is B no worse than A?

One row per workload and end-to-end metric: both values, the ratio B/A,
the bound, and a verdict —

* ``worse``: B is worse than A by more than the bound;
* ``unresolved``: the run-to-run spread of either side is wider than the
  bound, so "unchanged" cannot be claimed — unless every sample of B is
  better than every sample of A;
* ``ok`` otherwise.

Exit status is non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics

#: Metrics only the full document carries (``BENCHMARK.json`` cannot list a
#: metric that is 0 on some workload). The three rates repeat exactly on
#: the synchronous workloads; ``op_fail_frac`` may not rise at all.
FULL_MODE_BOUNDS = {
    "miss_rate": ("lower", 0.02),
    "read_rate": ("lower", 0.02),
    "backing_mb_per_pass": ("lower", 0.02),
    "op_fail_frac": ("lower", 0.0),
}


def _samples(doc: dict, metric: str) -> list[float]:
    run = doc.get("untraced", {})
    if metric in ("wall_s", "wall_raw_s"):
        return [p[metric] for p in run.get("passes", [])]
    if metric in ("setup_s", "setup_raw_s"):
        key = metric[len("setup_"):]
        engine = [e[key] for e in run.get("setup_engine", [])]
        fixed = doc["end_to_end"][metric]["value"] - statistics.median(engine)
        return [fixed + e for e in engine]
    return []


def _spread(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: float, b: float, better: str, bound: float,
            samples_a: list[float], samples_b: list[float]) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if a == 0.0:
        worsened = sign * (b - a) > 0.0
    else:
        worsened = sign * (b - a) / abs(a) > bound
    if worsened:
        return "worse"
    if max(_spread(samples_a), _spread(samples_b)) > bound:
        separated = samples_a and samples_b and (
            max(samples_b) < min(samples_a) if better == "lower"
            else min(samples_b) > max(samples_a))
        return "ok" if separated else "unresolved"
    return "ok"


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fh:
        doc_a = json.load(fh)
    with open(path_b) as fh:
        doc_b = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update(FULL_MODE_BOUNDS)
    print(f"A = {path_a} (seed {doc_a['seed']})   B = {path_b} (seed {doc_b['seed']})")
    print(f"{'workload':<20} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    worse = 0
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            print(f"{name:<20} missing from B")
            worse += 1
            continue
        for metric, (better, bound) in bounds.items():
            row_a = wa["end_to_end"].get(metric)
            row_b = wb["end_to_end"].get(metric)
            if row_a is None or row_b is None:
                # a workload that failed outright carries op_fail_frac only
                continue
            a, b = row_a["value"], row_b["value"]
            result = verdict(a, b, better, bound,
                             _samples(wa, metric), _samples(wb, metric))
            worse += result == "worse"
            ratio = f"{b / a:8.3f}" if a else "  base 0"
            print(f"{name:<20} {metric:<20} {a:12.5g} {b:12.5g} {ratio} "
                  f"{bound:6.2f}  {result}")
    print(f"{worse} worse" if worse else "no metric worse than its bound")
    return 1 if worse else 0
