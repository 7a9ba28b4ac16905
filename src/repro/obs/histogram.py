"""Log-bucketed latency histograms: every duration the registry holds.

Backing-store transfers span five orders of magnitude (a RAM copy to an
HDD seek), so fixed-width buckets are useless; :class:`LogHistogram`
buckets by powers of two of seconds instead, which keeps the structure a
flat integer array with O(1) insertion and resolves both tails.

Every catalogue histogram of :class:`~repro.obs.metrics.MetricsRegistry`
is one of these; nothing else records a duration.

Histograms are **mergeable**: :meth:`LogHistogram.state` serialises the
bucket vector to a JSON-ready dict, :meth:`LogHistogram.merge_state`
adds one such state in, and :meth:`LogHistogram.drain_state` atomically
snapshots-and-resets — the primitive the sharded backing tier uses to
ship worker-side latency data across the process boundary without ever
double-counting (each ``OP_TELEMETRY`` pull carries a delta).
"""

from __future__ import annotations

import math
import threading
from typing import Any

from repro.errors import OutOfCoreError


class LogHistogram:
    """Latency histogram with log2 buckets, thread-safe recording.

    Bucket ``i`` covers ``[min_seconds * 2**i, min_seconds * 2**(i+1))``;
    durations below ``min_seconds`` land in bucket 0 and durations beyond
    the top bound land in the last bucket. The defaults span 100 ns to
    ~110 s, comfortably covering a RAM copy through a slow HDD.
    """

    def __init__(self, min_seconds: float = 1e-7, num_buckets: int = 31) -> None:
        if min_seconds <= 0.0:
            raise OutOfCoreError(f"min_seconds must be > 0, got {min_seconds}")
        if num_buckets < 1:
            raise OutOfCoreError(f"need at least one bucket, got {num_buckets}")
        self.min_seconds = float(min_seconds)
        self.num_buckets = int(num_buckets)
        self._counts = [0] * self.num_buckets
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        # Exact (locked) recording: a lap is at least a kernel call or a
        # store request, far slower than an uncontended lock round trip —
        # unlike the record ring's per-instant append.
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Add one observation (negative durations clamp to zero)."""
        seconds = max(0.0, float(seconds))
        if seconds < self.min_seconds:
            idx = 0
        else:
            idx = min(self.num_buckets - 1,
                      int(math.log2(seconds / self.min_seconds)))
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += seconds
            self._max = max(self._max, seconds)

    # -- inspection -------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total_seconds(self) -> float:
        return self._sum

    def bucket_bound(self, idx: int) -> float:
        """Exclusive upper bound of bucket ``idx`` in seconds."""
        return self.min_seconds * (2.0 ** (idx + 1))

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-th percentile (0 < q <= 100)."""
        if not 0.0 < q <= 100.0:
            raise OutOfCoreError(f"percentile must be in (0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = math.ceil(self._count * q / 100.0)
            seen = 0
            for idx, n in enumerate(self._counts):
                seen += n
                if seen >= target:
                    return min(self.bucket_bound(idx), self._max)
        return self._max

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary: non-empty buckets plus count/sum/percentiles."""
        with self._lock:
            buckets = [
                {"le": self.bucket_bound(idx), "count": n}
                for idx, n in enumerate(self._counts) if n
            ]
            count, total, peak = self._count, self._sum, self._max
        return {
            "unit": "seconds",
            "count": count,
            "sum": total,
            "max": peak,
            "mean": total / count if count else 0.0,
            "p50": self.percentile(50.0) if count else 0.0,
            "p95": self.percentile(95.0) if count else 0.0,
            "p99": self.percentile(99.0) if count else 0.0,
            "buckets": buckets,
        }

    # -- cross-process merging ---------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Serialisable full state (sparse bucket vector + moments).

        The geometry travels with the counts so :meth:`merge_state` can
        refuse a histogram recorded with different bucket bounds instead
        of silently mis-binning it.
        """
        with self._lock:
            return {
                "min_seconds": self.min_seconds,
                "num_buckets": self.num_buckets,
                "counts": [[idx, n] for idx, n in enumerate(self._counts)
                           if n],
                "count": self._count,
                "sum": self._sum,
                "max": self._max,
            }

    def drain_state(self) -> dict[str, Any]:
        """Atomically :meth:`state` then reset to empty (delta semantics).

        This is what a shard worker answers an ``OP_TELEMETRY`` pull
        with: repeated pulls each carry only the observations since the
        previous one, so the parent-side merge never double-counts.
        """
        with self._lock:
            snap = {
                "min_seconds": self.min_seconds,
                "num_buckets": self.num_buckets,
                "counts": [[idx, n] for idx, n in enumerate(self._counts)
                           if n],
                "count": self._count,
                "sum": self._sum,
                "max": self._max,
            }
            self._counts = [0] * self.num_buckets
            self._count = 0
            self._sum = 0.0
            self._max = 0.0
        return snap

    def merge_state(self, state: dict[str, Any]) -> None:
        """Add a :meth:`state`/:meth:`drain_state` snapshot into this one."""
        if (float(state.get("min_seconds", -1.0)) != self.min_seconds
                or int(state.get("num_buckets", -1)) != self.num_buckets):
            raise OutOfCoreError(
                "cannot merge histograms with different bucket geometry: "
                f"({state.get('min_seconds')}, {state.get('num_buckets')}) "
                f"vs ({self.min_seconds}, {self.num_buckets})")
        with self._lock:
            for idx, n in state.get("counts", []):
                self._counts[int(idx)] += int(n)
            self._count += int(state.get("count", 0))
            self._sum += float(state.get("sum", 0.0))
            self._max = max(self._max, float(state.get("max", 0.0)))

