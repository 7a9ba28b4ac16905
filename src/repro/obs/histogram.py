"""Log-bucketed latency histograms: every duration the registry holds.

Backing-store transfers span five orders of magnitude (a RAM copy to an
HDD seek), so fixed-width buckets are useless; :class:`LogHistogram`
buckets by powers of two of seconds instead, which keeps the structure a
flat integer array with O(1) insertion and resolves both tails.

Every catalogue histogram of :class:`~repro.obs.metrics.MetricsRegistry`
is one of these; nothing else records a duration.
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
