"""Human-readable formatting of byte counts and durations."""

from __future__ import annotations


def format_bytes(n: float) -> str:
    """Format a byte count with binary units: ``format_bytes(1536) == '1.5 KiB'``."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(s: float) -> str:
    """Format seconds compactly: ``format_seconds(90) == '1m30.0s'``."""
    if s < 60:
        return f"{s:.3g}s"
    m, rest = divmod(s, 60.0)
    if m < 60:
        return f"{int(m)}m{rest:04.1f}s"
    h, m = divmod(int(m), 60)
    return f"{h}h{m:02d}m{rest:04.1f}s"
