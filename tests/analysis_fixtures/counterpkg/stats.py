"""Mini counter declarations for the counter-checker fixtures."""


def _counter(owner, help):
    return 0


class IoStats:
    requests: int = _counter("demand", "demand requests")
    hits: int = _counter("demand", "requests served from a slot")
    prefetch_reads: int = _counter("prefetch", "ahead-of-demand reads")
    writeback_enabled: bool = False
