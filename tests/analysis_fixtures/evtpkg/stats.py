"""Fixture: the counter declarations the routes' mirrors column must name."""


def _counter(owner, help):
    return 0


class IoStats:
    requests: int = _counter("demand", "demand requests")
    hits: int = _counter("demand", "requests served from a slot")
