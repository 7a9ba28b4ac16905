"""Fixture: the counter fields the catalogue's ``**`` entry stands for."""


def _counter(owner, help):
    return 0


class IoStats:
    hits: int = _counter("demand", "requests served from a slot")


COUNTER_HELP = {"hits": "requests served from a slot"}
