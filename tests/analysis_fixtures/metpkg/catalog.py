"""Fixture: metric catalogue with malformed rows."""

from .stats import COUNTER_HELP


def Metric(kind, help, labeled=False):
    return (kind, help, labeled)


METRIC_EXPOSITION = {
    **{name: Metric("counter", text) for name, text in COUNTER_HELP.items()},
    "requests_total": Metric("counter", "demand requests observed"),
    "slots_occupied": Metric("thermometer", "bogus"),  # expect: MET001 -- unknown kind
    "Bad-Name": Metric("gauge", "bogus"),  # expect: MET001 -- not a valid Prometheus name suffix
}
