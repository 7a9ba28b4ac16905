"""Fixture: report sites and routes, some with a typo'd metric name."""


def Route(**sinks):
    return sinks


ROUTES = {
    "io": Route(metric="requests_total"),
    "wait": Route(metric="wait_secs", span=True),  # expect: MET001 -- undeclared target
}


class Observer:
    def count(self, name, n=1):
        pass

    def gauge(self, name, value):
        pass

    def totals(self, counters):
        pass


def probe(obs, latency, words):
    obs.count("requests_total")
    obs.count("hits")  # a row generated from the IoStats field: declared
    obs.gauge("slots_ocupied", 3)  # expect: MET001 -- typo'd name
    obs.count(latency)  # non-literal first arg: never flagged
    words.count("slots_ocupied")  # receiver is not an observer: never flagged
    obs.totals({
        "requests_total": 1,
        "request_total": 1,  # expect: MET001 -- typo'd key
    })
