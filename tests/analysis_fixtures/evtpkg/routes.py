"""Fixture: routes and report sites with seeded typos."""


def Route(**sinks):
    return sinks


ROUTES = {
    "get": Route(mirrors="requests"),
    "hit": Route(mirrors="bogus_total"),  # expect: EVT001 -- not an IoStats counter field
    "load": Route(metric="load_seconds"),
    "phantom": Route(),  # no single-counter equivalent: never flagged
}


class Observer:
    def event(self, name, item=-1):
        pass

    def timed(self, name, t0, dt):
        pass


def probe(ob, tracer, fast):
    ob.event("get")
    ob.timed("load" if fast else "crawl", 0.0, 1.0)  # expect: EVT001 -- 'crawl' is not a ROUTES key
    ob.event("teleport", item=3)  # expect: EVT001 -- not a ROUTES key
    tracer.event("unrouted")  # receiver is not an observer: never flagged
