"""Seeded CNT001/CNT003 violations against the mini declarations."""

from .stats import IoStats


class Store:
    def __init__(self) -> None:
        self.stats = IoStats()

    def demand_path(self) -> None:
        # Legal: compute-thread code may move demand counters.
        self.stats.requests += 1
        self.stats.hits += 1
        self.stats.writeback_enabled = True  # a bool flag, not a counter

    def bad_unregistered(self) -> None:
        self.stats.swap_count += 1  # expect: CNT001

    def _pump(self) -> None:  # thread: prefetch
        self.stats.prefetch_reads += 1
        self._refill()

    def _refill(self) -> None:
        # Reachable from the prefetch-thread root _pump via the call graph.
        self.stats.hits += 1  # expect: CNT003
