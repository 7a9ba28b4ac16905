"""Shared fixtures: small simulated datasets and engine factories."""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import GTR, LikelihoodEngine, RateModel, simulate_alignment, yule_tree


@pytest.fixture(scope="session", autouse=True)
def _race_switch_interval():
    """Honour ``REPRO_RACE_SWITCH=aggressive`` (the CI race job's matrix).

    An aggressively small interpreter switch interval forces many more
    thread preemptions per test, widening the base schedules the race
    sanitizer and the interleaving fuzzer observe beyond the default
    5 ms quantum. Any other value (or unset) leaves the default alone.
    """
    if os.environ.get("REPRO_RACE_SWITCH") != "aggressive":
        yield
        return
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


@pytest.fixture(autouse=True)
def no_shard_leaks():
    """Leak gate for the sharded tier, around every test: once a test is
    over no ``shard-worker-*`` child is alive and no ``shard-recv-*``
    thread remains. The short grace covers a receiver that is still
    returning from the restart it just performed."""
    yield

    def leaked():
        return ([p.name for p in multiprocessing.active_children()
                 if p.name.startswith("shard-worker-")]
                + [t.name for t in threading.enumerate()
                   if t.name.startswith("shard-recv-")])

    deadline = time.monotonic() + 2.0
    while leaked() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not leaked()


@pytest.fixture(scope="session")
def small_tree():
    """A fixed 10-taxon random tree with realistic branch lengths."""
    return yule_tree(10, seed=101)


@pytest.fixture(scope="session")
def small_alignment(small_tree):
    """300 DNA sites simulated on ``small_tree`` under GTR+Γ."""
    model = GTR((1.0, 2.5, 1.2, 0.8, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25))
    return simulate_alignment(small_tree, model, 300,
                              rates=RateModel.gamma(0.8, 4), seed=102)


@pytest.fixture(scope="session")
def small_model():
    return GTR((1.0, 2.5, 1.2, 0.8, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25))


@pytest.fixture()
def engine_factory(small_tree, small_alignment, small_model):
    """Build engines over the shared dataset with arbitrary store settings."""

    def build(**kwargs) -> LikelihoodEngine:
        rates = kwargs.pop("rates", RateModel.gamma(0.8, 4))
        tree = kwargs.pop("tree", None)
        if tree is None:
            tree = small_tree.copy()
        return LikelihoodEngine(tree, small_alignment, small_model, rates, **kwargs)

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)
