"""Shared fixtures: small simulated datasets and engine factories."""

from __future__ import annotations

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


#: Thread names of the in-process pipeline: the write-behind writers and
#: the prefetch workers.
PIPELINE_THREADS = ("writeback-", "prefetch")


#: This process's open file descriptors (Linux); where it does not
#: exist the fd half of the leak gate is skipped.
FD_DIR = "/proc/self/fd"


def _open_fds() -> dict[str, str]:
    """``{fd: what it points at}`` for every open descriptor."""
    fds = {}
    for fd in os.listdir(FD_DIR):
        try:
            fds[fd] = os.readlink(os.path.join(FD_DIR, fd))
        except OSError:  # the listing's own descriptor, already closed
            pass
    return fds


@pytest.fixture(autouse=True)
def no_leaks():
    """Leak gate around every test: once a test is over no pipeline
    thread it started (:data:`PIPELINE_THREADS`) remains, and no more
    file descriptors are open than when it began — every store, engine,
    socket and file a test opens, it closes. Threads alive before the
    test (a module fixture's engine) are not its own. The short grace
    covers a thread that is still returning from its last call. Nothing
    is garbage-collected first: a descriptor only a reference cycle still
    holds is a leak."""
    before = set(threading.enumerate())
    check_fds = os.path.isdir(FD_DIR)
    fds_before = _open_fds() if check_fds else {}
    yield

    def leaked():
        found = [t.name for t in threading.enumerate()
                 if t not in before and t.name.startswith(PIPELINE_THREADS)]
        if check_fds:
            fds = _open_fds()
            if len(fds) > len(fds_before):
                found += [f"fd {fd} -> {target}"
                          for fd, target in sorted(fds.items())
                          if fds_before.get(fd) != target]
        return found

    deadline = time.monotonic() + 2.0
    found = leaked()
    while found and time.monotonic() < deadline:
        time.sleep(0.01)
        found = leaked()
    assert not found, found


@pytest.fixture()
def closing():
    """``closing(x)`` is ``x``, closed (last opened first) once the test
    is over: for the stores and engines a test opens."""
    opened = []

    def register(obj):
        opened.append(obj)
        return obj

    yield register
    for obj in reversed(opened):
        obj.close()


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
def engine_factory(small_tree, small_alignment, small_model, closing):
    """Build engines over the shared dataset with arbitrary store settings;
    each is closed when the test is over."""

    def build(**kwargs) -> LikelihoodEngine:
        rates = kwargs.pop("rates", RateModel.gamma(0.8, 4))
        tree = kwargs.pop("tree", None)
        if tree is None:
            tree = small_tree.copy()
        return closing(LikelihoodEngine(tree, small_alignment, small_model,
                                        rates, **kwargs))

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)
