"""Benchmark runner: schema validity, baseline regression detection, CLI."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    RESULT_METRICS,
    RESULTS_SCHEMA,
    compare_results,
    validate_results,
)
from repro.bench.runner import main as bench_main
from repro.obs import METRIC_NAMES

TINY = ["--taxa", "8", "--sites", "60", "--traversals", "1",
        "--radius", "2", "--block-sites", "16"]


@pytest.fixture(scope="module")
def bench_doc(tmp_path_factory):
    """One tiny full bench run shared by the module's tests."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_results.json"
    assert bench_main(["--quick", *TINY, "-o", str(out)]) == 0
    return json.loads(out.read_text()), out


class TestRunner:
    def test_schema_valid_and_covers_both_layouts(self, bench_doc):
        doc, _ = bench_doc
        assert validate_results(doc) == []
        assert doc["schema"] == RESULTS_SCHEMA
        names = set(doc["workloads"])
        # fig2/fig3/fig5 + SPR, with whole-vector AND block layouts
        assert {"fig2_lru_whole", "fig2_random_whole", "fig2_lru_block",
                "fig3_skip", "fig3_noskip", "fig5_ooc_whole",
                "fig5_ooc_block", "fig5_paging", "spr_search_whole",
                "spr_search_block"} <= names
        layouts = {wl["config"].get("layout") for wl in
                   doc["workloads"].values()}
        assert {"whole", "block"} <= layouts

    def test_counters_cross_checked_against_registry(self, bench_doc):
        doc, _ = bench_doc
        for name, wl in doc["workloads"].items():
            if name == "fig5_paging":
                assert wl["registry_checked"] is False
            else:
                assert wl["registry_checked"] is True, name

    def test_read_skipping_visible_in_results(self, bench_doc):
        doc, _ = bench_doc
        skip = doc["workloads"]["fig3_skip"]
        noskip = doc["workloads"]["fig3_noskip"]
        assert skip["derived"]["read_rate"] < noskip["derived"]["read_rate"]
        assert noskip["metrics"]["read_skips"] == 0

    def test_fig5_reports_simulated_io(self, bench_doc):
        doc, _ = bench_doc
        for name in ("fig5_ooc_whole", "fig5_ooc_block", "fig5_paging"):
            assert doc["workloads"][name]["simulated_io_seconds"] >= 0

    def test_config_blocks_rebuild_their_workloads(self, bench_doc, tmp_path):
        """Each entry records ``EngineConfig.to_dict()`` verbatim: rebuilding
        from the block alone reproduces the entry's lnL and every counter.
        Entries handed a store/backing instance say so (``external``)."""
        from repro.bench.runner import _dataset, _run_full, _run_search
        from repro.config import EngineConfig

        doc, _ = bench_doc
        top = doc["config"]
        tree, alignment, model, rates = _dataset(top["taxa"], top["sites"],
                                                 top["seed"])
        external = set()
        for name, wl in doc["workloads"].items():
            block = wl["config"]
            if "external" in block:
                external.add(name)
                continue
            workdir = tmp_path / name
            workdir.mkdir()
            engine = EngineConfig.from_dict(block).build(
                tree.copy(), alignment, model, rates, workdir=workdir)
            run = (_run_search(top["radius"]) if wl["figure"] == "spr"
                   else _run_full(top["traversals"]))
            try:
                lnl = run(engine)
                engine.store.drain()
                row = engine.stats.as_row()
            finally:
                engine.close()
            assert float(lnl).hex() == wl["log_likelihood"].hex(), name
            assert {k: int(row[k]) for k in RESULT_METRICS} == wl["metrics"], \
                name
        assert external == {"fig5_paging", "fig5_ooc_sharded_hdd",
                            "fig5_ooc_sharded_hdd1"}

    def test_validate_cli(self, bench_doc, tmp_path):
        _, out = bench_doc
        assert bench_main(["--validate", str(out)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "bogus"}))
        assert bench_main(["--validate", str(bad)]) == 1
        assert bench_main(["--validate", str(tmp_path / "nope.json")]) == 2


class TestCompareResults:
    def test_identity_has_no_regressions(self, bench_doc):
        doc, _ = bench_doc
        regressions, notes = compare_results(doc, copy.deepcopy(doc))
        assert regressions == []

    def test_counter_regression_detected(self, bench_doc):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        base["workloads"]["fig2_lru_whole"]["metrics"]["misses"] -= 3
        regressions, _ = compare_results(doc, base)
        assert any("counter misses regressed" in r for r in regressions)

    def test_rate_regression_detected_beyond_tolerance(self, bench_doc):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        wl = base["workloads"]["fig2_lru_whole"]["derived"]
        wl["miss_rate"] = max(0.0, wl["miss_rate"] - 0.1)
        regressions, _ = compare_results(doc, base, rate_tolerance=0.02)
        assert any("miss_rate regressed" in r for r in regressions)

    def test_rate_noise_within_tolerance_passes(self, bench_doc):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        wl = base["workloads"]["fig2_lru_whole"]["derived"]
        wl["miss_rate"] = max(0.0, wl["miss_rate"] - 0.01)
        regressions, _ = compare_results(doc, base, rate_tolerance=0.02)
        assert not any("miss_rate" in r for r in regressions)

    def test_improvement_never_regresses(self, bench_doc):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        for wl in base["workloads"].values():
            wl["wall_seconds"] *= 10      # baseline much slower
            wl["metrics"]["misses"] += 50
            wl["derived"]["miss_rate"] = min(
                1.0, wl["derived"]["miss_rate"] + 0.2)
        regressions, _ = compare_results(doc, base)
        assert regressions == []

    def test_time_regression_needs_tolerance_and_floor(self, bench_doc):
        doc, _ = bench_doc
        cur = copy.deepcopy(doc)
        base = copy.deepcopy(doc)
        wl = "spr_search_whole"
        base["workloads"][wl]["wall_seconds"] = 1.0
        cur["workloads"][wl]["wall_seconds"] = 1.4  # +40%: inside 50%
        regressions, _ = compare_results(cur, base, time_tolerance=0.5)
        assert not any("wall_seconds" in r for r in regressions)
        cur["workloads"][wl]["wall_seconds"] = 2.5  # +150%: beyond
        regressions, _ = compare_results(cur, base, time_tolerance=0.5)
        assert any("wall_seconds regressed" in r for r in regressions)
        # sub-floor absolute deltas never alarm, however large relatively
        base["workloads"][wl]["wall_seconds"] = 0.010
        cur["workloads"][wl]["wall_seconds"] = 0.040
        regressions, _ = compare_results(cur, base, time_tolerance=0.5,
                                         time_floor=0.25)
        assert not any("wall_seconds" in r for r in regressions)

    def test_config_change_skips_with_note(self, bench_doc):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        base["workloads"]["fig2_lru_whole"]["config"]["fraction"] = 0.5
        base["workloads"]["fig2_lru_whole"]["metrics"]["misses"] = 0
        regressions, notes = compare_results(doc, base)
        assert regressions == []
        assert any("config changed" in n for n in notes)

    def test_missing_workload_is_a_regression(self, bench_doc):
        doc, _ = bench_doc
        cur = copy.deepcopy(doc)
        del cur["workloads"]["fig3_skip"]
        regressions, _ = compare_results(cur, doc)
        assert any("fig3_skip" in r and "missing" in r for r in regressions)

    def test_invalid_baseline_reported(self, bench_doc):
        doc, _ = bench_doc
        regressions, _ = compare_results(doc, {"schema": "bogus"})
        assert regressions
        assert all(r.startswith("baseline invalid") for r in regressions)


class TestBaselineCli:
    def test_baseline_regression_exits_nonzero(self, bench_doc, tmp_path):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        # Baseline claims fewer misses than this machine can reproduce:
        # the fresh run must be flagged as a regression.
        base["workloads"]["fig2_lru_whole"]["metrics"]["misses"] -= 3
        base["workloads"]["fig2_lru_whole"]["derived"]["miss_rate"] = 0.01
        regressed = tmp_path / "base_regressed.json"
        regressed.write_text(json.dumps(base))
        rc = bench_main(["--quick", *TINY, "-o", str(tmp_path / "r.json"),
                         "--baseline", str(regressed)])
        assert rc == 1

    def test_baseline_identical_exits_zero(self, bench_doc, tmp_path):
        _, out = bench_doc
        rc = bench_main(["--quick", *TINY, "-o", str(tmp_path / "r.json"),
                         "--baseline", str(out)])
        assert rc == 0

    def test_unreadable_baseline_exits_two(self, bench_doc, tmp_path):
        rc = bench_main(["--quick", *TINY, "-o", str(tmp_path / "r.json"),
                         "--baseline", str(tmp_path / "missing.json")])
        assert rc == 2


def test_result_metrics_subset_of_catalogue():
    """The MET002 contract, asserted at runtime too."""
    assert set(RESULT_METRICS) <= set(METRIC_NAMES)
