"""The parity gate: schema validity, determinism, exact baseline compare, CLI."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.bench import (
    RESULT_METRICS,
    RESULTS_SCHEMA,
    compare_results,
    validate_results,
)
from repro.bench.runner import _require_identical, build_parser
from repro.bench.runner import main as bench_main
from repro.core.stats import IoStats
from repro.errors import ReproError

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_results.json"


@pytest.fixture(scope="module")
def bench_doc(tmp_path_factory):
    """One run of the gate (its one geometry) shared by the module's tests."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_results.json"
    assert bench_main(["-o", str(out)]) == 0
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

    def test_twins_reproduce_their_partner_bit_for_bit(self, bench_doc):
        """What the run gated, read back from the document — and the gate
        itself fires on one flipped bit or one moved counter."""
        doc, _ = bench_doc
        wl = doc["workloads"]
        for name in ("fig5_ooc_whole_batch", "fig5_ooc_compressed",
                     "fig5_ooc_sharded"):
            for key in ("log_likelihood_hex", "metrics"):
                assert wl[name][key] == wl["fig5_ooc_whole"][key], (name, key)
        comp = wl["fig5_ooc_compressed"]
        assert comp["backing_bytes_written"] < comp["metrics"]["bytes_written"]
        assert wl["fig5_ooc_sharded"]["shards"] == 4

        broken = copy.deepcopy(wl)
        broken["fig5_ooc_sharded"]["metrics"]["writes"] += 1
        with pytest.raises(ReproError, match="fig5_ooc_sharded.*writes"):
            _require_identical(broken, "fig5_ooc_sharded", "fig5_ooc_whole",
                               "why")
        broken = copy.deepcopy(wl)
        lnl = wl["fig5_ooc_whole"]["log_likelihood"]
        broken["fig5_ooc_sharded"]["log_likelihood_hex"] = math.nextafter(
            lnl, 0.0).hex()
        with pytest.raises(ReproError, match="fig5_ooc_sharded: lnL"):
            _require_identical(broken, "fig5_ooc_sharded", "fig5_ooc_whole",
                               "why")

    def test_config_blocks_rebuild_their_workloads(self, bench_doc, tmp_path):
        """Each entry records ``EngineConfig.to_dict()`` verbatim: rebuilding
        from the block alone reproduces the entry's lnL and every counter.
        Entries handed a store instance say so (``external``)."""
        from repro.bench.runner import _dataset, _run_full, _run_search
        from repro import EngineConfig, LikelihoodEngine

        doc, _ = bench_doc
        tree, alignment, model, rates = _dataset()
        external = set()
        for name, wl in doc["workloads"].items():
            block = wl["config"]
            if "external" in block:
                external.add(name)
                continue
            workdir = tmp_path / name
            workdir.mkdir()
            engine = LikelihoodEngine(
                tree.copy(), alignment, model, rates,
                EngineConfig.from_dict(block), workdir=workdir)
            run = _run_search if wl["figure"] == "spr" else _run_full
            try:
                lnl = run(engine)
                engine.store.drain()
                row = engine.stats.as_row()
            finally:
                engine.close()
            assert float(lnl).hex() == wl["log_likelihood_hex"], name
            assert wl["log_likelihood"].hex() == wl["log_likelihood_hex"]
            assert {k: int(row[k]) for k in RESULT_METRICS} == wl["metrics"], \
                name
        assert external == {"fig5_paging"}

    def test_two_runs_serialise_to_identical_bytes(self, bench_doc, tmp_path):
        """The document is a pure function of the commit: no clock reading,
        no scheduling-dependent figure, nothing to tolerate."""
        _, out = bench_doc
        again = tmp_path / "again.json"
        assert bench_main(["-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_committed_document_validates_and_compares_clean(self, bench_doc):
        doc, _ = bench_doc
        committed = json.loads(COMMITTED.read_text())
        assert validate_results(committed) == []
        differences, notes = compare_results(doc, committed)
        assert differences == [] and notes == []

    def test_failed_gate_is_one_parity_line_and_exit_one(
            self, monkeypatch, capsys, tmp_path):
        real = IoStats.as_row

        def one_extra_miss(self):
            row = dict(real(self))
            row["misses"] += 1
            return row

        monkeypatch.setattr(IoStats, "as_row", one_extra_miss)
        out = tmp_path / "r.json"
        assert bench_main(["-o", str(out)]) == 1
        parity = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("PARITY: ")]
        assert len(parity) == 1
        assert "fig2_lru_whole" in parity[0] and "'misses'" in parity[0]
        assert not out.exists()

    def test_parser_declares_three_options(self):
        flags = {flag for action in build_parser()._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert flags == {"--validate", "--baseline", "-o", "--out"}

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
        differences, notes = compare_results(doc, copy.deepcopy(doc))
        assert differences == [] and notes == []

    def test_counter_regression_detected(self, bench_doc):
        """Either direction: fewer misses is a change of behaviour too."""
        doc, _ = bench_doc
        for delta in (-1, +1):
            base = copy.deepcopy(doc)
            base["workloads"]["fig2_lru_whole"]["metrics"]["misses"] += delta
            differences, _ = compare_results(doc, base)
            assert len(differences) == 1
            assert "fig2_lru_whole: metrics.misses" in differences[0]

    @pytest.mark.parametrize("field", ["miss_rate", "simulated_io_seconds",
                                       "faults"])
    def test_rates_and_modelled_figures_compared_exactly(self, bench_doc,
                                                         field):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        entry = base["workloads"]["fig5_paging"]
        holder = entry["derived"] if field in entry["derived"] else entry
        holder[field] = math.nextafter(holder[field], math.inf)
        differences, _ = compare_results(doc, base)
        assert len(differences) == 1
        assert "fig5_paging" in differences[0] and field in differences[0]

    def test_lnl_held_to_oracle_tolerance_not_to_the_bit(self, bench_doc):
        doc, _ = bench_doc
        lnl = doc["workloads"]["spr_search_whole"]["log_likelihood"]
        base = copy.deepcopy(doc)
        entry = base["workloads"]["spr_search_whole"]
        entry["log_likelihood"] = math.nextafter(lnl, 0.0)  # another BLAS
        assert compare_results(doc, base) == ([], [])
        entry["log_likelihood"] = lnl * (1 + 1e-6)
        differences, _ = compare_results(doc, base)
        assert len(differences) == 1
        assert "spr_search_whole: log_likelihood" in differences[0]

    def test_host_dependent_fields_are_not_compared(self, bench_doc):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        entry = base["workloads"]["fig5_ooc_compressed"]
        entry["backing_bytes_written"] += 100   # another zlib build
        entry["compression_ratio"] *= 0.99
        assert compare_results(doc, base) == ([], [])

    def test_config_change_skips_with_note(self, bench_doc):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        base["workloads"]["fig2_lru_whole"]["config"]["fraction"] = 0.5
        base["workloads"]["fig2_lru_whole"]["metrics"]["misses"] = 0
        differences, notes = compare_results(doc, base)
        assert differences == []
        assert any("config changed" in n for n in notes)

    def test_missing_workload_is_a_regression(self, bench_doc):
        doc, _ = bench_doc
        cur = copy.deepcopy(doc)
        del cur["workloads"]["fig3_skip"]
        differences, _ = compare_results(cur, doc)
        assert any("fig3_skip" in d and "missing" in d for d in differences)

    def test_invalid_baseline_reported(self, bench_doc):
        doc, _ = bench_doc
        differences, _ = compare_results(doc, {"schema": "bogus"})
        assert differences
        assert all(d.startswith("baseline invalid") for d in differences)


class TestBaselineCli:
    def test_baseline_regression_exits_nonzero(self, bench_doc, tmp_path,
                                               capsys):
        doc, _ = bench_doc
        base = copy.deepcopy(doc)
        base["workloads"]["fig3_noskip"]["metrics"]["reads"] += 1
        changed = tmp_path / "base_changed.json"
        changed.write_text(json.dumps(base))
        rc = bench_main(["-o", str(tmp_path / "r.json"),
                         "--baseline", str(changed)])
        assert rc == 1
        assert "BASELINE: fig3_noskip: metrics.reads" in capsys.readouterr().err

    def test_baseline_identical_exits_zero(self, tmp_path):
        """The acceptance line: a fresh run equals the committed document."""
        rc = bench_main(["-o", str(tmp_path / "r.json"),
                         "--baseline", str(COMMITTED)])
        assert rc == 0

    def test_unreadable_baseline_exits_two(self, tmp_path):
        rc = bench_main(["-o", str(tmp_path / "r.json"),
                         "--baseline", str(tmp_path / "missing.json")])
        assert rc == 2
