"""Tests for the command-line interface (in-process, via ``main(argv)``)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def workspace(tmp_path):
    """Simulate a small dataset once per test via the CLI itself."""
    msa = tmp_path / "d.phy"
    tree = tmp_path / "t.nwk"
    rc = main(["simulate", "-n", "10", "-l", "200", "-o", str(msa),
               "--tree-out", str(tree), "--seed", "3"])
    assert rc == 0
    return msa, tree, tmp_path


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("evaluate", "search", "mcmc", "simulate", "policies"):
            assert cmd in text

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_memory_limit_flag_is_L(self):
        args = build_parser().parse_args(
            ["evaluate", "-s", "x", "-L", "1000000000"]
        )
        assert args.memory_limit == 1_000_000_000  # the paper's -L value


class TestSimulate:
    def test_writes_phylip_and_newick(self, workspace):
        msa, tree, _ = workspace
        header = msa.read_text().splitlines()[0].split()
        assert header == ["10", "200"]
        assert tree.read_text().strip().endswith(";")

    def test_jc_model_accepted(self, tmp_path, capsys):
        rc = main(["simulate", "-n", "6", "-l", "50", "-m", "JC",
                   "-o", str(tmp_path / "o.phy")])
        assert rc == 0

    def test_unknown_model_rejected(self, tmp_path, capsys):
        rc = main(["simulate", "-n", "6", "-l", "50", "-m", "WAGGLE",
                   "-o", str(tmp_path / "o.phy")])
        assert rc == 2
        assert "unknown model" in capsys.readouterr().err

    @pytest.mark.parametrize("command, spec", [
        ("simulate", "JC+G8+BOGUS"),   # was: exit 0, suffix ignored
        ("simulate", "JC+GX"),         # was: exit 0, 4 categories
        ("evaluate", "GTR+GX"),        # was: an uncaught ValueError
    ])
    def test_malformed_model_suffix_rejected(self, workspace, tmp_path, capsys,
                                             command, spec):
        """One model-string grammar: what ``evaluate`` rejects, ``simulate``
        rejects, both as ``error: ...`` with exit code 2."""
        msa, tree, _ = workspace
        argv = {"simulate": ["-n", "6", "-l", "50", "-o", str(tmp_path / "o.phy")],
                "evaluate": ["-s", str(msa), "-t", str(tree)]}[command]
        assert main([command, *argv, "-m", spec]) == 2
        assert "unknown model suffix" in capsys.readouterr().err

    def test_category_count_reaches_the_simulator(self, tmp_path, monkeypatch):
        import repro.simulate

        seen = {}
        real = repro.simulate.simulate_alignment

        def spy(tree, model, length, rates=None, seed=None):
            seen["categories"] = rates.num_categories
            return real(tree, model, length, rates=rates, seed=seed)

        monkeypatch.setattr(repro.simulate, "simulate_alignment", spy)
        assert main(["simulate", "-n", "6", "-l", "50", "-m", "JC+G8",
                     "-o", str(tmp_path / "o.phy")]) == 0
        assert seen["categories"] == 8


class TestEvaluate:
    def test_fz_mode(self, workspace, capsys):
        msa, tree, _ = workspace
        rc = main(["evaluate", "-s", str(msa), "-t", str(tree),
                   "-f", "z", "-N", "3", "-L", "120000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 full tree traversals (-f z)" in out
        assert "log-likelihood" in out
        assert "miss rate" in out

    def test_plain_evaluation(self, workspace, capsys):
        msa, tree, _ = workspace
        rc = main(["evaluate", "-s", str(msa), "-t", str(tree)])
        assert rc == 0
        assert "single evaluation" in capsys.readouterr().out

    def test_memory_limit_constrains_slots(self, workspace, capsys):
        msa, tree, _ = workspace
        rc = main(["evaluate", "-s", str(msa), "-t", str(tree),
                   "-f", "z", "-L", "1"])  # absurdly small -> 3 slots min
        assert rc == 0
        assert "(3/8 slots)" in capsys.readouterr().out

    def test_fraction_flag(self, workspace, capsys):
        msa, tree, _ = workspace
        rc = main(["evaluate", "-s", str(msa), "-t", str(tree),
                   "--fraction", "0.5", "-f", "z"])
        assert rc == 0
        assert "(4/8 slots)" in capsys.readouterr().out

    def test_same_lnl_with_and_without_limit(self, workspace, capsys):
        msa, tree, _ = workspace
        main(["evaluate", "-s", str(msa), "-t", str(tree)])
        full = capsys.readouterr().out
        main(["evaluate", "-s", str(msa), "-t", str(tree), "-L", "50000"])
        limited = capsys.readouterr().out

        def lnl(text):
            return [ln for ln in text.splitlines() if "log-likelihood" in ln][0]

        assert lnl(full) == lnl(limited)

    def test_limit_builds_one_engine_that_leaves_ram(self, workspace, capsys,
                                                     monkeypatch):
        """``-L`` sizes the slots from the geometry (no unlimited probe
        engine first) and ``--backing file`` spills to a real file."""
        import repro.cli
        from repro.core.backing import FileBackingStore

        built = []

        class Spy(repro.cli.LikelihoodEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.cli, "LikelihoodEngine", Spy)
        msa, tree, _ = workspace
        main(["evaluate", "-s", str(msa), "-t", str(tree)])
        full = capsys.readouterr().out
        (unlimited,) = built
        limit = 3 * unlimited.ancestral_vector_bytes() + 17
        del built[:]
        main(["evaluate", "-s", str(msa), "-t", str(tree), "-L", str(limit),
              "--backing", "file"])
        limited = capsys.readouterr().out

        (engine,) = built
        assert engine.store.num_slots == 3
        assert engine.store.ram_bytes() <= limit
        assert isinstance(engine.store.backing, FileBackingStore)
        assert engine.stats.bytes_written > 0  # it did spill

        def lnl(text):
            return [ln for ln in text.splitlines() if "log-likelihood" in ln][0]

        assert lnl(full) == lnl(limited)

    def test_missing_file_reports_error(self, capsys):
        rc = main(["evaluate", "-s", "/nonexistent.phy"])
        assert rc == 2


class TestSearch:
    def test_search_writes_tree(self, workspace, capsys):
        msa, _, tmp = workspace
        out = tmp / "ml.nwk"
        rc = main(["search", "-s", str(msa), "--rounds", "1", "--radius", "2",
                   "--fraction", "0.5", "-o", str(out), "--seed", "4"])
        assert rc == 0
        assert out.read_text().strip().endswith(";")
        assert "moves applied" in capsys.readouterr().out

    def test_starting_tree_choices(self, workspace, capsys):
        msa, _, _ = workspace
        for start in ("nj", "random"):
            rc = main(["search", "-s", str(msa), "--rounds", "1",
                       "--radius", "2", "--starting-tree", start])
            assert rc == 0

    def test_resume_rebuilds_the_engine_from_the_flags(self, workspace,
                                                       capsys, monkeypatch):
        """``--resume`` used to rebuild the engine from the checkpoint's
        slot count and policy alone, silently dropping write-behind,
        prefetch, layout and the rest of the command line."""
        import repro.phylo.search as search

        msa, _, tmp = workspace
        flags = ["--fraction", "0.5", "--writeback-depth", "4",
                 "--prefetch-depth", "2", "--layout", "block",
                 "--block-sites", "32", "--backing", "file",
                 "--radius", "2", "--seed", "4"]
        seen = []
        real = search.ml_search

        def spy(engine, **kwargs):
            result = real(engine, **kwargs)
            seen.append((engine, engine.store.writeback, engine.prefetcher,
                         engine.layout.describe(),
                         engine.loglikelihood().hex()))
            return result

        monkeypatch.setattr(search, "ml_search", spy)

        def final_lnl():
            out = capsys.readouterr().out
            return [ln for ln in out.splitlines() if "log-likelihood" in ln][0]

        assert main(["search", "-s", str(msa), "--rounds", "3", *flags]) == 0
        uninterrupted = final_lnl()

        ckpt = tmp / "ck.json"
        assert main(["search", "-s", str(msa), "--rounds", "1", *flags,
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["search", "-s", str(msa), "--rounds", "3", *flags,
                     "--checkpoint", str(ckpt), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "(round 1)" in out
        resumed = [ln for ln in out.splitlines() if "log-likelihood" in ln][0]
        assert resumed == uninterrupted  # printed to 1e-6

        fresh, *_, again = seen
        assert again[0] is not fresh[0]
        assert again[1] is not None          # store.writeback
        assert again[2] is not None          # prefetcher
        assert again[3] == fresh[3]          # layout.describe()
        assert again[3]["layout"] == "block" and again[3]["block_sites"] == 32
        assert again[4] == fresh[4]          # bit-identical, not just 1e-6


class TestMcmc:
    def test_mcmc_summary(self, workspace, capsys):
        msa, tree, _ = workspace
        rc = main(["mcmc", "-s", str(msa), "-t", str(tree),
                   "--generations", "60", "--burn-in", "10",
                   "--sample-every", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final lnL" in out
        assert "accepted" in out


class TestPolicies:
    def test_policy_table(self, workspace, capsys):
        msa, _, _ = workspace
        rc = main(["policies", "-s", str(msa), "--radius", "2",
                   "--fractions", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "miss rate" in out
        for policy in ("random", "lru", "lfu", "topological"):
            assert policy in out


class TestSupport:
    def test_alrt_only(self, workspace, capsys):
        msa, tree, _ = workspace
        rc = main(["support", "-s", str(msa), "-t", str(tree)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aLRT" in out
        assert "(root)" in out  # the ASCII tree rendered

    def test_with_bootstrap(self, workspace, capsys):
        msa, tree, _ = workspace
        rc = main(["support", "-s", str(msa), "-t", str(tree),
                   "-b", "5", "--fraction", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BS=" in out
        assert "5 NJ replicates" in out
