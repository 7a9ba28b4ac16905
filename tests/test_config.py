"""The engine-configuration seam: ``EngineConfig``, ``make_backing`` and
the flags the three front ends share through them."""

import argparse
import dataclasses
import inspect
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GTR,
    EngineConfig,
    LikelihoodEngine,
    RateModel,
    clv_geometry,
    make_backing,
    simulate_alignment,
    yule_tree,
)
from repro.config import POLICIES
from repro.core.backing import BACKING_KINDS
from repro.core.faults import RetryingBackingStore
from repro.core.stats import PARITY_COUNTERS
from repro.core.vecstore import MIN_SLOTS
from repro.errors import BackingStoreError, ReproError
from repro.phylo.likelihood.schedule import default_group_cap
from tests import test_oracle_matrix as matrix

ROOT = Path(__file__).resolve().parent.parent

BACKING_CLASSES = {
    "memory": "MemoryBackingStore", "file": "FileBackingStore",
    "multifile": "MultiFileBackingStore",
    "simulated": "SimulatedDiskBackingStore",
    "compressed": "CompressedFileBackingStore",
    "sharded": "ShardedBackingStore",
}

#: Fields that have a command-line spelling (everything but read_skipping).
FLAGGED = [f for f in dataclasses.fields(EngineConfig) if f.metadata]


def _argv(config: EngineConfig) -> list[str]:
    """The command line that spells ``config`` (non-default fields only)."""
    argv = []
    for f in FLAGGED:
        value = getattr(config, f.name)
        if value != f.default:
            argv += [f.metadata["flags"][-1], str(value)]
    return argv


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    EngineConfig.add_arguments(parser)
    return parser


@st.composite
def configs(draw):
    budget = draw(st.sampled_from(
        [{}, {"fraction": draw(st.floats(0.05, 1.0))},
         {"num_slots": draw(st.integers(1, 64))},
         {"memory_limit": draw(st.integers(1, 10**9))}]))
    layout = draw(st.sampled_from(["whole", "block"]))
    block_sites = (draw(st.one_of(st.none(), st.integers(1, 512)))
                   if layout == "block" else None)
    return EngineConfig(
        **budget, layout=layout, block_sites=block_sites,
        dtype=draw(st.sampled_from(["float64", "float32"])),
        policy=draw(st.sampled_from(POLICIES)),
        seed=draw(st.integers(0, 2**31)),
        backing=draw(st.sampled_from(BACKING_KINDS)),
        shards=draw(st.integers(1, 8)),
        backing_retries=draw(st.integers(0, 5)),
        writeback_depth=draw(st.integers(0, 16)),
        io_threads=draw(st.integers(1, 4)),
        prefetch_depth=draw(st.integers(0, 8)),
        batch=draw(st.integers(-1, 16)),
    )


class TestRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(configs())
    def test_argparse_and_json_round_trip_is_identity(self, config):
        parsed = EngineConfig.from_args(_parser().parse_args(_argv(config)))
        assert parsed == config
        assert EngineConfig.from_dict(parsed.to_dict()) == config

    def test_defaults_parse_to_the_default_config(self):
        assert EngineConfig.from_args(_parser().parse_args([])) == EngineConfig()

    def test_to_dict_is_plain_json(self):
        import json

        block = EngineConfig(fraction=0.25, dtype=np.float32).to_dict()
        assert json.loads(json.dumps(block)) == block
        assert block["dtype"] == "float32"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="unknown engine option external"):
            EngineConfig.from_dict({"fraction": 0.5, "external": "a store"})

    def test_parser_default_yields_to_an_explicit_budget(self):
        """repro.profile's ``set_defaults(fraction=0.25)`` next to an explicit
        ``--num-slots`` / ``-L`` is not a conflict: the explicit flag wins."""
        parser = _parser()
        parser.set_defaults(fraction=0.25)
        assert EngineConfig.from_args(parser.parse_args([])).fraction == 0.25
        for argv, field in ((["--num-slots", "3"], "num_slots"),
                            (["-L", "4096"], "memory_limit")):
            config = EngineConfig.from_args(parser.parse_args(argv))
            assert config.fraction is None
            assert getattr(config, field) == int(argv[1])

    def test_two_explicit_budget_flags_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            _parser().parse_args(["--fraction", "0.5", "--num-slots", "4"])
        assert "not allowed with" in capsys.readouterr().err


#: One value per bounded field that the dataclass itself must reject.
OUT_OF_RANGE = [
    {"fraction": 1.5}, {"fraction": 0.0}, {"batch": -5}, {"batch": "bogus"},
    {"writeback_depth": -1}, {"backing_retries": -1}, {"prefetch_depth": -1},
    {"io_threads": 0}, {"shards": 0}, {"layout": "block", "block_sites": 0},
]


class TestValidation:
    """Invalid combinations raise one ReproError from ``__post_init__`` —
    before a layout, a file or a thread exists."""

    @pytest.mark.parametrize("kwargs", [
        {"fraction": 0.5, "num_slots": 4},
        {"memory_limit": 1 << 20, "fraction": 0.5},
        {"memory_limit": 1 << 20, "num_slots": 4},
    ])
    def test_budget_spellings_are_exclusive(self, kwargs):
        with pytest.raises(ReproError, match="RAM budget"):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"num_slots": -3}, {"num_slots": 0},
        {"memory_limit": 0}, {"memory_limit": -1}])
    def test_a_budget_below_one_is_rejected(self, kwargs):
        """Not clamped up to the store's minimum slot count: that clamp is
        for a small budget, not for a negative one."""
        name = list(kwargs)[0]
        with pytest.raises(ReproError, match=f"^{name} must be >= 1"):
            EngineConfig(**kwargs)
        EngineConfig(**{name: 1})

    def test_block_sites_needs_block_layout(self):
        with pytest.raises(ReproError, match="block_sites"):
            EngineConfig(block_sites=32)
        EngineConfig(layout="block", block_sites=32)

    @pytest.mark.parametrize("kwargs", [
        {"layout": "diagonal"}, {"policy": "belady"}, {"backing": "tape"},
        {"dtype": "float16"}, *OUT_OF_RANGE,
    ])
    def test_unknown_choice_rejected(self, kwargs):
        name = list(kwargs)[-1]
        with pytest.raises(ReproError, match=f"^{name} must be"):
            EngineConfig(**kwargs)

    def test_override_names_the_unknown_key(self):
        with pytest.raises(ReproError, match="polcy"):
            EngineConfig().override(polcy="lru")

    def test_overriding_the_budget_replaces_its_spelling(self):
        config = EngineConfig(num_slots=5).override(fraction=0.5)
        assert (config.num_slots, config.fraction) == (None, 0.5)
        with pytest.raises(ReproError, match="RAM budget"):
            config.override(fraction=0.5, num_slots=5)


@pytest.fixture(scope="module")
def dataset():
    tree = yule_tree(12, seed=21, scale=0.1)
    model = GTR()
    rates = RateModel.gamma(1.0, 4)
    return tree, simulate_alignment(tree, model, 160, seed=22), model, rates


@pytest.fixture(scope="module")
def incore_hex(dataset):
    tree, *rest = dataset
    return LikelihoodEngine(tree.copy(), *rest).full_traversals(2).hex()


class TestBuild:
    @pytest.mark.parametrize("kind", BACKING_KINDS)
    def test_every_backing_kind_matches_the_incore_twin(
            self, dataset, incore_hex, tmp_path, kind):
        tree, alignment, model, rates = dataset
        config = EngineConfig(
            fraction=0.25, layout="block", block_sites=48, backing=kind,
            shards=2, policy="random", seed=5, writeback_depth=2,
            io_threads=2, prefetch_depth=2, batch=-1, backing_retries=1)
        engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                                  config, workdir=tmp_path)
        try:
            assert engine.full_traversals(2).hex() == incore_hex
            store = engine.store
            assert engine.config == config
            assert engine.layout.describe()["layout"] == "block"
            assert engine.layout.item_shape[0] == 48
            assert abs(store.num_slots - 0.25 * store.num_items) <= 1
            assert store.policy.name == "random"
            assert store.writeback is not None
            assert store.writeback.depth == 2
            assert engine.prefetcher is not None
            assert engine.batch_members == default_group_cap(store.num_slots)
            assert isinstance(store.backing, RetryingBackingStore)
            assert type(store.backing.inner).__name__ == BACKING_CLASSES[kind]
            if kind == "sharded":
                assert store.backing.inner.num_shards == 2
        finally:
            engine.close()

    def test_default_config_is_the_incore_engine(self, dataset, incore_hex):
        tree, *rest = dataset
        engine = LikelihoodEngine(tree.copy(), *rest)
        assert engine.config == EngineConfig()
        assert engine.store.num_slots == engine.store.num_items
        assert engine.store.writeback is None and engine.prefetcher is None
        assert engine.full_traversals(2).hex() == incore_hex

    def test_memory_limit_sizes_slots_from_the_layout_item(self, dataset):
        tree, alignment, model, rates = dataset
        num_inner, shape = clv_geometry(*dataset)
        width = int(np.prod(shape)) * 8
        engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                                  memory_limit=4 * width + 1)
        assert engine.store.num_slots == 4
        assert engine.store.ram_bytes() <= 4 * width + 1
        blocks = LikelihoodEngine(
            tree.copy(), alignment, model, rates,
            EngineConfig(memory_limit=4 * width, layout="block"),
            block_sites=16)
        assert blocks.store.ram_bytes() <= 4 * width
        assert blocks.store.num_slots > 4  # blocks are narrower than vectors

    @pytest.mark.parametrize("budget", ["num_slots", "memory_limit"])
    def test_a_budget_of_one_keeps_the_minimum_slot_clamp(self, dataset,
                                                          budget):
        tree, *rest = dataset
        engine = LikelihoodEngine(tree.copy(), *rest, **{budget: 1})
        try:
            assert engine.store.num_slots == MIN_SLOTS
        finally:
            engine.close()

    def test_path_owning_backing_needs_a_workdir(self, dataset):
        tree, *rest = dataset
        with pytest.raises(BackingStoreError, match="needs a path"):
            LikelihoodEngine(tree.copy(), *rest, fraction=0.5, backing="file")

    @pytest.mark.parametrize("kind", ["file", "multifile", "compressed", "sharded"])
    def test_the_missing_workdir_is_named_before_anything_is_built(
            self, dataset, kind, tmp_path, monkeypatch):
        """The constructor makes no scratch directory of its own: the error
        names the keyword, and no backing was constructed for it."""
        tree, *rest = dataset
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ReproError, match="pass workdir="):
            LikelihoodEngine(tree.copy(), *rest, fraction=0.5, backing=kind)
        assert list(tmp_path.iterdir()) == []

    def test_backing_instance_overrides_the_kind(self, dataset, incore_hex):
        tree, alignment, model, rates = dataset
        backing = make_backing("simulated", *clv_geometry(*dataset))
        engine = LikelihoodEngine(
            tree.copy(), alignment, model, rates,
            EngineConfig(fraction=0.25, backing="sharded"), backing=backing)
        assert engine.store.backing is backing
        assert engine.full_traversals(2).hex() == incore_hex
        # what the document records of a thing handed in as itself
        assert engine.config.to_dict()["backing"] == "memory"
        assert EngineConfig.from_dict(engine.config.to_dict()) == \
            EngineConfig(fraction=0.25)

    @pytest.mark.parametrize("bad", OUT_OF_RANGE + [
        {"fraction": 0.5, "num_slots": 4}, {"policy": "belady"},
        {"polcy": "lru"}, {"policy_kwargs": {"seed": 1}}])
    def test_rejected_call_leaves_nothing_behind(self, dataset, tmp_path, bad):
        """Every value is checked before a file or a thread exists."""
        tree, *rest = dataset
        threads = threading.active_count()
        kwargs = {"fraction": 0.5, "backing": "file", "writeback_depth": 2,
                  "prefetch_depth": 2, "layout": "block", **bad}
        with pytest.raises(ReproError):
            LikelihoodEngine(tree.copy(), *rest, workdir=tmp_path, **kwargs)
        assert os.listdir(tmp_path) == []
        assert threading.active_count() == threads


class TestDeclaredOnce:
    """``EngineConfig`` is the constructor's parameter list, not beside it."""

    def test_constructor_redeclares_no_field(self):
        params = set(inspect.signature(LikelihoodEngine.__init__).parameters)
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        assert not params & (fields | {"policy_kwargs"})
        assert not hasattr(EngineConfig, "build")

    def test_the_declared_surface_is_the_sixteen_fields(self):
        assert list(EngineConfig().to_dict()) == [
            "fraction", "num_slots", "memory_limit", "layout", "block_sites",
            "dtype", "policy", "seed", "read_skipping", "backing", "shards",
            "backing_retries", "writeback_depth", "io_threads",
            "prefetch_depth", "batch"]

    @pytest.mark.parametrize("name", matrix.MODELS)
    def test_keywords_and_config_are_one_door(self, name):
        """Every oracle-matrix cell: keywords resolve to the config they
        spell, and the recorded document rebuilds the same engine."""
        def run(*args, **kwargs):
            engine = LikelihoodEngine(*args, **kwargs)
            try:
                lnl = engine.full_traversals(1).hex()
                row = engine.stats.as_row()
                return engine.config, lnl, [row[k] for k in PARITY_COUNTERS]
            finally:
                engine.close()

        tree, *rest = matrix._dataset(name)
        for cell in matrix.cells(name):
            config, *direct = run(tree.copy(), *rest, **cell)
            assert config == EngineConfig(**cell)
            _, *rebuilt = run(tree.copy(), *rest,
                              EngineConfig.from_dict(config.to_dict()))
            assert rebuilt == direct


class TestMakeBacking:
    def test_unknown_kind(self):
        with pytest.raises(BackingStoreError, match="unknown backing"):
            make_backing("tape", 4, (2, 2))

    @pytest.mark.parametrize("kind", BACKING_KINDS)
    def test_round_trips_an_item(self, kind, tmp_path):
        options = {"num_shards": 2} if kind == "sharded" else {}
        backing = make_backing(kind, 5, (3, 2), np.float32,
                               path=tmp_path / "b", **options)
        try:
            data = np.arange(6, dtype=np.float32).reshape(3, 2)
            backing.write(3, data)
            out = np.empty_like(data)
            backing.read(3, out)
            assert np.array_equal(out, data)
        finally:
            backing.close()


# -- the flags every front end keeps ----------------------------------------------

#: Engine flags each parser carried before the shared declaration, with the
#: default it resolved to (``None`` = flag absent from that tool then).
BEFORE = {
    "repro.cli": {
        "--memory-limit": None, "-L": None, "--fraction": None,
        "--policy": "lru", "--writeback-depth": 0, "--io-threads": 1,
        "--prefetch-depth": 0, "--seed": 42},
    "repro.profile": {
        "--fraction": 0.25, "--num-slots": None, "--layout": "whole",
        "--block-sites": None, "--dtype": "float64", "--policy": "lru",
        "--backing": "memory", "--shards": 4, "--backing-retries": 0,
        "--writeback-depth": 0, "--io-threads": 1, "--prefetch-depth": 0,
        "--batch": 0, "--seed": 42},
}


def _tool_parser(module):
    import importlib

    parser = importlib.import_module(module).build_parser()
    if module != "repro.cli":
        return parser
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["evaluate"]


@pytest.mark.parametrize("module", sorted(BEFORE))
def test_front_end_keeps_its_engine_flags(module):
    parser = _tool_parser(module)
    text = parser.format_help()
    by_flag = {flag: action for action in parser._actions
               for flag in action.option_strings}
    for flag, default in BEFORE[module].items():
        assert flag in text
        assert by_flag[flag].default == default, flag


def test_documented_command_lines_still_parse():
    """Every ``python -m repro[.cli|.profile]`` line in README, DESIGN and
    the CI workflow parses with today's parsers."""
    import shlex

    from repro.cli import build_parser as cli_parser
    from repro.profile import build_parser as profile_parser

    parsers = {"repro": cli_parser(), "repro.cli": cli_parser(),
               "repro.profile": profile_parser()}
    text = "\n".join((ROOT / name).read_text() for name in
                     ("README.md", "DESIGN.md", ".github/workflows/ci.yml"))
    text = re.sub(r"\\\n", " ", text)           # shell continuations
    text = re.sub(r"\n\s+(?=--?\w)", " ", text)  # YAML folded flag lines
    seen = 0
    for m in re.finditer(r"python -m (repro(?:\.\w+)?) ([^\n`|#>]*)", text):
        tool, rest = m.group(1), m.group(2)
        if tool not in parsers or "..." in rest or "…" in rest:
            continue
        argv = [a for a in shlex.split(rest) if "$" not in a and a != "&"]
        parsers[tool].parse_args(argv)  # SystemExit = a stale command line
        seen += 1
    assert seen >= 10


def test_each_engine_flag_is_declared_once_under_src():
    literals = [flag for f in FLAGGED for flag in f.metadata["flags"]
                if flag != "--seed"]  # simulate seeds its own data
    for flag in literals:
        hits = [str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py")
                if re.search(rf'"{re.escape(flag)}"', p.read_text())]
        assert hits == ["src/repro/config.py"], (flag, hits)


def options_markdown() -> str:
    """README's engine-options table, from the field declarations."""
    rows = ["| flag | default | meaning |", "|---|---|---|"]
    for f in FLAGGED:
        flags = ", ".join(f"`{flag}`" for flag in f.metadata["flags"])
        default = "—" if f.default is None else f"`{f.default}`"
        rows.append(f"| {flags} | {default} | {f.metadata['help']} |")
    return "\n".join(rows)


def test_readme_options_table_is_the_generated_one():
    assert options_markdown() in (ROOT / "README.md").read_text(), \
        "regenerate README's 'Engine options' table:\n" + options_markdown()
