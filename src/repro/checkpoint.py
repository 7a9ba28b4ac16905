"""Checkpointing: persist and restore an analysis in progress.

Genome-scale analyses of the kind the paper targets run for days; RAxML
therefore writes periodic checkpoints. This module serializes everything
needed to resume a :class:`LikelihoodEngine` — tree (Newick), substitution
model, rate model, store geometry — as a single JSON document. Ancestral
vectors themselves are *not* saved: they are recomputed on demand (one full
traversal), which is both simpler and usually faster than re-reading them.

The restored engine produces bit-identical likelihoods to the original
(same data, same parameters, same arithmetic).
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

import numpy as np

from repro.config import POLICIES, EngineConfig
from repro.core.compress import fsync_dir
from repro.errors import ReproError
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.models.base import ReversibleModel
from repro.phylo.models.dna import GTR
from repro.phylo.models.protein import EmpiricalProteinModel
from repro.phylo.models.rates import RateModel
from repro.phylo.msa import Alignment
from repro.phylo.newick import parse_newick, write_newick
from repro.phylo.tree import Tree

FORMAT_VERSION = 1


def _model_to_dict(model: ReversibleModel) -> dict:
    out = {
        "name": model.name,
        "num_states": model.num_states,
        "frequencies": model.frequencies.tolist(),
    }
    if isinstance(model, GTR):
        out["kind"] = "gtr"
        out["rates6"] = model.rates6.tolist()
    else:
        out["kind"] = "generic"
        R = model.rate_matrix / model.frequencies[None, :]
        R = (R + R.T) / 2.0
        np.fill_diagonal(R, 0.0)
        out["exchangeabilities"] = R.tolist()
    return out


def _model_from_dict(data: dict) -> ReversibleModel:
    freqs = np.asarray(data["frequencies"])
    if data["kind"] == "gtr":
        return GTR(tuple(data["rates6"]), tuple(freqs), name=data["name"])
    R = np.asarray(data["exchangeabilities"])
    if data["num_states"] == 20:
        return EmpiricalProteinModel(R, freqs, name=data["name"])
    return ReversibleModel(R, freqs, name=data["name"])


def _rates_to_dict(rates: RateModel) -> dict:
    return {
        "rates": rates.rates.tolist(),
        "weights": rates.weights.tolist(),
        "alpha": rates.alpha,
        "p_invariant": rates.p_invariant,
    }


def _rates_from_dict(data: dict) -> RateModel:
    return RateModel(np.asarray(data["rates"]), np.asarray(data["weights"]),
                     alpha=data["alpha"], p_invariant=data["p_invariant"])


def _alignment_fingerprint(alignment: Alignment) -> dict:
    codes = alignment.codes
    return {
        "num_taxa": alignment.num_taxa,
        "num_sites": alignment.num_sites,
        "alphabet": alignment.alphabet.name,
        "checksum": int(np.uint64(codes.astype(np.uint64).sum()
                                  + (codes.astype(np.uint64) ** 2).sum() % (1 << 61))),
    }


def _tree_to_dict(tree: Tree) -> dict:
    """Exact structural snapshot of a tree: node numbering, adjacency
    *order* and branch-length insertion order included.

    A Newick round-trip preserves the topology and (at precision 17) the
    branch lengths, but renumbers inner nodes and reorders adjacency
    lists — and the SPR driver enumerates candidate moves in adjacency
    order, so a resumed search would explore moves in a different order
    and converge to a slightly different optimum. Bit-identical resume
    needs the tree back exactly as it was, so the checkpoint carries the
    raw adjacency structure (JSON floats round-trip float64 exactly via
    ``repr``).
    """
    return {
        "names": list(tree.names),
        # node ids can be numpy integers (rng-built topologies): coerce
        # to plain ints for JSON
        "neighbors": [[int(nb) for nb in tree.neighbors(node)]
                      for node in tree.nodes()],
        "lengths": [[int(u), int(v), tree.branch_length(u, v)]
                    for (u, v) in tree._lengths],
    }


def _tree_from_dict(data: dict) -> Tree:
    tree = Tree(len(data["names"]), list(data["names"]))
    tree._neighbors = [list(nb) for nb in data["neighbors"]]
    tree._lengths = {(u, v): float(length)
                     for u, v, length in data["lengths"]}
    tree.validate()
    return tree


def save_checkpoint(engine: LikelihoodEngine, path: str | os.PathLike,
                    extra: dict | None = None, *,
                    sync_store: bool = True) -> None:
    """Write a resumable JSON checkpoint of ``engine`` to ``path``.

    ``extra`` may carry caller state (e.g. the search round counter); it is
    round-tripped verbatim under the ``"extra"`` key.

    Durability discipline (see DESIGN.md "Durability & failure model"):
    with ``sync_store=True`` the engine's vector store is flushed first —
    dirty residents written back, the write-behind queue drained, and the
    backing store fsynced — then the document is written to a temp file,
    fsynced, atomically renamed over ``path``, and the directory entry
    fsynced. A crash at ANY point leaves either the previous checkpoint or
    the new one, never a torn file, and never a checkpoint that is newer
    than the backing data it describes.
    """
    if sync_store and hasattr(engine.store, "flush"):
        engine.store.flush()
    doc = {
        "format_version": FORMAT_VERSION,
        "tree": write_newick(engine.tree, precision=17),
        "tree_exact": _tree_to_dict(engine.tree),
        "model": _model_to_dict(engine.model),
        "rates": _rates_to_dict(engine.rates),
        "dtype": engine.dtype.name,
        # The declared configuration, and beside it the slot count and
        # policy it resolved to (what documents without one carried).
        "config": engine.config.to_dict(),
        "store": {
            "num_slots": getattr(engine.store, "num_slots", None),
            "policy": getattr(getattr(engine.store, "policy", None), "name", None),
        },
        # The evaluation edge: a restored loglikelihood() must be rooted
        # where the saved one was, or it can differ in the last ulp.
        "root_edge": [int(x) for x in engine.root_edge],
        "alignment": _alignment_fingerprint(engine.alignment),
        "extra": extra or {},
    }
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)  # atomic on POSIX: no torn checkpoints
    fsync_dir(os.fspath(path))  # the rename itself survives a crash


class Checkpoint(NamedTuple):
    """What a checkpoint document restores, before any engine exists."""

    tree: Tree
    model: ReversibleModel
    rates: RateModel
    extra: dict
    #: ``EngineConfig.to_dict()`` of the saved engine.
    config: dict
    #: The saved engine's evaluation edge ``(u, v)``, if it had evaluated.
    root_edge: tuple[int, int] | None = None

    def restore_edge(self, engine: LikelihoodEngine) -> None:
        """Root ``engine`` where the saved engine last evaluated.

        An edge the tree no longer has (an old document's Newick
        fallback renumbers nodes) reads back as the default edge.
        """
        if self.root_edge is not None:
            engine.root_edge = self.root_edge


def read_checkpoint(path: str | os.PathLike,
                    alignment: Alignment) -> Checkpoint:
    """Read and verify a checkpoint without building an engine.

    The alignment is the caller's responsibility (checkpoints store only a
    fingerprint, which is verified). Callers with a configuration of their
    own — ``repro search --resume`` — build on the returned tree, model
    and rates themselves.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ReproError(
            f"unsupported checkpoint version {doc.get('format_version')!r}"
        )
    fp = _alignment_fingerprint(alignment)
    if fp != doc["alignment"]:
        raise ReproError(
            "alignment does not match the checkpoint "
            f"(expected {doc['alignment']}, got {fp})"
        )
    # Prefer the exact structural snapshot (bit-identical resume); fall
    # back to the Newick form for documents written before it existed.
    if "tree_exact" in doc:
        tree = _tree_from_dict(doc["tree_exact"])
    else:
        tree = parse_newick(doc["tree"])
    if sorted(tree.names) != sorted(alignment.names):
        raise ReproError("checkpoint tree taxa do not match the alignment")
    # A document written by an engine that had no configuration says
    # "config": null and carries what its store resolved to instead.
    store = doc["store"]
    config = doc.get("config") or {
        "dtype": doc["dtype"], "num_slots": store.get("num_slots"),
        **({"policy": store["policy"]}
           if store.get("policy") in POLICIES else {})}
    edge = doc.get("root_edge")
    return Checkpoint(tree, _model_from_dict(doc["model"]),
                      _rates_from_dict(doc["rates"]), doc.get("extra", {}),
                      config,
                      None if edge is None else (int(edge[0]), int(edge[1])))


def load_checkpoint(path: str | os.PathLike, alignment: Alignment,
                    **overrides) -> tuple[LikelihoodEngine, dict]:
    """Rebuild an engine from a checkpoint; returns ``(engine, extra)``.

    The engine is rebuilt from the recorded
    :class:`~repro.config.EngineConfig`; ``overrides`` are
    :class:`LikelihoodEngine` keywords on top of it (``workdir=`` for a
    path-owning backing kind, or any field — resuming an in-core run
    out-of-core, or vice versa, is explicitly supported, since results are
    configuration-independent).
    """
    ck = read_checkpoint(path, alignment)
    engine = LikelihoodEngine(ck.tree, alignment, ck.model, ck.rates,
                              EngineConfig.from_dict(ck.config), **overrides)
    ck.restore_edge(engine)
    return engine, ck.extra
