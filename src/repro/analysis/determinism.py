"""DET001/002/003: reproducibility hygiene for the deterministic scope.

The §4.1 contract ("bit-identical for every policy and every ``m >= 3``")
only holds if the numerics consume no hidden entropy and no wall-clock
values. Inside the deterministic scope — files under a ``core`` or
``phylo`` directory, excluding ``utils`` — this checker bans:

* ``DET001`` — the stdlib ``random`` module (import or call): stochastic
  components must take an explicit seed via :func:`repro.utils.rng.as_rng`;
* ``DET002`` — ``np.random.default_rng()`` without an explicit non-``None``
  seed, and legacy global-state ``np.random.*`` calls (``rand``, ``seed``,
  ``shuffle``, ...), whose hidden global stream makes runs order-dependent;
* ``DET003`` — ``time.time()``: a duration is a ``perf_counter`` interval
  reported to ``repro.obs``, simulation time lives in the disk model.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile, attribute_chain

#: Legacy numpy global-RNG entry points (operate on hidden shared state).
NP_GLOBAL_RNG = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "seed", "normal", "uniform",
    "standard_normal", "beta", "binomial", "poisson", "exponential", "gamma",
    "multinomial",
})


def in_deterministic_scope(path_parts: tuple[str, ...]) -> bool:
    if "utils" in path_parts:
        return False
    return "core" in path_parts or "phylo" in path_parts


class _Imports:
    """Module aliases relevant to the determinism rules."""

    def __init__(self, tree: ast.Module) -> None:
        self.numpy_aliases: set[str] = set()
        self.random_aliases: set[str] = set()
        self.from_numpy_random: dict[str, str] = {}  # local name -> original
        self.import_lines: list[tuple[int, str]] = []  # stdlib-random imports
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name == "numpy":
                        self.numpy_aliases.add(local)
                    elif alias.name == "random":
                        self.random_aliases.add(local)
                        self.import_lines.append((node.lineno, alias.name))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    self.import_lines.append((node.lineno, "random"))
                elif node.module in ("numpy.random", "numpy"):
                    for alias in node.names:
                        if node.module == "numpy.random" or alias.name == "random":
                            self.from_numpy_random[alias.asname or alias.name] = \
                                alias.name


def _is_unseeded(call: ast.Call) -> bool:
    seeded = False
    if call.args:
        first = call.args[0]
        seeded = not (isinstance(first, ast.Constant) and first.value is None)
    for kw in call.keywords:
        if kw.arg == "seed":
            seeded = not (isinstance(kw.value, ast.Constant)
                          and kw.value.value is None)
    return not seeded


def check_determinism(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        if not in_deterministic_scope(sf.path.parts):
            continue
        imports = _Imports(sf.tree)
        for line, _mod in imports.import_lines:
            findings.append(Finding(
                str(sf.path), line, "DET001",
                "stdlib 'random' imported in deterministic scope; use "
                "repro.utils.rng.as_rng(seed) instead",
            ))
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            findings.extend(_check_call(sf, node, chain, imports))
    return findings


def _check_call(sf: SourceFile, call: ast.Call, chain: list[str],
                imports: _Imports) -> list[Finding]:
    path = str(sf.path)
    # random.<anything>(...)
    if len(chain) >= 2 and chain[0] in imports.random_aliases:
        return [Finding(path, call.lineno, "DET001",
                        f"call to stdlib random.{chain[1]}() in deterministic "
                        f"scope; use repro.utils.rng.as_rng(seed)")]
    # time.time()
    if chain == ["time", "time"]:
        return [Finding(path, call.lineno, "DET003",
                        "time.time() in deterministic scope; report a "
                        "perf_counter interval to repro.obs (wall time) or "
                        "use the disk model (simulated time)")]
    # np.random.* / numpy.random.*  and  from numpy.random import ...
    tail: str | None = None
    if len(chain) == 3 and chain[0] in imports.numpy_aliases and chain[1] == "random":
        tail = chain[2]
    elif len(chain) == 2 and chain[0] in imports.from_numpy_random \
            and imports.from_numpy_random[chain[0]] == "random":
        tail = chain[1]
    elif len(chain) == 1 and chain[0] in imports.from_numpy_random:
        tail = imports.from_numpy_random[chain[0]]
    if tail == "default_rng":
        if _is_unseeded(call):
            return [Finding(path, call.lineno, "DET002",
                            "np.random.default_rng() without an explicit seed "
                            "in deterministic scope; pass a seed or accept an "
                            "rng from the caller (repro.utils.rng.as_rng)")]
        return []
    if tail in NP_GLOBAL_RNG:
        return [Finding(path, call.lineno, "DET002",
                        f"np.random.{tail}() uses the hidden global RNG "
                        f"stream; use an explicitly seeded Generator")]
    return []
