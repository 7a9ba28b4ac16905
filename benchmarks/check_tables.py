"""Check that the committed benchmark tables are what the code writes.

Run from the repository root after ``pytest benchmarks/`` has rewritten
``benchmarks/out/``::

    python benchmarks/check_tables.py

Each table is compared with its committed version (``git show
HEAD:benchmarks/out/<name>``), line by line and token by token (tokens are
split on white space and ``|``). Labels must be equal and so must every
*count* — a token that is an integer. Tokens with a decimal point or a
``%`` (timings, rates, ratios) are not compared, nor are the integer
columns listed in :data:`VOLATILE`, which a thread schedule may move, nor
any token of a table of timings (:data:`TIMINGS`). A table with a
different number of lines or of tokens on a line differs. Exit status 1
lists every difference.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

OUT = Path("benchmarks") / "out"

#: table -> token positions (counted from 0 on every line) holding counts
#: that depend on how background threads interleave: what a threaded
#: prefetcher loaded ahead of demand.
VOLATILE: dict[str, frozenset[int]] = {
    "ablation_prefetch.txt": frozenset({3}),
    "async_io_slow_disk.txt": frozenset({5}),
}

#: Tables whose numbers are all timings, some printed as integers (ns),
#: and whose header names the environment's BLAS thread setting: only
#: their number of lines is compared.
TIMINGS = frozenset({"kernel_throughput.txt"})

_INT = re.compile(r"[+-]?\d+")


def _tokens(line: str) -> list[str]:
    return line.replace("|", " ").split()


def differences(name: str, committed: str, fresh: str) -> list[str]:
    """Where table ``name``'s fresh text breaks its committed counts."""
    old, new = committed.splitlines(), fresh.splitlines()
    if len(old) != len(new):
        return [f"{name}: {len(old)} lines committed, {len(new)} written"]
    if name in TIMINGS:
        return []
    volatile = VOLATILE.get(name, frozenset())
    found = []
    for number, (was, now) in enumerate(zip(old, new), start=1):
        a, b = _tokens(was), _tokens(now)
        if len(a) != len(b):
            found.append(f"{name}:{number}: {was!r} -> {now!r}")
            continue
        for position, (x, y) in enumerate(zip(a, b)):
            if x == y or position in volatile:
                continue
            count = _INT.fullmatch(x) or _INT.fullmatch(y)
            decimal = any(c in x + y for c in ".%")
            if count or not decimal:
                found.append(f"{name}:{number}: {x!r} -> {y!r} in {now!r}")
    return found


def main() -> int:
    found = []
    for path in sorted(OUT.glob("*.txt")):
        try:
            committed = subprocess.run(
                ["git", "show", f"HEAD:{path.as_posix()}"], check=True,
                capture_output=True, text=True).stdout
        except subprocess.CalledProcessError:
            found.append(f"{path.name}: not committed")
            continue
        found += differences(path.name, committed,
                             path.read_text(encoding="utf-8"))
    for line in found:
        print(line)
    print(f"{len(found)} difference(s) in the count columns of "
          f"{len(list(OUT.glob('*.txt')))} tables")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
