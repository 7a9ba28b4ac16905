"""ASCII rendering of trees for terminals and logs.

A dependency-free drawing of an unrooted tree as a rooted ladder diagram
(rooted next to tip 0, the same convention the Newick writer uses), with
optional branch-length proportional column widths and per-edge labels
(e.g. bootstrap support from :func:`repro.phylo.consensus.annotate_support`).
"""

from __future__ import annotations

from repro.errors import TreeError
from repro.phylo.tree import Tree


def ascii_tree(tree: Tree, *, max_width: int = 60,
               edge_labels: dict[tuple[int, int], str] | None = None,
               show_lengths: bool = False) -> str:
    """Render ``tree`` as multi-line ASCII art.

    Parameters
    ----------
    max_width:
        Horizontal budget for the branch columns; depths are scaled by
        patristic distance into this budget.
    edge_labels:
        Optional text per (sorted) edge — printed after the child name or
        at the internal junction.
    show_lengths:
        Append ``:length`` to every taxon label.
    """
    if tree.num_tips < 2:
        raise TreeError("cannot draw a tree with fewer than 2 tips")
    if tree.num_tips > 1000:
        raise TreeError("refusing to ASCII-draw more than 1000 taxa")
    if tree.num_tips == 2:
        ln = tree.branch_length(0, 1)
        return f"{tree.names[0]} ──({ln:.4g})── {tree.names[1]}"
    labels = edge_labels or {}
    (anchor,) = tree.neighbors(0)

    # depth = patristic distance from the anchor node
    max_depth = max(
        (tree.patristic_distance(anchor, t) for t in range(tree.num_tips)),
        default=1.0,
    ) or 1.0
    unit = max(1.0, max_width) / max_depth

    lines: list[str] = []

    def label_of(child: int, parent: int) -> str:
        key = (min(child, parent), max(child, parent))
        extra = f" [{labels[key]}]" if key in labels else ""
        if tree.is_tip(child):
            name = tree.names[child]
            if show_lengths:
                name += f":{tree.branch_length(child, parent):.4g}"
            return name + extra
        return extra.strip()

    def draw(node: int, parent: int, prefix: str, connector: str,
             depth: float) -> None:
        length = tree.branch_length(node, parent)
        cols = max(1, int(round(length * unit)))
        bar = "─" * cols
        if tree.is_tip(node):
            lines.append(f"{prefix}{connector}{bar} {label_of(node, parent)}")
            return
        kids = [x for x in tree.neighbors(node) if x != parent]
        tag = label_of(node, parent)
        lines.append(f"{prefix}{connector}{bar}┐{(' ' + tag) if tag else ''}")
        child_prefix = prefix + (" " if connector == "└" else
                                 "│" if connector == "├" else "") \
            + " " * (len(bar) + (1 if connector else 0))
        for i, kid in enumerate(kids):
            last = i == len(kids) - 1
            draw(kid, node, child_prefix, "└" if last else "├", depth + length)

    # the trifurcation at the anchor: tip 0 plus the anchor's other subtrees
    kids = list(tree.neighbors(anchor))
    lines.append(f"{tree.names[0]} (root)")
    for i, kid in enumerate(k for k in kids if k != 0):
        remaining = [k for k in kids if k != 0]
        last = kid == remaining[-1]
        draw(kid, anchor, "", "└" if last else "├", 0.0)
    return "\n".join(lines)
