"""Independent reference implementations used only by the tests.

Nothing here shares code with the package: acyclicity is decided on the
whole modified digraph, matchings are enumerated by filtering raw subsets,
and Smith normal forms come from sympy.  These are the slow-but-obvious
routes the fast implementations are checked against.
"""

from __future__ import annotations

from itertools import combinations


def modified_digraph_acyclic(H, mask: int) -> bool:
    """Cycle test on the full modified Hasse digraph, all layers at once."""
    n = len(H.face_of_gid)
    succ: list[list[int]] = [[] for _ in range(n)]
    for e in range(H.edge_count):
        lo, up = H.lower[e], H.upper[e]
        if (mask >> e) & 1:
            succ[lo].append(up)
        else:
            succ[up].append(lo)
    color = [0] * n  # 0 white, 1 grey, 2 black
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:
                    return False
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return True


def pairwise_disjoint(H, edges: tuple[int, ...]) -> bool:
    seen = set()
    for e in edges:
        lo, up = H.edge_faces(e)
        if lo in seen or up in seen:
            return False
        seen.add(lo)
        seen.add(up)
    return True


def brute_force_counts(H, mode: str) -> list[int]:
    """Counts of matchings by cardinality from raw subset filtering.

    Exponential in the edge count; callers keep it under ~18 edges.
    """
    assert H.edge_count <= 18, "brute force oracle limited to small diagrams"
    counts = [0] * (H.edge_count + 1)
    ids = range(H.edge_count)
    for k in range(1, H.edge_count + 1):
        for edges in combinations(ids, k):
            if not pairwise_disjoint(H, edges):
                continue
            mask = 0
            for e in edges:
                mask |= 1 << e
            if mode == "acyclic" and not modified_digraph_acyclic(H, mask):
                continue
            counts[k] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts[1:]


def all_matchings(H, mode: str) -> list[int]:
    """Every non-empty matching as an edge mask, by plain recursion over
    face-disjoint edge sets; mode "acyclic" keeps those whose modified
    digraph is acyclic."""
    out: list[int] = []

    def rec(start: int, mask: int, used: frozenset) -> None:
        for e in range(start, H.edge_count):
            lo, up = H.lower[e], H.upper[e]
            if lo in used or up in used:
                continue
            out.append(mask | (1 << e))
            rec(e + 1, mask | (1 << e), used | {lo, up})

    rec(0, 0, frozenset())
    if mode == "acyclic":
        out = [m for m in out if modified_digraph_acyclic(H, m)]
    return out


def counts_by_cardinality(masks) -> list[int]:
    """Dense f-vector: entry k-1 counts the masks with k bits."""
    sizes = [bin(m).count("1") for m in masks]
    return [sizes.count(k) for k in range(1, max(sizes, default=0) + 1)]


def snf_divisors_sympy(dense: list[list[int]]) -> tuple[int, ...]:
    """Elementary divisor chain of an integer matrix via sympy."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    if not dense or not dense[0]:
        return ()
    s = smith_normal_form(Matrix(dense), domain=ZZ)
    out = []
    for i in range(min(s.rows, s.cols)):
        v = int(s[i, i])
        if v:
            out.append(abs(v))
    return tuple(sorted(out))
