"""Ground truth that reads no production matrix: polynomial recursions that
count the objects of each class by root degree, and the spanning structures,
without building one.

Everything here is purely combinatorial.  Vertices sit at positions 1..n in
counter-clockwise convex position, so two chords (a, b) and (c, d) cross
exactly when a < c < b < d, and a vertex j is hidden from an external point
inserted between p_n and p_1 exactly when some edge (a, b) spans it,
a < j < b.  No coordinates, no floating point.

Every count splits its objects into independent gaps: partitions at the
block of the first element, k-angulations at the face on the base edge,
plane graphs at the vertices no chord spans, and the spanning structures at
the largest neighbour of the first point.  The tests compare each recursion
with an exhaustive enumeration at small n.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from math import prod
from typing import Literal, Sequence

SpanningKind = Literal["tree", "path", "forest", "path-forest"]
SPANNING_KINDS = ("tree", "path", "forest", "path-forest")


# ---------------------------------------------------------------------------
# Non-crossing partitions and polygon dissections into k-gons.

def partition_isolation_histogram(n: int) -> list[int]:
    """Histogram of isolation degree over non-crossing partitions, counted in
    O(n³) without building one.  ``hist[m]`` covers a run of m elements that
    no block spans.  Split it at p, the largest element in the block of its
    first element: a visible singleton when p = 1, else a block hiding 2..p-1.
    ``span[p]`` counts the partitions of [p] with 1 and p in one block, split
    at q, the block's second-largest element."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hist, total, span = [[1]], [1], [0, 1]  # span[1]: the block {1}
    for m in range(1, n + 1):
        h = [0] + hist[m - 1]
        for p in range(2, m + 1):
            for d, x in enumerate(hist[m - p]):
                h[d] += span[p] * x
        hist.append(h)
        total.append(sum(h))
        span.append(sum(span[q] * total[m - q] for q in range(1, m + 1)))
    return hist[n]


def _dissection_pieces(k: int, vs: Sequence[int]):
    """Each face on the base edge (vs[0], vs[-1]): k-2 interior vertices, with
    the gaps to fill, each again holding a whole number of k-gons."""
    # corner i sits at i + (k-2) t_i, t non-decreasing: every gap between
    # corners then spans a multiple of k-2 vertices
    step, last = k - 2, len(vs) - 1
    for ts in combinations_with_replacement(range((len(vs) - k) // step + 1), step):
        idx = (0,) + tuple(i + step * t for i, t in enumerate(ts, 1)) + (last,)
        gaps = [vs[a : b + 1] for a, b in zip(idx, idx[1:]) if b - a >= 2]
        yield tuple(vs[i] for i in idx), gaps


def dissection_degree_histogram(k: int, r: int) -> list[int]:
    """Histogram of root degree (incident edges at p_n minus 2) over all
    dissections into r k-gons, counted without building one.  ``hist[m]``
    covers an m-gon rooted at its last vertex.  Each face on the base edge
    adds the product of its gaps' counts, at root degree 0 when the gap at
    the root is one edge, and else at one more than that gap's own."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    n = (k - 2) * r + 2
    hist, total = {}, {}
    for m in range(k, n + 1, k - 2):
        h = [0] * ((m - 2) // (k - 2))
        for _, gaps in _dissection_pieces(k, range(m)):
            root = [0] + hist[len(gaps.pop())] if gaps and gaps[-1][-1] == m - 1 else [1]
            ways = prod(total[len(gap)] for gap in gaps)
            for d, x in enumerate(root):
                h[d] += ways * x
        hist[m], total[m] = h, sum(h)
    return hist[n]


# ---------------------------------------------------------------------------
# Plane graphs, split at the vertices that no chord spans.  Between two
# consecutive unspanned vertices u < u' with u' - u >= 2 the chord (u, u') is
# present, since two maximal chords sharing an end would leave that end
# unspanned, and every chord at a vertex between them lies inside [u, u'].
# So a graph is a sequence of independent gaps, each either a short gap
# (u' = u + 1) with no edge, or a graph on [u, u'] that holds the chord
# (u, u').  This is the decomposition of Flajolet and Noy, "Analytic
# combinatorics of non-crossing configurations" (Discrete Math. 1999).

def _gap_tables(n: int) -> tuple[list[int], list[int]]:
    """(H, Cp), indexed by k = 2..n: the graphs on k consecutive points that
    hold the chord (1, k), and the connected ones among them, in O(n²).

    The chord (1, k) crosses nothing, so H[k] also counts the graphs without
    it, and A[k] = 2·H[k] counts every graph.  Split a graph without it at
    c, the largest neighbour of 1: the part on 1..c holds (1, c), the part
    on c..k is any graph, and the two share only c; with no neighbour, 1 is
    isolated and the rest is 2..k.  C[k] counts the connected graphs, J[k]
    the connected ones without (1, k), and Ap[k] those without (1, k) whose
    two components hold 1 and k, so that Cp[k] = J[k] + Ap[k]."""
    A, C, H, J, Ap, Cp = [0, 1], [0, 1], [0, 0], [0, 0], [0, 0], [0, 0]
    for k in range(2, n + 1):
        H.append(A[k - 1] + sum(H[c] * A[k - c + 1] for c in range(2, k)))
        J.append(sum(Cp[c] * C[k - c + 1] for c in range(2, k)))
        Ap.append(C[k - 1] + sum(Cp[c] * Ap[k - c + 1] for c in range(2, k)))
        A.append(2 * H[k])
        Cp.append(J[k] + Ap[k])
        C.append(J[k] + Cp[k])
    return H, Cp


def _gap_histogram(n: int, weight: list[int]) -> list[int]:
    """``hist[d]``: the sum over the splits of 1..n into d + 1 gaps of the
    product of ``weight[length + 1]`` over the gaps."""
    rows = [[1]]  # rows[s][m]: the splits of 1..s+1 into m gaps
    for s in range(1, n):
        row = [0] * (s + 1)
        for length in range(1, s + 1):
            for m, x in enumerate(rows[s - length]):
                row[m + 1] += weight[length + 1] * x
        rows.append(row)
    return rows[n - 1][1:]


def visibility_histogram(n: int) -> list[int]:
    """Histogram of visibility degree over all non-crossing graphs: a graph
    with d + 1 gaps has d + 2 visible vertices."""
    if n < 2:
        raise ValueError("n must be >= 2")
    H, _ = _gap_tables(n)
    H[2] += 1  # a short gap may also be empty
    return _gap_histogram(n, H)


def connected_visibility_histogram(n: int) -> list[int]:
    """Histogram of visibility degree over connected non-crossing graphs.  A
    graph is connected exactly when every gap's part is, so no gap is empty."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _gap_histogram(n, _gap_tables(n)[1])


def isolation_histogram(n: int) -> list[int]:
    """Histogram of isolation degree over all non-crossing graphs.  An
    unspanned vertex is isolated exactly when every gap next to it is short
    and empty.  ``empty[s]`` and ``other[s]`` count the graphs on 1..s+1 by
    their isolated vertices among 1..s, as the last gap is short and empty or
    not.  Vertex 1 starts as if it followed an empty gap."""
    if n < 1:
        raise ValueError("n must be >= 1")
    H, _ = _gap_tables(n)
    empty, other = [[1] + [0] * n], [[0] * (n + 1)]

    def closed(s: int) -> list[int]:
        # vertex s + 1 counted too: isolated when the gap before it is empty
        return [x + y for x, y in zip([0] + empty[s][:-1], other[s])]

    for s in range(1, n):
        empty.append(closed(s - 1))
        row = [0] * (n + 1)
        for length in range(1, s + 1):
            for d, (x, y) in enumerate(zip(empty[s - length], other[s - length])):
                row[d] += H[length + 1] * (x + y)
        other.append(row)
    return closed(n - 1)


# ---------------------------------------------------------------------------
# Spanning structures.

def _spanning_totals(n_max: int, kind: SpanningKind) -> list[int]:
    """Counts of the spanning structures on 1..n_max convex points, from one
    O(n_max³) interval recursion that reads no production matrix.

    ``tables[k]`` counts the structures on k consecutive points by (end
    points joined, degree of the first, degree of the last).  Let c be the
    largest neighbour of the first point.  The part on 1..c holds chord
    (1, c), and without it keeps 1 and c apart.  The part on c..k is
    independent of it: no chord crosses (1, c), and the parts share only c.
    With no neighbour the first point is isolated and the rest is 2..k.
    The tree kinds keep only trees (joined) and two-tree forests (apart).
    Degrees are tracked only for the path kinds, whose cap is 2.
    """
    if kind not in SPANNING_KINDS:
        raise ValueError(f"kind must be one of {SPANNING_KINDS}")
    forest = kind in ("forest", "path-forest")
    step = 1 if kind in ("path", "path-forest") else 0
    tables = [{}, {(1, 0, 0): 1}]  # by length; one point is joined to itself
    for k in range(2, n_max + 1):
        table = Counter()
        for (joined, _, last), x in tables[k - 1].items():
            if joined or forest:
                table[0, 0, last] += x
        tables.append(table)
        # at c = k the part on 1..c is this table; only its apart entries are
        # read, and every c < k has added its last one
        for c in range(2, k + 1):
            for (joined, first, mid), x in list(tables[c].items()):
                first, mid = first + step, mid + step
                if joined or first > 2:
                    continue
                for (rest_joined, rest_first, last), y in tables[k - c + 1].items():
                    if mid + rest_first <= 2:
                        table[rest_joined, first, last if c < k else mid] += x * y
    return [sum(x for (joined, _, _), x in t.items() if joined or forest) for t in tables[1:]]


def count_spanning_structures(n: int, kind: SpanningKind) -> int:
    """Count spanning structures among the non-crossing graphs on n points.

    tree: connected with n-1 edges; path: tree with maximum degree 2;
    forest: acyclic; path-forest: acyclic with maximum degree 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _spanning_totals(n, kind)[-1]


def spanning_counts(n_max: int, kind: SpanningKind) -> tuple[int, ...]:
    """Counts for 2..n_max vertices, as weights for the relation matrix."""
    return tuple(_spanning_totals(n_max, kind)[1:])
