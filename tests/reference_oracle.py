"""Brute-force references for the oracle's recursions: exhaustive enumeration
of plane graphs, non-crossing partitions and k-angulations at small n, with
the visibility- and isolation-degree classifiers.  Tests choose their own
sizes; nothing here is bounded.

Vertices sit at positions 1..n in counter-clockwise convex position, so two
chords (a, b) and (c, d) cross exactly when a < c < b < d, and a vertex j is
hidden from an external point inserted between p_n and p_1 exactly when some
edge (a, b) spans it, a < j < b.

One walker, ``_subsets``, yields every non-crossing chord subset once as
bitmasks; the graph histograms and the graph stream all loop over it.  One
union-find, ``_find``, serves both connectivity tests.  One gap recursion,
``_fillings``, builds non-crossing partitions and k-angulations alike: a root
piece, then independent fillings of the gaps it leaves.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product
from typing import Iterator, Sequence

from convexcount.oracle import _dissection_pieces


def crossing(e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Whether two chords of the convex polygon cross in their interiors."""
    (a, b), (c, d) = sorted((tuple(sorted(e)), tuple(sorted(f))))
    return a < c < b < d


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest ``parent``."""
    while parent[x] != x:
        x = parent[x]
    return x


def _component_count(n: int, edges) -> int:
    """Connected components of the graph on vertices 1..n."""
    parent = list(range(n + 1))
    comps = n
    for a, b in edges:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps


@dataclass(frozen=True)
class PlaneGraph:
    """Graph on vertices 1..n in convex position with non-crossing edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if not (1 <= a < b <= self.n):
                raise ValueError(f"bad edge ({a}, {b}) for n={self.n}")
        for e, f in combinations(sorted(self.edges), 2):
            if crossing(e, f):
                raise ValueError(f"edges {e} and {f} cross")

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in range(1, self.n + 1)}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def component_count(self) -> int:
        return _component_count(self.n, self.edges)

    def is_connected(self) -> bool:
        return self.component_count() == 1

    def is_acyclic(self) -> bool:
        return len(self.edges) + self.component_count() == self.n


@dataclass(frozen=True)
class NonCrossingPartition:
    """Non-crossing partition of {1..n}, blocks sorted by minimum element."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block or list(block) != sorted(block):
                raise ValueError("blocks must be nonempty and sorted")
            if seen.intersection(block):
                raise ValueError("blocks must be disjoint")
            seen.update(block)
        if seen != set(range(1, self.n + 1)):
            raise ValueError("blocks must cover 1..n")
        for b1, b2 in combinations(self.blocks, 2):
            if _blocks_cross(b1, b2):
                raise ValueError(f"blocks {b1} and {b2} cross")


def _blocks_cross(b1: Sequence[int], b2: Sequence[int]) -> bool:
    # b2 crosses b1 iff its elements fall into two different regions cut
    # out by b1 (the gaps between consecutive b1 elements, or the outside).
    regions = set()
    for x in b2:
        pos = bisect.bisect_left(b1, x)
        regions.add(0 if pos in (0, len(b1)) else pos)
        if len(regions) > 1:
            return True
    return False


@dataclass(frozen=True)
class Dissection:
    """Dissection of a convex ((k-2)r+2)-gon into r faces of k sides each."""

    k: int
    r: int
    faces: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return (self.k - 2) * self.r + 2

    def edges(self) -> frozenset[tuple[int, int]]:
        out = set()
        for face in self.faces:
            for i, a in enumerate(face):
                b = face[(i + 1) % len(face)]
                out.add((a, b) if a < b else (b, a))
        return frozenset(out)

    def root_degree(self) -> int:
        """Edges at p_n minus 2, read from the faces around p_n: its
        neighbours are the vertices next to it in those faces."""
        root = self.n
        neighbours = set()
        for face in self.faces:
            if root in face:
                i = face.index(root)
                neighbours.update((face[i - 1], face[(i + 1) % len(face)]))
        return len(neighbours) - 2


# ---------------------------------------------------------------------------
# Plane graph enumeration.

@lru_cache(maxsize=None)
def _chord_tables(n: int):
    chords = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
    cross = [0] * len(chords)
    span = [0] * len(chords)
    ends = [0] * len(chords)
    for i, (a, b) in enumerate(chords):
        for j, (c, d) in enumerate(chords):
            if a < c < b < d or c < a < d < b:
                cross[i] |= 1 << j
        for v in range(a + 1, b):
            span[i] |= 1 << (v - 1)
        ends[i] = (1 << (a - 1)) | (1 << (b - 1))
    return tuple(chords), tuple(cross), tuple(span), tuple(ends)


def _subsets(n: int) -> Iterator[tuple[int, int, int]]:
    """Yield every non-crossing chord subset once, as bitmasks
    (chosen chords, spanned vertices, edge endpoints).  A subset's children
    add one chord past its last chosen chord that crosses none of it."""
    _, cross, span, ends = _chord_tables(n)
    # (chords a child may add, chosen, spanned, occupied)
    stack = [((1 << len(cross)) - 1, 0, 0, 0)]
    while stack:
        free, chosen, spanned, occupied = stack.pop()
        yield chosen, spanned, occupied
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            stack.append((free & ~cross[i], chosen | low, spanned | span[i], occupied | ends[i]))


def _edges(n: int, chosen: int) -> list[tuple[int, int]]:
    """The chords in the bitmask ``chosen``."""
    chords = _chord_tables(n)[0]
    return [chords[i] for i in range(chosen.bit_length()) if (chosen >> i) & 1]


def enumerate_noncrossing_graphs(n: int) -> Iterator[PlaneGraph]:
    """Yield every plane (non-crossing) graph on n convex points exactly once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for chosen, _, _ in _subsets(n):
        yield PlaneGraph(n, frozenset(_edges(n, chosen)))


def enumerate_connected(n: int) -> Iterator[PlaneGraph]:
    """Connectivity-filtered stream of enumerate_noncrossing_graphs."""
    for g in enumerate_noncrossing_graphs(n):
        if g.is_connected():
            yield g


def visibility_degree(g: PlaneGraph) -> int:
    """Number of vertices of g visible from a point inserted between p_n and
    p_1 outside the hull, minus 2.  A vertex j is hidden exactly when some
    edge (a, b) spans it, a < j < b."""
    if g.n < 2:
        raise ValueError("visibility degree needs n >= 2")
    spanned: set[int] = set()
    for a, b in g.edges:
        spanned.update(range(a + 1, b))
    return g.n - len(spanned) - 2


def isolation_degree(obj: PlaneGraph | NonCrossingPartition) -> int:
    """Number of isolated visible vertices seen from the inserted point.

    Isolated means degree 0 for graphs, a singleton block for partitions.
    The root vertex p_n counts when it is isolated: that convention is the
    one reproducing the partition production matrix.
    """
    if isinstance(obj, PlaneGraph):
        deg = obj.degrees()
        spanned: set[int] = set()
        for a, b in obj.edges:
            spanned.update(range(a + 1, b))
        isolated = {v for v, d in deg.items() if d == 0 and v not in spanned}
    elif isinstance(obj, NonCrossingPartition):
        singles = {block[0] for block in obj.blocks if len(block) == 1}
        isolated = {
            j
            for j in singles
            if not any(
                block[0] < j < block[-1] for block in obj.blocks if j not in block
            )
        }
    else:
        raise TypeError(f"cannot classify {type(obj).__name__}")
    return len(isolated)


# ---------------------------------------------------------------------------
# Degree histograms over every chord subset (index d = number of graphs with
# root degree d), the references for the oracle's gap recursions.

def reference_visibility_histogram(n: int) -> list[int]:
    """Histogram of visibility degree over all non-crossing graphs."""
    hist = [0] * (n - 1)
    for _, spanned, _ in _subsets(n):
        hist[n - 2 - spanned.bit_count()] += 1
    return hist


def reference_isolation_histogram(n: int) -> list[int]:
    """Histogram of isolation degree over all non-crossing graphs."""
    visible = (1 << n) - 1
    hist = [0] * (n + 1)
    for _, spanned, occupied in _subsets(n):
        hist[(visible & ~(spanned | occupied)).bit_count()] += 1
    return hist


def reference_connected_visibility_histogram(n: int) -> list[int]:
    """Histogram of visibility degree over connected non-crossing graphs."""
    hist = [0] * (n - 1)
    for chosen, spanned, occupied in _subsets(n):
        # a vertex with no edge leaves the graph disconnected
        if occupied.bit_count() == n and _component_count(n, _edges(n, chosen)) == 1:
            hist[n - 2 - spanned.bit_count()] += 1
    return hist


# ---------------------------------------------------------------------------
# Non-crossing partitions and polygon dissections into k-gons.

def _fillings(vs: tuple[int, ...], pieces) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every filling of ``vs``: a root piece, then an independent filling of
    each gap it leaves.  ``pieces(vs)`` yields each root piece with its
    gaps, and lists no gap that needs no filling."""
    for piece, gaps in pieces(vs):
        for parts in product(*(list(_fillings(gap, pieces)) for gap in gaps)):
            filling = (piece,)
            for part in parts:
                filling += part
            yield filling


def _partition_pieces(vs: tuple[int, ...]):
    # the block of vs[0]; each run of vs between two of its elements, or
    # after its last, is a gap
    first, rest = vs[0], vs[1:]
    for size in range(len(rest) + 1):
        for pos in combinations(range(len(rest)), size):
            cuts = (-1,) + pos + (len(rest),)
            gaps = [rest[a + 1 : b] for a, b in zip(cuts, cuts[1:]) if b - a > 1]
            yield (first,) + tuple(rest[p] for p in pos), gaps


def enumerate_partitions(n: int) -> Iterator[NonCrossingPartition]:
    """Yield every non-crossing partition of {1..n} exactly once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for blocks in _fillings(tuple(range(1, n + 1)), _partition_pieces):
        yield NonCrossingPartition(n, tuple(sorted(blocks)))


def enumerate_dissections(k: int, r: int) -> Iterator[Dissection]:
    """Yield every dissection of the convex ((k-2)r+2)-gon into r k-gons."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    n = (k - 2) * r + 2
    for faces in _fillings(tuple(range(1, n + 1)), partial(_dissection_pieces, k)):
        yield Dissection(k, r, faces)
