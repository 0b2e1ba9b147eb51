"""Brute-force ground truth: exhaustive enumeration of the graph classes at
small n, with the visibility- and isolation-degree classifiers.

Everything here is purely combinatorial.  Vertices sit at positions 1..n in
counter-clockwise convex position, so two chords (a, b) and (c, d) cross
exactly when a < c < b < d, and a vertex j is hidden from an external point
inserted between p_n and p_1 exactly when some edge (a, b) spans it,
a < j < b.  No coordinates, no floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Literal, Sequence

MAX_GRAPH_VERTICES = 9
MAX_PARTITION_SIZE = 12
MAX_DISSECTION_VERTICES = 14
MAX_SPANNING_VERTICES = 8

SpanningKind = Literal["tree", "path", "forest", "path-forest"]
SPANNING_KINDS = ("tree", "path", "forest", "path-forest")


class EnumerationLimitError(ValueError):
    """Raised when an enumeration exceeds its soft size guard."""


def _check_guard(value: int, limit: int, what: str, force: bool) -> None:
    if value > limit and not force:
        raise EnumerationLimitError(
            f"{what} guard is {limit} (got {value}); pass force=True to override"
        )


def crossing(e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Whether two chords of the convex polygon cross in their interiors."""
    (a, b), (c, d) = sorted((tuple(sorted(e)), tuple(sorted(f))))
    return a < c < b < d


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
        parent = list(range(self.n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = self.n
        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        return comps

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
    import bisect

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


def _walk_histogram(n: int, leaf):
    """Drive ``leaf(hist, chosen, spanned, occupied)`` over every non-crossing
    edge subset and return the histogram it fills."""
    chords, cross, span, ends = _chord_tables(n)
    m = len(chords)
    hist = [0] * (n + 2)
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, forbidden, chosen, spanned, occupied = stack.pop()
        if i == m:
            leaf(hist, chosen, spanned, occupied)
            continue
        stack.append((i + 1, forbidden, chosen, spanned, occupied))
        if not (forbidden >> i) & 1:
            stack.append(
                (
                    i + 1,
                    forbidden | cross[i],
                    chosen | (1 << i),
                    spanned | span[i],
                    occupied | ends[i],
                )
            )
    return hist


def enumerate_noncrossing_graphs(n: int, force: bool = False) -> Iterator[PlaneGraph]:
    """Yield every plane (non-crossing) graph on n convex points exactly once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_guard(n, MAX_GRAPH_VERTICES, "graph enumeration", force)
    chords, cross, _, _ = _chord_tables(n)
    m = len(chords)

    def rec(i: int, forbidden: int, chosen: tuple[tuple[int, int], ...]):
        if i == m:
            yield PlaneGraph(n, frozenset(chosen))
            return
        yield from rec(i + 1, forbidden, chosen)
        if not (forbidden >> i) & 1:
            yield from rec(i + 1, forbidden | cross[i], chosen + (chords[i],))

    yield from rec(0, 0, ())


def enumerate_connected(n: int, force: bool = False) -> Iterator[PlaneGraph]:
    """Connectivity-filtered stream of enumerate_noncrossing_graphs."""
    for g in enumerate_noncrossing_graphs(n, force=force):
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


def isolation_degree(obj: PlaneGraph | NonCrossingPartition, include_root: bool = True) -> int:
    """Number of isolated visible vertices seen from the inserted point.

    Isolated means degree 0 for graphs, a singleton block for partitions.
    ``include_root`` counts the root vertex p_n itself when it is isolated;
    that convention is the one reproducing the partition production matrix,
    and is the default.
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
    if not include_root:
        isolated.discard(obj.n)
    return len(isolated)


# ---------------------------------------------------------------------------
# Degree histograms (index d = number of objects with root degree d).

def visibility_histogram(n: int, force: bool = False) -> list[int]:
    """Histogram of visibility degree over all non-crossing graphs."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_guard(n, MAX_GRAPH_VERTICES, "graph enumeration", force)

    def leaf(hist, chosen, spanned, occupied):
        hist[n - spanned.bit_count() - 2] += 1

    return _walk_histogram(n, leaf)[: n - 1]


def isolation_histogram(n: int, include_root: bool = True, force: bool = False) -> list[int]:
    """Histogram of isolation degree over all non-crossing graphs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_guard(n, MAX_GRAPH_VERTICES, "graph enumeration", force)
    full = (1 << n) - 1
    root_bit = 1 << (n - 1)

    def leaf(hist, chosen, spanned, occupied):
        iso = full & ~(spanned | occupied)
        if not include_root:
            iso &= ~root_bit
        hist[iso.bit_count()] += 1

    return _walk_histogram(n, leaf)[: n + 1]


def connected_visibility_histogram(n: int, force: bool = False) -> list[int]:
    """Histogram of visibility degree over connected non-crossing graphs."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_guard(n, MAX_GRAPH_VERTICES, "graph enumeration", force)
    chords, _, _, _ = _chord_tables(n)

    def leaf(hist, chosen, spanned, occupied):
        if occupied.bit_count() != n:
            return
        parent = list(range(n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = n
        mask = chosen
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            a, b = chords[i]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        if comps == 1:
            hist[n - spanned.bit_count() - 2] += 1

    return _walk_histogram(n, leaf)[: n - 1]


def enumerate_partitions(n: int, force: bool = False) -> Iterator[NonCrossingPartition]:
    """Yield every non-crossing partition of {1..n} exactly once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_guard(n, MAX_PARTITION_SIZE, "partition enumeration", force)

    def rec(seq: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not seq:
            yield ()
            return
        first, rest = seq[0], seq[1:]
        for size in range(len(rest) + 1):
            for pos in combinations(range(len(rest)), size):
                block = (first,) + tuple(rest[p] for p in pos)
                gaps = []
                prev = -1
                for p in pos:
                    gaps.append(rest[prev + 1 : p])
                    prev = p
                gaps.append(rest[prev + 1 :])
                for parts in product(*(list(rec(g)) for g in gaps)):
                    blocks: tuple[tuple[int, ...], ...] = (block,)
                    for part in parts:
                        blocks += part
                    yield blocks

    for blocks in rec(tuple(range(1, n + 1))):
        yield NonCrossingPartition(n, tuple(sorted(blocks)))


def partition_isolation_histogram(
    n: int, include_root: bool = True, force: bool = False
) -> list[int]:
    """Histogram of isolation degree over non-crossing partitions."""
    hist = [0] * (n + 1)
    for p in enumerate_partitions(n, force=force):
        hist[isolation_degree(p, include_root=include_root)] += 1
    return hist


# ---------------------------------------------------------------------------
# Polygon dissections into k-gons.

def enumerate_dissections(k: int, r: int, force: bool = False) -> Iterator[Dissection]:
    """Yield every dissection of the convex ((k-2)r+2)-gon into r k-gons."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    n = (k - 2) * r + 2
    _check_guard(n, MAX_DISSECTION_VERTICES, "dissection enumeration", force)

    def rec(vs: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(vs) == 2:
            yield ()
            return
        last = len(vs) - 1
        # the face containing the base edge (vs[0], vs[-1]) uses k-2 interior
        # vertices; each gap must again hold a whole number of k-gons
        for combo in combinations(range(1, last), k - 2):
            idx = (0,) + combo + (last,)
            if any((idx[t + 1] - idx[t] - 1) % (k - 2) for t in range(k - 1)):
                continue
            subpolys = [
                vs[idx[t] : idx[t + 1] + 1]
                for t in range(k - 1)
                if idx[t + 1] - idx[t] >= 2
            ]
            face = tuple(vs[i] for i in idx)
            for parts in product(*(list(rec(sp)) for sp in subpolys)):
                faces = (face,)
                for part in parts:
                    faces += part
                yield faces

    for faces in rec(tuple(range(1, n + 1))):
        yield Dissection(k, r, faces)


def dissection_degree_histogram(k: int, r: int, force: bool = False) -> list[int]:
    """Histogram of root degree (incident edges at p_n minus 2) over all
    dissections into r k-gons."""
    hist = [0] * r
    for d in enumerate_dissections(k, r, force=force):
        hist[d.root_degree()] += 1
    return hist


# ---------------------------------------------------------------------------
# Spanning structures.

def count_spanning_structures(n: int, kind: SpanningKind, force: bool = False) -> int:
    """Count spanning structures among the non-crossing graphs on n points.

    tree: connected with n-1 edges; path: tree with maximum degree 2;
    forest: acyclic; path-forest: acyclic with maximum degree 2.  Equivalent
    to filtering the full graph stream, with subtrees that already contain a
    cycle (or a degree-3 vertex, for the path kinds) skipped since no
    superset can recover.
    """
    if kind not in SPANNING_KINDS:
        raise ValueError(f"kind must be one of {SPANNING_KINDS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_guard(n, MAX_SPANNING_VERTICES, "spanning enumeration", force)
    chords, cross, _, _ = _chord_tables(n)
    m = len(chords)
    need_connected = kind in ("tree", "path")
    cap_degree = kind in ("path", "path-forest")

    parent = list(range(n + 1))
    size = [1] * (n + 1)
    deg = [0] * (n + 1)
    state = {"comps": n, "count": 0}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i: int, forbidden: int) -> None:
        if i == m:
            if not need_connected or state["comps"] == 1:
                state["count"] += 1
            return
        rec(i + 1, forbidden)
        if (forbidden >> i) & 1:
            return
        a, b = chords[i]
        if cap_degree and (deg[a] == 2 or deg[b] == 2):
            return
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if size[ra] > size[rb]:
            ra, rb = rb, ra
        parent[ra] = rb
        size[rb] += size[ra]
        deg[a] += 1
        deg[b] += 1
        state["comps"] -= 1
        rec(i + 1, forbidden | cross[i])
        state["comps"] += 1
        deg[a] -= 1
        deg[b] -= 1
        size[rb] -= size[ra]
        parent[ra] = ra

    rec(0, 0)
    return state["count"]


def spanning_counts(n_max: int, kind: SpanningKind, force: bool = False) -> tuple[int, ...]:
    """Counts for 2..n_max vertices, as weights for the relation matrix."""
    return tuple(count_spanning_structures(n, kind, force=force) for n in range(2, n_max + 1))
