from itertools import combinations
from math import comb

import pytest

from convexcount.oracle import (
    SPANNING_KINDS,
    connected_visibility_histograms,
    count_spanning_structures,
    dissection_degree_histograms,
    isolation_histograms,
    partition_isolation_histograms,
    spanning_counts,
    visibility_histograms,
)
from reference_oracle import (
    NonCrossingPartition,
    PlaneGraph,
    crossing,
    enumerate_connected,
    enumerate_dissections,
    enumerate_noncrossing_graphs,
    enumerate_partitions,
    isolation_degree,
    reference_connected_visibility_histogram,
    reference_isolation_histogram,
    reference_visibility_histogram,
    visibility_degree,
    _chord_tables,
    _find,
)
from convexcount.production import GraphClassSpec, connected_totals, count_sequence


def test_crossing_predicate():
    assert crossing((1, 3), (2, 4))
    assert not crossing((1, 2), (3, 4))
    assert not crossing((1, 3), (3, 5))
    assert not crossing((1, 4), (2, 3))


def test_plane_graph_validation():
    PlaneGraph(4, frozenset({(1, 3), (1, 2)}))
    with pytest.raises(ValueError):
        PlaneGraph(4, frozenset({(1, 3), (2, 4)}))
    with pytest.raises(ValueError):
        PlaneGraph(3, frozenset({(1, 4)}))


def test_graph_counts():
    assert sum(1 for _ in enumerate_noncrossing_graphs(2)) == 2
    assert sum(1 for _ in enumerate_noncrossing_graphs(4)) == 48
    assert sum(1 for _ in enumerate_noncrossing_graphs(5)) == 352


def test_graph_enumeration_duplicate_free():
    # and equal to the filter of every chord subset by `crossing`
    for n in range(1, 7):
        seen = set()
        for g in enumerate_noncrossing_graphs(n):
            assert g.edges not in seen
            seen.add(g.edges)
        chords = list(combinations(range(1, n + 1), 2))
        assert seen == {
            frozenset(sub)
            for size in range(len(chords) + 1)
            for sub in combinations(chords, size)
            if not any(crossing(e, f) for e, f in combinations(sub, 2))
        }


def test_connected_counts():
    assert sum(1 for _ in enumerate_connected(2)) == 1
    assert sum(1 for _ in enumerate_connected(3)) == 4
    assert sum(1 for _ in enumerate_connected(4)) == 23


def test_visibility_degree():
    assert visibility_degree(PlaneGraph(5, frozenset())) == 3
    assert visibility_degree(PlaneGraph(5, frozenset({(1, 5)}))) == 0
    assert visibility_degree(PlaneGraph(6, frozenset({(2, 5)}))) == 2
    with pytest.raises(ValueError):
        visibility_degree(PlaneGraph(1, frozenset()))


def test_isolation_degree_graphs():
    assert isolation_degree(PlaneGraph(3, frozenset())) == 3
    assert isolation_degree(PlaneGraph(3, frozenset({(1, 3)}))) == 0
    assert isolation_degree(PlaneGraph(3, frozenset({(1, 2)}))) == 1
    # the root vertex itself counts when isolated
    g = PlaneGraph(4, frozenset({(1, 2)}))
    assert isolation_degree(g) == 2


def test_isolation_degree_partitions():
    p = NonCrossingPartition(3, ((1, 3), (2,)))
    assert isolation_degree(p) == 0
    q = NonCrossingPartition(3, ((1,), (2,), (3,)))
    assert isolation_degree(q) == 3


def test_partition_validation():
    with pytest.raises(ValueError):
        NonCrossingPartition(4, ((1, 3), (2, 4)))
    with pytest.raises(ValueError):
        NonCrossingPartition(3, ((1, 2),))
    with pytest.raises(ValueError):
        NonCrossingPartition(3, ((1, 2), (2, 3)))


def test_partition_counts_catalan():
    catalan = [1, 2, 5, 14, 42, 132, 429]
    for n, c in enumerate(catalan, start=1):
        assert sum(1 for _ in enumerate_partitions(n)) == c


def test_partition_histogram_flag_selection():
    # counting the isolated root reproduces the production matrix vectors
    hists = partition_isolation_histograms(6)
    assert list(hists) == list(range(1, 7))
    for n in range(1, 7):
        expected = count_sequence(GraphClassSpec("partition"), n)[-1].entries
        assert tuple(hists[n]) == expected[: n + 1]


def test_graph_recursions_match_subset_references():
    # every level of one fill per recursion
    iso, vis, conn = isolation_histograms(8), visibility_histograms(8), connected_visibility_histograms(8)
    assert list(iso) == list(range(1, 9)) and list(vis) == list(conn) == list(range(2, 9))
    for n in range(1, 9):
        assert iso[n] == reference_isolation_histogram(n), n
        if n >= 2:
            assert vis[n] == reference_visibility_histogram(n), n
            assert conn[n] == reference_connected_visibility_histogram(n), n


def test_graph_histograms_match_matrix_vectors():
    # every level from one count_sequence call and one fill per class; a
    # histogram is the vector's prefix, and the tail past it is zero
    classes = (
        (visibility_histograms, GraphClassSpec("geometric")),
        (connected_visibility_histograms, GraphClassSpec("connected")),
        (isolation_histograms, GraphClassSpec("relation", connected_totals(62))),
    )
    for histograms, spec in classes:
        hists, levels = histograms(60), count_sequence(spec, 60)
        assert list(hists) == [level.level for level in levels], spec.name
        for level in levels:
            hist = tuple(hists[level.level])
            assert hist + (0,) * (len(level.entries) - len(hist)) == level.entries, (spec.name, level.level)


def test_dissections():
    assert sum(1 for _ in enumerate_dissections(4, 1)) == 1
    assert sum(1 for _ in enumerate_dissections(4, 2)) == 3
    assert dissection_degree_histograms(3, 3) == {1: [1], 2: [1, 1], 3: [2, 2, 1]}
    d = next(enumerate_dissections(3, 1))
    assert d.n == 3
    assert d.edges() == frozenset({(1, 2), (2, 3), (1, 3)})
    assert d.root_degree() == 0


def test_root_degree_matches_edge_set_count():
    # every dissection with at most 14 vertices
    for k in (3, 4, 5):
        for r in range(1, (14 - 2) // (k - 2) + 1):
            for d in enumerate_dissections(k, r):
                root = d.n
                assert d.root_degree() == sum(1 for e in d.edges() if root in e) - 2


def test_dissection_faces_are_kgons():
    for k, r in ((3, 4), (4, 3), (5, 2)):
        for d in enumerate_dissections(k, r):
            assert len(d.faces) == r
            assert all(len(face) == k for face in d.faces)


def test_spanning_counts():
    assert count_spanning_structures(2, "tree") == 1
    assert count_spanning_structures(3, "path") == 3
    assert count_spanning_structures(4, "tree") == 12
    assert count_spanning_structures(4, "forest") == 33
    assert spanning_counts(6, "tree") == (1, 3, 12, 55, 273)
    with pytest.raises(ValueError):
        count_spanning_structures(4, "cycle")


def test_spanning_counts_match_literal_filter():
    for n in range(2, 7):
        trees = paths = forests = path_forests = 0
        for g in enumerate_noncrossing_graphs(n):
            acyclic = g.is_acyclic()
            spanning = g.is_connected() and len(g.edges) == n - 1
            max_deg = max(g.degrees().values(), default=0)
            trees += spanning
            paths += spanning and max_deg <= 2
            forests += acyclic
            path_forests += acyclic and max_deg <= 2
        assert count_spanning_structures(n, "tree") == trees
        assert count_spanning_structures(n, "path") == paths
        assert count_spanning_structures(n, "forest") == forests
        assert count_spanning_structures(n, "path-forest") == path_forests


def reference_count_spanning_structures(n: int, kind: str) -> int:
    """The pruned include-or-exclude search over every chord, kept as the
    reference for the interval recursion: subtrees that already contain a
    cycle (or a degree-3 vertex, for the path kinds) are skipped, since no
    superset can recover."""
    chords, cross, _, _ = _chord_tables(n)
    m = len(chords)
    need_connected = kind in ("tree", "path")
    cap_degree = kind in ("path", "path-forest")

    parent = list(range(n + 1))
    size = [1] * (n + 1)
    deg = [0] * (n + 1)
    state = {"comps": n, "count": 0}

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
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return
        # union by size, undone on the way back (_find does no path
        # compression, so resetting the attached root undoes the union)
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


def test_spanning_recursion_matches_reference_search():
    for kind in SPANNING_KINDS:
        want = tuple(reference_count_spanning_structures(n, kind) for n in range(2, 9))
        assert spanning_counts(8, kind) == want, kind
        assert count_spanning_structures(1, kind) == reference_count_spanning_structures(1, kind) == 1
    # the reference search at n = 9
    pins = {"tree": 43263, "path": 576, "forest": 305629, "path-forest": 58237}
    for kind, count in pins.items():
        assert count_spanning_structures(9, kind) == count


def test_spanning_closed_forms():
    trees, paths = spanning_counts(60, "tree"), spanning_counts(60, "path")
    for n in range(2, 61):
        assert trees[n - 2] == comb(3 * n - 3, n - 1) // (2 * n - 1), n
        assert paths[n - 2] == n * 2**n // 8, n  # n 2^(n-3)


def test_guards_soft():
    # the recursions have no size limit
    assert count_spanning_structures(9, "path") == 576
    assert sum(partition_isolation_histograms(13)[13]) == 742900
    assert sum(dissection_degree_histograms(3, 13)[13]) == 742900


def reference_partition_isolation_histogram(n: int) -> list[int]:
    """The isolation degree of every enumerated partition, kept as the
    reference for the first-block recursion."""
    hist = [0] * (n + 1)
    for p in enumerate_partitions(n):
        hist[isolation_degree(p)] += 1
    return hist


def reference_dissection_degree_histogram(k: int, r: int) -> list[int]:
    """The root degree of every enumerated dissection, kept as the reference
    for the base-face recursion."""
    hist = [0] * r
    for d in enumerate_dissections(k, r):
        hist[d.root_degree()] += 1
    return hist


def test_partition_recursion_matches_reference():
    hists = partition_isolation_histograms(10)
    assert list(hists) == list(range(1, 11))
    for n in range(1, 11):
        assert hists[n] == reference_partition_isolation_histogram(n), n


def test_dissection_recursion_matches_reference():
    for k in range(3, 7):
        top = (12 - 2) // (k - 2)
        hists = dissection_degree_histograms(k, top)
        assert list(hists) == list(range(1, top + 1)), k
        for r in range(1, top + 1):
            assert hists[r] == reference_dissection_degree_histogram(k, r), (k, r)


def test_histogram_totals_past_the_guards():
    hists = partition_isolation_histograms(60)
    for n in range(1, 61):
        assert sum(hists[n]) == comb(2 * n, n) // (n + 1), n
    for k in (3, 4, 5):
        top = (62 - 2) // (k - 2)
        hists = dissection_degree_histograms(k, top)
        assert list(hists) == list(range(1, top + 1)), k
        for r, hist in hists.items():
            assert sum(hist) == comb((k - 1) * r, r) // ((k - 2) * r + 1), (k, r)


def test_histogram_input_checks():
    for histograms, n in (
        (partition_isolation_histograms, 0),
        (isolation_histograms, 0),
        (visibility_histograms, 1),
        (connected_visibility_histograms, 1),
    ):
        with pytest.raises(ValueError):
            histograms(n)
    for k, r in ((2, 3), (3, 0)):
        with pytest.raises(ValueError):
            dissection_degree_histograms(k, r)


def _reachable_all(g: PlaneGraph) -> bool:
    # connectivity by graph search, independent of the oracle's union-find
    adj = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, todo = {1}, [1]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == g.n


def test_graph_histograms_equal_classified_stream():
    fills = visibility_histograms(7), connected_visibility_histograms(7), isolation_histograms(7)
    for n in range(2, 8):
        vis, conn = [0] * (n - 1), [0] * (n - 1)
        iso = [0] * (n + 1)
        for g in enumerate_noncrossing_graphs(n):
            assert g.is_connected() == _reachable_all(g)
            vis[visibility_degree(g)] += 1
            conn[visibility_degree(g)] += g.is_connected()
            iso[isolation_degree(g)] += 1
        assert [hists[n] for hists in fills] == [vis, conn, iso], n


def _set_partitions(items):
    # every set partition, blocks in order of their least element
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield ((first,),) + part
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1 :]


def test_partitions_equal_filtered_set_partitions():
    for n in range(1, 8):
        want = set()
        for blocks in _set_partitions(tuple(range(1, n + 1))):
            try:
                NonCrossingPartition(n, tuple(sorted(blocks)))
            except ValueError:
                continue
            want.add(tuple(sorted(blocks)))
        got = [p.blocks for p in enumerate_partitions(n)]
        assert len(got) == len(set(got))
        assert set(got) == want
