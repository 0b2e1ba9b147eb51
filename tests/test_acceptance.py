"""Acceptance suite: every criterion as one test, exact tolerances pinned.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion with its runtime.
"""
import time
from fractions import Fraction

from convexcount import closedform, oracle, spectral
from convexcount.exact import charpoly_determinant, charpoly_recurrence
from convexcount.production import (
    GraphClassSpec,
    build_connected_matrix,
    build_geometric_matrix,
    build_k_angulation_matrix,
    build_partition_matrix,
    build_relation_matrix,
    connected_totals,
    count_sequence,
    k_angulation_total,
)

import reference_oracle

GOLD_CHARPOLYS = {
    "geometric": {
        1: (2, -1),
        2: (-4, -4, 1),
        3: (8, 4, 6, -1),
        4: (-16, 0, 0, -8, 1),
        5: (32, -16, -16, -8, 10, -1),
        6: (-64, 64, 48, 32, 20, -12, 1),
    },
    "connected": {
        1: (3, -1),
        2: (2, -6, 1),
        3: (0, -13, 9, -1),
        4: (0, -12, 33, -12, 1),
        5: (0, -4, 63, -62, 15, -1),
        6: (0, 0, 66, -180, 100, -18, 1),
    },
    "partition": {
        1: (0, -1),
        2: (-1, 0, 1),
        3: (2, 2, 0, -1),
        4: (-3, -4, -3, 0, 1),
        5: (4, 5, 6, 4, 0, -1),
        6: (-5, -4, -6, -8, -5, 0, 1),
    },
}


def _report(num: int, description: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} PASS: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _level_vector(spec, level, width):
    row = count_sequence(spec, level)[-1]
    assert all(e == 0 for e in row.entries[width:])
    return row.entries[:width]


def test_criterion_1_golden_vectors():
    t0 = time.perf_counter()
    assert _level_vector(GraphClassSpec("geometric"), 3, 2) == (4, 4)
    assert _level_vector(GraphClassSpec("geometric"), 4, 3) == (24, 16, 8)
    assert _level_vector(GraphClassSpec("geometric"), 5, 4) == (176, 112, 48, 16)
    assert _level_vector(GraphClassSpec("connected"), 3, 2) == (3, 1)
    assert _level_vector(GraphClassSpec("connected"), 4, 3) == (16, 6, 1)
    assert _level_vector(GraphClassSpec("connected"), 5, 4) == (105, 41, 9, 1)
    assert _level_vector(GraphClassSpec("partition"), 3, 4) == (2, 2, 0, 1)
    assert _level_vector(GraphClassSpec("partition"), 4, 5) == (6, 4, 3, 0, 1)
    _report(1, "golden count vectors, exact", t0, budget=1.0)


def test_criterion_2_golden_charpolys():
    t0 = time.perf_counter()
    builders = {
        "geometric": build_geometric_matrix,
        "connected": build_connected_matrix,
        "partition": build_partition_matrix,
    }
    for name, build in builders.items():
        recur = charpoly_recurrence(build(6))
        closed = {
            "geometric": closedform.charpoly_closed_geometric,
            "connected": closedform.charpoly_closed_connected,
            "partition": closedform.charpoly_closed_partition,
        }[name]
        for n in range(1, 7):
            gold = GOLD_CHARPOLYS[name][n]
            assert recur[n] == gold, (name, n, "recurrence")
            assert closed(n) == gold, (name, n, "closed")
            assert charpoly_determinant(build(n))[n] == gold, (name, n, "det")
    _report(2, "18 golden charpolys x 3 methods, coefficient-exact", t0, budget=5.0)


def test_criterion_3_closed_form_matrix_agreement():
    t0 = time.perf_counter()
    for k in (3, 4, 5, 6):
        for r in range(1, 13):
            assert closedform.kangulation_vector(k, r) == _level_vector(
                GraphClassSpec("kangulation", k), r, r
            )
    for n in range(2, 13):
        assert closedform.geometric_vector(n) == _level_vector(
            GraphClassSpec("geometric"), n, n - 1
        )
        assert closedform.connected_vector(n) == _level_vector(
            GraphClassSpec("connected"), n, n - 1
        )
    for n in range(1, 13):
        assert closedform.partition_vector(n) == _level_vector(
            GraphClassSpec("partition"), n, n + 1
        )
    _report(3, "closed forms == matrix powers, levels <= 12", t0, budget=30.0)


def test_criterion_4_oracle_agreement():
    t0 = time.perf_counter()
    # one fill per class and k, every level of it against the matrix
    vis, conn = oracle.visibility_histograms(7), oracle.connected_visibility_histograms(7)
    for n in range(2, 8):
        assert tuple(vis[n]) == _level_vector(GraphClassSpec("geometric"), n, n - 1), n
        assert tuple(conn[n]) == _level_vector(GraphClassSpec("connected"), n, n - 1), n
    hists = oracle.partition_isolation_histograms(9)
    for n in range(1, 10):
        assert tuple(hists[n]) == _level_vector(GraphClassSpec("partition"), n, n + 1), n
    for k in (3, 4, 5):
        top = (12 - 2) // (k - 2)
        hists = oracle.dissection_degree_histograms(k, top)
        for r in range(1, top + 1):
            assert tuple(hists[r]) == _level_vector(GraphClassSpec("kangulation", k), r, r), (k, r)
    weights = connected_totals(9)
    hists = oracle.isolation_histograms(7)
    for n in range(1, 8):
        assert tuple(hists[n]) == _level_vector(GraphClassSpec("relation", weights), n, n + 1), n
    _report(4, "oracle recursion histograms == matrix vectors, exact", t0, budget=600.0)


def test_criterion_5_totals():
    t0 = time.perf_counter()
    for k in (3, 4, 5):
        r = 1
        while (k - 2) * r + 2 <= 12:
            assert k_angulation_total(k, r) == sum(
                1 for _ in reference_oracle.enumerate_dissections(k, r)
            ), (k, r)
            r += 1
    k3 = count_sequence(GraphClassSpec("kangulation", 3), 6)
    assert [row.total for row in k3] == [1, 2, 5, 14, 42, 132]
    geo = count_sequence(GraphClassSpec("geometric"), 6)
    assert [row.total for row in geo] == [2, 8, 48, 352, 2880]
    # the n=6 value from matrix iteration, confirmed by exhaustive enumeration
    assert sum(1 for _ in reference_oracle.enumerate_noncrossing_graphs(6)) == geo[-1].total == 2880
    _report(5, "k-angulation, Catalan and plane-graph totals, exact", t0, budget=120.0)


def test_criterion_6_relation_matrix():
    t0 = time.perf_counter()
    rel = count_sequence(GraphClassSpec("relation", connected_totals(12)), 10)
    geo = count_sequence(GraphClassSpec("geometric"), 10)
    assert [row.total for row in rel[1:]] == [row.total for row in geo]
    trees = oracle.spanning_counts(9, "tree")
    forest_rows = count_sequence(GraphClassSpec("relation", trees), 7)
    for row in forest_rows:
        assert row.total == oracle.count_spanning_structures(row.level, "forest"), row.level
    paths = oracle.spanning_counts(9, "path")
    path_rows = count_sequence(GraphClassSpec("relation", paths), 7)
    for row in path_rows:
        assert row.total == oracle.count_spanning_structures(row.level, "path-forest"), row.level
    _report(6, "relation matrix transports counts between classes, exact", t0, budget=120.0)


def test_criterion_7_lemma1_exhaustive():
    t0 = time.perf_counter()
    for t in range(13):
        for m in range(13):
            for n in range(13):
                assert closedform.lemma1_check(t, m, n), (t, m, n)
    _report(7, "binomial identity exhaustive over t, m, n <= 12", t0, budget=10.0)


def test_criterion_8_eigenpair_residuals():
    t0 = time.perf_counter()
    root_tol = Fraction(1, 10**48)  # well inside the 1e-40 requirement
    bound = Fraction(1, 10**30)
    checked = 0
    for n in range(1, 7):
        matrices = [
            build_k_angulation_matrix(3, n),
            build_k_angulation_matrix(4, n),
            build_geometric_matrix(n),
            build_connected_matrix(n),
            build_partition_matrix(n),
            build_relation_matrix(n, connected_totals(max(2, n))),
        ]
        for matrix in matrices:
            poly = charpoly_recurrence(matrix)[n]
            for root in spectral.real_roots(poly, root_tol):
                pair = spectral.eigenvector_from_charpoly(matrix, root)
                assert pair.residual <= bound, (matrix, n, float(root), pair.residual)
                checked += 1
    assert checked >= 60
    _report(8, f"{checked} exact eigenpair residuals <= 1e-30", t0, budget=30.0)


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    matrices = [
        build_k_angulation_matrix(3, 8),
        build_k_angulation_matrix(5, 8),
        build_geometric_matrix(8),
        build_connected_matrix(8),
        build_partition_matrix(8),
        build_relation_matrix(8, connected_totals(8)),
    ]
    for m in matrices:
        for i in range(m.size):
            for j in range(m.size):
                if j < i - 1:
                    assert m.entry(i, j) == 0
        assert all(m.entry(i + 1, i) == m.sub for i in range(m.size - 1))
    for spec in (
        GraphClassSpec("kangulation", 3),
        GraphClassSpec("geometric"),
        GraphClassSpec("connected"),
        GraphClassSpec("partition"),
        GraphClassSpec("relation", connected_totals(12)),
    ):
        for row in count_sequence(spec, 10):
            assert all(e >= 0 for e in row.entries)
    for n in range(1, 7):
        seen = set()
        for g in reference_oracle.enumerate_noncrossing_graphs(n):
            assert g.edges not in seen
            seen.add(g.edges)
    runs = [oracle.visibility_histograms(6) for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [oracle.isolation_histograms(6) for _ in range(2)]
    assert runs[0] == runs[1]
    _report(9, "structure, non-negativity, dedup, determinism", t0, budget=120.0)
