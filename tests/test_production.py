import argparse
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from convexcount.cli import build_parser
from convexcount.closedform import charpoly_closed_partition
from convexcount import production
from convexcount.exact import (
    CountVector,
    HTMatrix,
    _strided_totals,
    binomial,
    charpoly_determinant,
    charpoly_recurrence,
    charpoly_top,
    mat_vec,
)
from convexcount.production import (
    CLASS_NAMES,
    CLASSES,
    GraphClassSpec,
    build_connected_matrix,
    build_geometric_matrix,
    build_k_angulation_matrix,
    build_partition_matrix,
    build_relation_matrix,
    connected_totals,
    count_sequence,
    count_totals,
    k_angulation_total,
    relation_weights,
)


def test_k_angulation_matrix():
    assert build_k_angulation_matrix(3, 3).to_lists() == [
        [1, 1, 1],
        [1, 1, 1],
        [0, 1, 1],
    ]
    assert build_k_angulation_matrix(4, 1).to_lists() == [[2]]
    assert build_k_angulation_matrix(4, 3).row(0) == (2, 3, 4)
    with pytest.raises(ValueError):
        build_k_angulation_matrix(2, 3)


def test_geometric_matrix():
    assert build_geometric_matrix(3).to_lists() == [[2, 4, 8], [2, 2, 4], [0, 2, 2]]
    assert build_geometric_matrix(1).to_lists() == [[2]]
    assert build_geometric_matrix(6).row(0) == (2, 4, 8, 16, 32, 64)


def test_connected_matrix():
    assert build_connected_matrix(3).to_lists() == [[3, 7, 15], [1, 3, 7], [0, 1, 3]]
    assert build_connected_matrix(1).to_lists() == [[3]]
    assert build_connected_matrix(6).row(0)[-1] == 127


def test_partition_matrix():
    assert build_partition_matrix(4).to_lists() == [
        [0, 1, 2, 4],
        [1, 0, 1, 2],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ]
    assert build_partition_matrix(1).to_lists() == [[0]]
    assert build_partition_matrix(6).row(0) == (0, 1, 2, 4, 8, 16)


def test_relation_matrix_weights_from_connected_totals():
    # c_i = total connected graphs on i vertices: 1, 4, 23, 156
    weights = relation_weights((1, 4, 23, 156), 5)
    assert weights == (1, 5, 32, 238)
    m = build_relation_matrix(5, (1, 4, 23, 156))
    assert m.row(0) == (0, 1, 5, 32, 238)
    assert m.row(1) == (1, 0, 1, 5, 32)


def reference_relation_weights(counts, top):
    """a_j = sum_{i=2..j} C(j-2, i-2) * c_i, one binomial per term."""
    return tuple(
        sum(binomial(j - 2, i - 2) * counts[i - 2] for i in range(2, j + 1))
        for j in range(2, top + 1)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), max_size=70),
    st.integers(-2, 60),
)
def test_relation_weights_match_binomial_sum(counts, top):
    # Counts past c_top are ignored; fewer than c_2..c_top are rejected.
    if len(counts) < top - 1:
        with pytest.raises(ValueError, match="count sequence too short"):
            relation_weights(counts, top)
    else:
        assert relation_weights(counts, top) == reference_relation_weights(counts, top)


def test_relation_weights_on_connected_totals_at_202():
    counts = connected_totals(202)
    assert relation_weights(counts, 202) == reference_relation_weights(counts, 202)
    assert relation_weights(counts + (7, 11), 202) == relation_weights(counts, 202)
    assert relation_weights(counts, 1) == relation_weights(counts, 0) == ()


def test_relation_matrix_zero_counts_is_pure_shift():
    m = build_relation_matrix(4, (0, 0, 0))
    assert m.to_lists() == [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ]


def test_relation_matrix_sequence_too_short():
    with pytest.raises(ValueError):
        build_relation_matrix(5, (1, 4))


_SIZED_BUILDERS = {
    "kangulation3": lambda r: build_k_angulation_matrix(3, r),
    "kangulation4": lambda r: build_k_angulation_matrix(4, r),
    "geometric": build_geometric_matrix,
    "connected": build_connected_matrix,
    "partition": build_partition_matrix,
    "relation": lambda n: build_relation_matrix(n, connected_totals(12)),
}


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("name", sorted(_SIZED_BUILDERS))
def test_builders_reject_empty_matrix(name, size):
    with pytest.raises(ValueError, match=r"^matrix size must be >= 1$"):
        _SIZED_BUILDERS[name](size)


def test_count_sequence_geometric():
    rows = count_sequence(GraphClassSpec("geometric"), 5)
    assert [r.total for r in rows] == [2, 8, 48, 352]
    assert rows[2].entries[:3] == (24, 16, 8)


def test_count_sequence_connected():
    rows = count_sequence(GraphClassSpec("connected"), 5)
    assert [r.total for r in rows] == [1, 4, 23, 156]


def test_count_sequence_partition():
    rows = count_sequence(GraphClassSpec("partition"), 4)
    assert [r.total for r in rows] == [1, 2, 5, 14]
    assert rows[3].entries[:5] == (6, 4, 3, 0, 1)


def test_count_sequence_start_validation():
    with pytest.raises(ValueError):
        count_sequence(GraphClassSpec("geometric"), 1)


def test_count_sequence_has_no_size_parameter():
    # A caller-chosen size used to truncate vectors and return wrong totals.
    with pytest.raises(TypeError):
        count_sequence(GraphClassSpec("partition"), 8, size=4)


def test_large_level_totals():
    rows = count_sequence(GraphClassSpec("partition"), 300)
    assert [r.total for r in rows] == [math.comb(2 * n, n) // (n + 1) for n in range(1, 301)]
    for k in (4, 7):
        rows = count_sequence(GraphClassSpec("kangulation", k), 300)
        assert [r.total for r in rows] == [
            math.comb((k - 1) * r, r) // ((k - 2) * r + 1) for r in range(1, 301)
        ]
    rel = count_sequence(GraphClassSpec("relation", connected_totals(122)), 120)
    geo = count_sequence(GraphClassSpec("geometric"), 120)
    assert [r.total for r in rel[1:]] == [g.total for g in geo]


def _spanning_tree_totals(n_max):
    return tuple(math.comb(3 * n - 3, n - 1) // (2 * n - 1) for n in range(2, n_max + 1))


@pytest.mark.parametrize("counts", [
    None, _spanning_tree_totals(81), tuple(i * i + 1 for i in range(2, 82)), (0,) * 80,
], ids=["connected", "spanning-trees", "squares-plus-one", "zeros"])
def test_count_totals_are_the_count_sequence_totals(counts):
    spec = GraphClassSpec("relation", counts)
    for n_max in range(1, 81):
        want = [(v.level, v.total) for v in count_sequence(spec, n_max)]
        assert count_totals(spec, n_max) == want, n_max


@pytest.mark.parametrize("sub", [1, 2, 3])
def test_stride_kernel_matches_repeated_mat_vec(sub):
    rng = random.Random(sub)
    for k in range(1, 11):
        size = 45
        m = HTMatrix(size, sub, [rng.randrange(0, 30) for _ in range(size)])
        assert m.band_gf is None
        live = rng.randrange(1, 6)
        v = CountVector(tuple(rng.randrange(0, 10) for _ in range(live)) + (0,) * (size - live), 3)
        # every step stays inside the matrix: the live length reaches size at n_max
        n_max = v.level + size - live
        steps = [v]
        while steps[-1].level < n_max:
            steps.append(mat_vec(m, steps[-1]))
        assert _strided_totals(m, v, n_max, k) == [(w.level, w.total) for w in steps], k


def test_relation_totals_match_geometric_at_250():
    rel = count_totals(GraphClassSpec("relation"), 250)
    assert rel[1:] == [(v.level, v.total) for v in count_sequence(GraphClassSpec("geometric"), 250)]


def test_count_totals_strides_only_a_band_without_generating_function(monkeypatch):
    strides = []
    kernel = production._strided_totals

    def spy(m, v, n_max, k):
        strides.append(k)
        return kernel(m, v, n_max, k)

    monkeypatch.setattr(production, "_strided_totals", spy)
    for name in CLASS_NAMES:
        spec = GraphClassSpec(name, 4 if CLASSES[name].param == "k" else None)
        top = 40 if name != "relation" else 15
        for n_max in range(spec.start_index, top + 1):
            assert count_totals(spec, n_max) == [(v.level, v.total) for v in count_sequence(spec, n_max)]
    assert strides == []
    for n_max, k in ((16, 2), (35, 2), (36, 3), (200, 7), (500, 11)):
        count_totals(GraphClassSpec("relation", (0,) * n_max), n_max)
        assert strides.pop() == k
    # counts too short are rejected before any total
    with pytest.raises(ValueError, match="count sequence too short"):
        count_totals(GraphClassSpec("relation", (1,) * 10), 20)
    assert strides == []


# With every count c_i = 1 the relation matrix is the partition matrix, and
# with c_2 = 1 alone it counts non-crossing partial matchings, so each den = 1
# path (the stride of k = isqrt(200) // 2 = 7, the power projection) meets a
# closed form.
def test_relation_with_unit_counts_is_the_partition_matrix():
    for n in (2, 10, 300):
        m = build_relation_matrix(n, (1,) * (n - 1))
        assert m.band_gf is None
        assert m == build_partition_matrix(n), n


def test_relation_totals_with_unit_counts_are_catalan():
    totals = count_totals(GraphClassSpec("relation", (1,) * 199), 200)
    assert totals == count_totals(GraphClassSpec("partition"), 200)
    assert totals == [(n, math.comb(2 * n, n) // (n + 1)) for n in range(1, 201)]


def test_relation_totals_with_one_pair_count_are_motzkin():
    totals = count_totals(GraphClassSpec("relation", (1,) + (0,) * 198), 200)
    assert [n for n, _ in totals] == list(range(1, 201))
    ms = [1, *(t for _, t in totals)]  # M_0 = 1, M_n at level n
    for n in range(2, 201):
        assert (n + 2) * ms[n] == (2 * n + 1) * ms[n - 1] + (3 * n - 3) * ms[n - 2], n


def test_charpoly_top_of_the_unit_count_relation_matrix_is_the_partition_closed_form():
    assert charpoly_top(build_relation_matrix(300, (1,) * 299)) == charpoly_closed_partition(300)


def test_k_angulation_totals():
    assert k_angulation_total(3, 3) == 5
    assert k_angulation_total(4, 1) == 1
    assert k_angulation_total(4, 3) == 12
    for k in (3, 4, 5, 6):
        rows = count_sequence(GraphClassSpec("kangulation", k), 8)
        for row in rows:
            assert row.total == k_angulation_total(k, row.level)


def test_k3_totals_are_catalan():
    rows = count_sequence(GraphClassSpec("kangulation", 3), 10)
    assert [r.total for r in rows] == [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_relation_from_connected_matches_geometric():
    geo = count_sequence(GraphClassSpec("geometric"), 10)
    for spec in (GraphClassSpec("relation", connected_totals(12)), GraphClassSpec("relation")):
        rel = count_sequence(spec, 10)
        assert [r.total for r in rel[1:]] == [g.total for g in geo]


def test_relation_counts_default_to_connected_totals(monkeypatch):
    for n in range(1, 61):
        assert build_relation_matrix(n) == build_relation_matrix(n, connected_totals(max(2, n))), n
    assert {GraphClassSpec("relation"): 1}[GraphClassSpec("relation")] == 1
    # a 1 x 1 matrix reads no count, so validating a spec computes none
    monkeypatch.setattr("convexcount.production.connected_totals", None)
    assert GraphClassSpec("relation").build_matrix(1) == build_relation_matrix(1, ())
    with pytest.raises(ValueError, match="non-negative"):
        GraphClassSpec("relation", [-1])


def test_relation_counts_read_c_values_to_n_max_only():
    counts = connected_totals(40)  # c_2..c_40
    want = count_sequence(GraphClassSpec("relation", counts), 38)
    assert len(want[-1].entries) == 40
    assert count_sequence(GraphClassSpec("relation", counts[:37]), 38) == want
    assert count_sequence(GraphClassSpec("relation", counts[:37] + (5, 7)), 38) == want
    assert count_sequence(GraphClassSpec("relation", counts[:36] + (5,)), 38) != want
    with pytest.raises(ValueError, match=r"need c_2\.\.c_38, got 36 values"):
        count_sequence(GraphClassSpec("relation", counts[:36]), 38)
    # A matrix still reads its whole band.
    with pytest.raises(ValueError, match=r"need c_2\.\.c_40, got 37 values"):
        GraphClassSpec("relation", counts[:37]).build_matrix(40)


# Each row at the parameters the verify suites run it at, and relation at the
# spanning-tree totals that count forests.
PREFIX_PARAMS = {
    "kangulation3": ("kangulation", 3),
    "kangulation4": ("kangulation", 4),
    "geometric": ("geometric", None),
    "connected": ("connected", None),
    "partition": ("partition", None),
    "relation": ("relation", None),
    "relation-trees": (
        "relation", tuple(math.comb(3 * i - 3, i - 1) // (2 * i - 1) for i in range(2, 41))
    ),
}


@pytest.mark.parametrize("name, param", PREFIX_PARAMS.values(), ids=PREFIX_PARAMS)
def test_class_bands_are_prefix_stable(name, param):
    # suite_eigen builds each class once, at n_max, and checks size n on the
    # leading block: that block must be the size-n matrix, with its band series
    # and its characteristic polynomial.
    row = CLASSES[name]
    big = row.build(40, param)
    big_rows = big.to_lists()
    d = charpoly_recurrence(big)
    for n in range(1, 41):
        m = row.build(n, param)
        assert m.to_lists() == [r[:n] for r in big_rows[:n]], n
        block = HTMatrix(n, big.sub, big.band[:n], big.band_gf)
        assert block == m and block.band_series == m.band_series, n
        assert charpoly_recurrence(m)[n] == d[n], n


def test_kangulation_class_requires_k():
    with pytest.raises(ValueError):
        GraphClassSpec("kangulation", 2)


def test_class_spec_must_match_its_row():
    with pytest.raises(ValueError, match="takes no parameter"):
        GraphClassSpec("geometric", 5)
    with pytest.raises(ValueError, match="requires k"):
        GraphClassSpec("kangulation")
    assert GraphClassSpec("relation").param is None
    with pytest.raises(ValueError, match="k >= 3"):
        GraphClassSpec("kangulation", 2)
    with pytest.raises(ValueError, match="unknown class"):
        GraphClassSpec("triangulation")
    # a count sequence counts objects, so a negative count is no class
    with pytest.raises(ValueError, match=r"^counts must be non-negative, got -40$"):
        GraphClassSpec("relation", (1, 2, 3, -40))
    specs = [GraphClassSpec("kangulation", k) for k in range(3, 10)]
    specs += [GraphClassSpec(name) for name in ("geometric", "connected", "partition")]
    specs.append(GraphClassSpec("relation", (1, 2)))
    for spec in specs:
        assert spec.build_matrix(3).size == 3
        assert spec.start_index == CLASSES[spec.name].start_index


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "2", 2.0, True])
def test_relation_counts_must_be_integers(bad):
    # a count counts objects: a float, a Fraction, a string or a bool is no count,
    # for a spec and for a direct builder call alike
    counts = (1, bad, 3)
    message = rf"^counts must be integers, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        GraphClassSpec("relation", counts)
    with pytest.raises(ValueError, match=message):
        build_relation_matrix(4, counts)
    with pytest.raises(ValueError, match=message):
        relation_weights(counts, 4)


def test_relation_spec_stores_weights_as_tuple():
    # equal count sequences give equal, hashable specs, list or tuple
    spec = GraphClassSpec("relation", [1, 2, 3])
    assert spec == GraphClassSpec("relation", (1, 2, 3))
    assert spec.param == (1, 2, 3)
    assert hash(spec) == hash(GraphClassSpec("relation", [1, 2, 3]))


def test_trailing_entries_zero():
    for spec, levels in (
        (GraphClassSpec("geometric"), range(2, 9)),
        (GraphClassSpec("connected"), range(2, 9)),
        (GraphClassSpec("partition"), range(1, 9)),
    ):
        reach = {"geometric": -1, "connected": -1, "partition": 1}[spec.name]
        for row in count_sequence(spec, max(levels)):
            width = row.level + reach
            assert all(e == 0 for e in row.entries[width:])


def test_class_table_is_the_cli_class_list():
    assert tuple(CLASSES) == CLASS_NAMES
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("matrix", "counts", "charpoly", "eigen"):
        cls = next(a for a in commands.choices[command]._actions if a.dest == "cls")
        assert tuple(cls.choices) == CLASS_NAMES


@pytest.mark.parametrize("weights", ["connected", "spanning-trees"])
def test_relation_recurrence_matches_berkowitz_at_60(weights):
    # The relation band has no generating function, so the recurrence runs
    # its plain convolution; Berkowitz gives every leading block in one call.
    n = 60
    if weights == "connected":
        counts = connected_totals(n)
    else:  # the spanning-tree totals that count forests
        counts = tuple(math.comb(3 * i - 3, i - 1) // (2 * i - 1) for i in range(2, n + 1))
    m = build_relation_matrix(n, counts)
    assert m.band_gf is None
    assert charpoly_recurrence(m) == charpoly_determinant(m)


# A value for each kind of row parameter; relation counts are arbitrary, since
# the recurrence and the determinant must agree on any band.
PARAMS = {
    "k": st.integers(3, 9),
    "weights": st.lists(st.integers(0, 10**6), min_size=30, max_size=30).map(tuple),
}


@pytest.mark.parametrize("name", CLASS_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_class_rows_agree_across_routes(name, data):
    row = CLASSES[name]
    param = data.draw(PARAMS.get(row.param, st.none()))
    seq = charpoly_recurrence(row.build(20, param))
    routes = [seq] + [charpoly_determinant(row.build(n, param)) for n in range(1, 9)]
    if row.charpoly is not None:
        # the closed form returns d_n alone: one call per n
        routes.append(tuple(row.charpoly(param, n) for n in range(21)))
        assert routes[-1] == seq
    for n in range(1, 9):
        assert routes[n] == seq[: n + 1]
    # every d_j, of every route, has j + 1 coefficients led by (-1)**j
    for polys in routes:
        for j, d in enumerate(polys):
            assert type(d) is tuple and len(d) == j + 1 and d[-1] == (-1) ** j
    if row.vector is not None:
        for level in count_sequence(GraphClassSpec(row.name, param), 30):
            closed = row.vector(param, level.level)
            entries = level.entries
            assert entries[: len(closed)] == closed
            assert not any(entries[len(closed):])
