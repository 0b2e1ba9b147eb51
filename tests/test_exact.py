import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from convexcount.exact import (
    CountVector,
    HTMatrix,
    _charpoly_values,
    binomial,
    charpoly_determinant,
    charpoly_recurrence,
    charpoly_top,
    exact_div,
    mat_vec,
)
from convexcount.production import (
    build_connected_matrix,
    build_geometric_matrix,
    build_k_angulation_matrix,
    build_partition_matrix,
    build_relation_matrix,
)
from convexcount.spectral import _eval_dyadic


def reference_mat_vec(m: HTMatrix, v: CountVector) -> CountVector:
    """The entry-by-entry product m @ v, kept as the reference for mat_vec."""
    out = []
    for i in range(m.size):
        lo = max(0, i - 1)
        out.append(sum(m.entry(i, j) * v.entries[j] for j in range(lo, m.size)))
    return CountVector(tuple(out), v.level + 1)


def test_binomial_basic():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(9, 3) == 84
    assert binomial(0, 0) == 1
    assert binomial(7, -1) == 0


def test_binomial_negative_upper_index():
    # C(n, k) = n(n-1)...(n-k+1)/k!, the coefficient of z**k in (1+z)**n
    assert binomial(-1, 0) == 1
    assert binomial(-1, 1) == -1
    assert binomial(-1, 4) == 1
    assert binomial(-3, 2) == 6
    assert binomial(-3, 3) == -10
    assert binomial(-2, -1) == 0
    for n in range(-6, 0):
        for k in range(8):
            falling = math.prod(range(n - k + 1, n + 1))
            assert binomial(n, k) == falling // math.factorial(k), (n, k)


def test_exact_div():
    assert exact_div(84, 7) == 12
    with pytest.raises(ArithmeticError):
        exact_div(5, 2)


def test_polynomial_evaluation():
    # the root finder's integer Horner: 2**(k*4) p(s / 2**k)
    p = (-16, 0, 0, -8, 1)  # x^4 - 8x^3 - 16
    assert _eval_dyadic(p, 0, 0) == -16
    assert _eval_dyadic(p, 8, 0) == -16
    want = Fraction(-16) + Fraction(-8, 8) + Fraction(1, 16)
    assert Fraction(_eval_dyadic(p, 1, 1), 2**4) == want


def test_htmatrix_structure():
    m = HTMatrix(4, 1, (0, 1, 2, 4))
    assert m.to_lists() == [
        [0, 1, 2, 4],
        [1, 0, 1, 2],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ]
    for i in range(4):
        for j in range(4):
            if j < i - 1:
                assert m.entry(i, j) == 0
    with pytest.raises(ValueError):
        HTMatrix(3, 1, (1, 1))
    # A list band is stored as a tuple: equal, hashable, checked against band_gf.
    listed = HTMatrix(2, 2, [2, 4])
    assert listed == build_geometric_matrix(2)
    assert hash(listed) == hash(build_geometric_matrix(2))
    assert HTMatrix(2, 2, [2, 4], band_gf=((2,), (1, -2))).band == (2, 4)


def test_count_vector():
    v = CountVector((2, 0), 2)
    assert v.total == 2
    with pytest.raises(ValueError):
        CountVector((1, -1), 2)


def test_mat_vec_geometric_step():
    g6 = build_geometric_matrix(6)
    v2 = CountVector((2, 0, 0, 0, 0, 0), 2)
    v3 = mat_vec(g6, v2)
    assert v3.entries == (4, 4, 0, 0, 0, 0)
    assert v3.level == 3


def test_mat_vec_zero_vector():
    g6 = build_geometric_matrix(6)
    z = CountVector((0,) * 6, 2)
    assert mat_vec(g6, z).entries == (0,) * 6


def test_mat_vec_partition_step():
    b6 = build_partition_matrix(6)
    v3 = CountVector((2, 2, 0, 1, 0, 0), 3)
    assert mat_vec(b6, v3).entries == (6, 4, 3, 0, 1, 0)


def test_mat_vec_dimension_mismatch():
    g3 = build_geometric_matrix(3)
    with pytest.raises(ValueError):
        mat_vec(g3, CountVector((1, 0), 2))


@st.composite
def matrices_and_vectors(draw):
    n = draw(st.integers(1, 9))
    band = tuple(draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)))
    live = draw(st.integers(0, n))
    head = draw(st.lists(st.integers(0, 10**6), min_size=live, max_size=live))
    if live and draw(st.booleans()):
        head[-1] = draw(st.integers(1, 10**6))
    entries = tuple(head) + (0,) * (n - live)
    return HTMatrix(n, draw(st.integers(0, 5)), band), CountVector(entries, 1)


@settings(max_examples=300)
@given(matrices_and_vectors())
def test_mat_vec_matches_reference(data):
    m, v = data
    assert mat_vec(m, v) == reference_mat_vec(m, v)


def _band_gf_builders():
    yield build_geometric_matrix
    yield build_connected_matrix
    yield build_partition_matrix
    for k in range(3, 10):
        yield lambda n, k=k: build_k_angulation_matrix(k, n)


@settings(max_examples=60)
@given(
    st.integers(1, 14),
    st.lists(st.integers(0, 10**9), min_size=14, max_size=14),
    st.integers(0, 14),
)
def test_band_gf_matrices_match_reference(n, raw, live):
    entries = tuple(raw[:live]) + (0,) * (14 - live)
    v = CountVector(entries[:n], 3)
    for build in _band_gf_builders():
        m = build(n)
        assert m.band_gf is not None
        plain = HTMatrix(m.size, m.sub, m.band)
        assert plain == m and plain.band_gf is None
        assert mat_vec(m, v) == mat_vec(plain, v) == reference_mat_vec(m, v)


@st.composite
def rational_bands_and_vectors(draw):
    """A matrix whose band is the series of a random num/den, den[0] = 1 and
    of order 1..6 with zero taps allowed (den[1] = 0 too), num of length 0..6,
    and a vector whose live prefix may be shorter than num."""
    n = draw(st.integers(1, 16))
    den = (1, *draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6)))
    num = tuple(draw(st.lists(st.integers(-5, 5), max_size=6)))
    band: list[int] = []
    for j in range(n):
        t = num[j] if j < len(num) else 0
        band.append(t - sum(den[s] * band[j - s] for s in range(1, min(j, len(den) - 1) + 1)))
    live = draw(st.integers(0, n))
    entries = tuple(draw(st.lists(st.integers(0, 10**6), min_size=live, max_size=live)))
    sub = draw(st.integers(-3, 3))
    return HTMatrix(n, sub, band, band_gf=(num, den)), CountVector(entries + (0,) * (n - live), 2)


@settings(max_examples=300)
@given(rational_bands_and_vectors())
def test_random_rational_bands_match_reference(data):
    m, v = data
    plain = HTMatrix(m.size, m.sub, m.band)

    def outcome(step, matrix):
        try:
            return step(matrix, v)
        except ValueError as e:  # a negative entry, the same for all three
            return repr(e)

    assert outcome(mat_vec, m) == outcome(mat_vec, plain) == outcome(reference_mat_vec, m)


def test_wrong_band_gf_rejected():
    assert HTMatrix(4, 2, (2, 4, 8, 16), band_gf=((2,), (1, -2))).band_gf
    with pytest.raises(ValueError):
        HTMatrix(4, 2, (2, 4, 8, 16), band_gf=((2,), (1, -3)))
    with pytest.raises(ValueError):
        HTMatrix(4, 2, (2, 4, 8, 17), band_gf=((2,), (1, -2)))
    with pytest.raises(ValueError):
        HTMatrix(2, 1, (1, 2), band_gf=((2,), (2, -4)))


def test_charpoly_determinant_small():
    assert charpoly_determinant(build_geometric_matrix(1)) == ((1,), (2, -1))
    identity = HTMatrix(1, 0, (1,))
    assert charpoly_determinant(identity)[1] == (1, -1)
    g4 = charpoly_determinant(build_geometric_matrix(4))[4]
    assert g4 == (-16, 0, 0, -8, 1)
    assert len(g4) - 1 == 4
    assert g4[-1] == 1


def test_charpoly_determinant_leading_sign():
    for n in range(1, 6):
        p = charpoly_determinant(build_partition_matrix(n))[n]
        assert len(p) - 1 == n
        assert p[-1] == (-1) ** n


# The relation matrix with its default counts and fed spanning-tree totals.
RELATION_COUNTS = {
    "connected": None,
    "trees": tuple(math.comb(3 * i - 3, i - 1) // (2 * i - 1) for i in range(2, 301)),
}


@pytest.mark.parametrize("counts", RELATION_COUNTS.values(), ids=RELATION_COUNTS)
def test_charpoly_top_is_the_recurrence_top_degree_on_relation(counts):
    for n in [*range(1, 61), 100, 150, 300]:
        m = build_relation_matrix(n, counts)
        assert charpoly_top(m) == charpoly_recurrence(m)[n], n


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-3, 3),
    st.integers(1, 40).flatmap(lambda n: st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
)
def test_charpoly_top_matches_recurrence_on_random_bands(sub, band):
    # den = 1, so the power projection runs; n from 1 to 40 takes s = 1, 2
    # and 3 baby steps and ends on every remainder i of n = s j + i
    m = HTMatrix(len(band), sub, band)
    assert charpoly_top(m) == charpoly_recurrence(m)[m.size]


def test_charpoly_top_keeps_the_recurrence_for_a_band_gf():
    for m in (build_geometric_matrix(60), build_k_angulation_matrix(4, 60)):
        assert m.band_gf is not None
        assert charpoly_top(m) == charpoly_recurrence(m)[60]


def test_charpoly_top_of_a_band_gf_holds_a_window_of_degrees():
    # d_0..d_n would hold about n / 2 times the bytes of d_n alone, and a
    # window of len(num) degrees and len(den) - 1 U's holds a few d_n's
    for m in (build_geometric_matrix(600), build_connected_matrix(600), build_k_angulation_matrix(4, 600)):
        tracemalloc.start()
        try:
            top = charpoly_top(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sys.getsizeof(top) + sum(map(sys.getsizeof, top))
        assert peak < 20 * size, (m.band_gf, peak, size)


# Every class at n = 40, kangulation at k = 3 and 4, and relation fed both counts.
VALUE_MATRICES = {
    "geometric": build_geometric_matrix(40),
    "connected": build_connected_matrix(40),
    "partition": build_partition_matrix(40),
    "kangulation-3": build_k_angulation_matrix(3, 40),
    "kangulation-4": build_k_angulation_matrix(4, 40),
    **{f"relation-{name}": build_relation_matrix(40, counts) for name, counts in RELATION_COUNTS.items()},
}


@pytest.mark.parametrize("m", VALUE_MATRICES.values(), ids=VALUE_MATRICES)
def test_charpoly_values_are_the_scaled_charpolys_at_a_point(m):
    # 0, integers, negatives, dyadics, odd denominators and mixed Q * 2**s
    points = [0, 1, 3, -2, -7, Fraction(5, 8), Fraction(-13, 4), Fraction(7, 3),
              Fraction(-11, 9), Fraction(17, 12), Fraction(-29, 40), Fraction(11657, 1000)]
    polys = charpoly_recurrence(m)
    for x in map(Fraction, points):
        want = []
        for j, d in enumerate(polys):
            value = Fraction(0)
            for c in reversed(d):
                value = value * x + c
            want.append(value * x.denominator**j)
        assert list(_charpoly_values(m, x.numerator, x.denominator)) == want, x


@pytest.mark.parametrize("m, x, first", [
    (build_geometric_matrix(2000), Fraction(11657, 1000), None),  # above 6 + 4 sqrt(2)
    (build_geometric_matrix(2000), Fraction(11656, 1000), 435),
    (build_k_angulation_matrix(4, 2000), Fraction(27, 4), None),
    (build_k_angulation_matrix(4, 2000), Fraction(6749, 1000), 222),
], ids=["geometric-above", "geometric-below", "kangulation-4-above", "kangulation-4-below"])
def test_charpoly_values_hold_a_window_to_n_2000(m, x, first):
    # the first j with (-1)**j e_j <= 0, or None when the signs alternate to
    # j = 2000; a band_gf's window holds a few values where the list of
    # every e_j would hold them all
    held = 0
    tracemalloc.start()
    try:
        for j, e in enumerate(_charpoly_values(m, x.numerator, x.denominator)):
            held += sys.getsizeof(e)
            if (-1) ** j * e <= 0:
                break
        else:
            j = None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert j == first
    if first is None:
        assert 20 * peak < held, (peak, held)
