import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from convexcount.exact import (
    CountVector,
    HTMatrix,
    IntPolynomial,
    binomial,
    charpoly_determinant,
    exact_div,
    mat_vec,
)
from convexcount.production import (
    build_connected_matrix,
    build_geometric_matrix,
    build_k_angulation_matrix,
    build_partition_matrix,
)


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


def test_polynomial_normalization_and_degree():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial.zero().degree == -1
    assert IntPolynomial.zero().is_zero()
    assert IntPolynomial.one().coeffs == (1,)


def test_polynomial_evaluation():
    p = IntPolynomial((-16, 0, 0, -8, 1))  # x^4 - 8x^3 - 16
    assert p(0) == -16
    assert p(8) == -16
    assert p(Fraction(1, 2)) == Fraction(-16) + Fraction(-8, 8) + Fraction(1, 16)


def test_polynomial_str():
    assert str(IntPolynomial((2, -1))) == "-x + 2"
    assert str(IntPolynomial.zero()) == "0"


small_polys = st.lists(st.integers(-9, 9), max_size=5).map(IntPolynomial)


@given(small_polys, small_polys, small_polys)
def test_polynomial_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == IntPolynomial.zero()
    assert a * IntPolynomial.one() == a


@given(small_polys, small_polys)
def test_polynomial_degree_of_product(a, b):
    if not a.is_zero() and not b.is_zero():
        assert (a * b).degree == a.degree + b.degree


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


def test_wrong_band_gf_rejected():
    assert HTMatrix(4, 2, (2, 4, 8, 16), band_gf=((2,), (1, -2))).band_gf
    with pytest.raises(ValueError):
        HTMatrix(4, 2, (2, 4, 8, 16), band_gf=((2,), (1, -3)))
    with pytest.raises(ValueError):
        HTMatrix(4, 2, (2, 4, 8, 17), band_gf=((2,), (1, -2)))
    with pytest.raises(ValueError):
        HTMatrix(2, 1, (1, 2), band_gf=((2,), (2, -4)))


def test_charpoly_determinant_small():
    assert charpoly_determinant(build_geometric_matrix(1))[1] == IntPolynomial((2, -1))
    identity = HTMatrix(1, 0, (1,))
    assert charpoly_determinant(identity)[1] == IntPolynomial((1, -1))
    g4 = charpoly_determinant(build_geometric_matrix(4))[4]
    assert g4 == IntPolynomial((-16, 0, 0, -8, 1))
    assert g4.degree == 4
    assert g4.leading == 1


def test_charpoly_determinant_leading_sign():
    for n in range(1, 6):
        p = charpoly_determinant(build_partition_matrix(n))[n]
        assert p.degree == n
        assert p.leading == (-1) ** n


def test_lambda_constant():
    lam = IntPolynomial((0, 1))
    assert lam(5) == 5
    assert (lam * lam - 2 * lam).coeffs == (0, -2, 1)
