"""Edge paths not covered by the main modules' tests: complex eigenpairs,
the counting loop, and randomized structural properties."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from convexcount.exact import CountVector, HTMatrix, IntPolynomial
from convexcount.production import build_geometric_matrix, count_sequence, geometric_class
from convexcount.spectral import (
    charpoly_recurrence,
    dominant_eigenvalue,
    eigenvector_from_charpoly,
    precision_bits,
)
from reference_oracle import PlaneGraph, enumerate_noncrossing_graphs, visibility_degree


def test_complex_eigenpair():
    # band (0, -1) over subdiagonal 1 has characteristic polynomial x^2 + 1
    m = HTMatrix(2, 1, (0, -1))
    assert charpoly_recurrence(m)[2] == IntPolynomial((1, 0, 1))
    pair = eigenvector_from_charpoly(m, mpc(0, 1))
    with mp.workprec(precision_bits()):
        assert pair.residual < mpf(10) ** -70
        assert abs(pair.vector[0] - mpc(0, 1)) < mpf(10) ** -70


def test_charpoly_and_dominant_eigenvalue_of_sqrt2_matrix():
    m = HTMatrix(2, 1, (0, 2))
    # det([[0-x, 2], [1, 0-x]]) = x^2 - 2
    assert charpoly_recurrence(m)[2] == IntPolynomial((-2, 0, 1))
    d = dominant_eigenvalue(m, Fraction(1, 10**35))
    with mp.workprec(precision_bits()):
        assert abs(d * d - 2) < mpf(10) ** -30


def test_dominant_eigenvalue_no_real_root():
    m = HTMatrix(2, 1, (0, -1))
    with pytest.raises(ValueError):
        dominant_eigenvalue(m)


def test_count_sequence_engine():
    vectors = count_sequence(geometric_class(), 4)
    assert [(v.level, v.total) for v in vectors] == [(2, 2), (3, 8), (4, 48)]
    assert vectors[0] == CountVector((2, 0, 0, 0, 0, 0), 2)
    assert vectors[-1].entries == (24, 16, 8, 0, 0, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6))
def test_enumerated_graphs_validate_and_bound_degree(n):
    total = 0
    for g in enumerate_noncrossing_graphs(n):
        total += 1
        assert isinstance(g, PlaneGraph)
        assert 0 <= visibility_degree(g) <= n - 2
    assert total == [2, 8, 48, 352, 2880][n - 2]


def test_count_vector_level_tracking():
    vectors = count_sequence(geometric_class(), 6)
    assert [v.level for v in vectors] == [2, 3, 4, 5, 6]
    assert {len(v.entries) for v in vectors} == {8}
    # The initial vector alone is at level 2, past n_max = 1.
    with pytest.raises(ValueError, match="start level 2"):
        count_sequence(geometric_class(), 1)
    assert len(count_sequence(geometric_class(), 2)) == 1


def test_concurrent_callers_get_consistent_results():
    from concurrent.futures import ThreadPoolExecutor

    from convexcount.exact import charpoly_determinant

    sizes = [3, 4, 5, 6] * 4
    expected = {n: charpoly_determinant(build_geometric_matrix(n))[n] for n in set(sizes)}
    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(
            ex.map(lambda n: (n, charpoly_determinant(build_geometric_matrix(n))[n]), sizes)
        )
    for n, poly in results:
        assert poly == expected[n]
