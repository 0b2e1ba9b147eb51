import re
from functools import partial

import pytest

from convexcount.closedform import (
    connected_vector,
    geometric_vector,
    kangulation_vector,
    lemma1_check,
    partition_vector,
)
from convexcount.exact import binomial, exact_div
from convexcount.production import GraphClassSpec, count_sequence


def reference_connected_entry(n, j):
    """The paper's alternating double sum for entry j of connected_vector(n),
    the (-1/2)**k of its outer sum cleared against the leading 2**(n-1);
    O(n**2) binomials, kept as the reference for the collapsed form."""
    if not 1 <= j <= n - 1:
        return 0
    acc = 0
    for k in range(n):
        inner = 0
        for ell in range(n - j):
            inner += (
                binomial(n - 2 - k + ell, ell)
                * binomial(k + n - ell - j - 2, n - ell - j - 1)
                * 2**ell
            )
        sign = -1 if k % 2 else 1
        acc += sign * binomial(n - 1, k) * 2 ** (n - 1 - k) * inner
    return exact_div(j * acc, n - 1)


def reference_geometric_entry(n, j):
    """The paper's alternating sum for entry j of geometric_vector(n): O(n)
    binomials per entry, kept as the reference for the Lagrange recurrence."""
    if not 1 <= j <= n - 1:
        return 0
    acc = 0
    for k in range(j, n):
        sign = -1 if (n - 1 - k) % 2 else 1
        acc += sign * binomial(n - 1, k) * binomial(n + k - j - 2, k - j) * 2**k
    return exact_div(j * 2 ** (n - 1 - j) * acc, n - 1)


def reference_connected_convolution_entry(n, j):
    """Entry j of connected_vector(n) as one convolution of ordinary
    binomials, (j/(n-1)) [z**m] ((1-z)(1-2z))**-(n-1) with m = n-1-j: the
    double sum above with its outer sum taken by the binomial theorem."""
    if not 1 <= j <= n - 1:
        return 0
    m = n - 1 - j
    acc = 0
    for i in range(m + 1):
        acc += binomial(n - 2 + i, i) * binomial(n - 2 + m - i, m - i) * 2**i
    return exact_div(j * acc, n - 1)


def reference_partition_entry(n, j):
    """The paper's sum for entry j of partition_vector(n)."""
    if not 1 <= j <= n + 1:
        return 0
    lo = -((n + j + 1) // -2)
    acc = 0
    for k in range(lo, n + 2):
        acc += binomial(n + 1, k) * binomial(k - j - 1, 2 * k - n - j - 1) * 2 ** (2 * k - n - j - 1)
    return exact_div(j * acc, n + 1)


def reference_kangulation_entry(k, r, j):
    """The binomial form of entry j of kangulation_vector(k, r):
    (j/r) C((k-1)r - j - 1, r - j)."""
    if not 1 <= j <= r:
        return 0
    return exact_div(j * binomial((k - 1) * r - j - 1, r - j), r)


def _matches_reference(vector, reference, length):
    """vector holds entries j = 1..length of reference, which is 0 at
    j = -1, 0 and at the three j past length."""
    assert len(vector) == length
    for j in range(-1, length + 4):
        assert (vector[j - 1] if 1 <= j <= length else 0) == reference(j), j


def test_entries_match_paper_sums_to_60():
    for n in range(1, 61):
        cases = [(partition_vector, reference_partition_entry, n + 1)]
        if n >= 2:
            cases += [
                (geometric_vector, reference_geometric_entry, n - 1),
                (connected_vector, reference_connected_convolution_entry, n - 1),
            ]
        for vector, reference, length in cases:
            _matches_reference(vector(n), partial(reference, n), length)
    for k in (3, 4, 5, 6):
        for r in range(1, 61):
            reference = partial(reference_kangulation_entry, k, r)
            _matches_reference(kangulation_vector(k, r), reference, r)


def test_kangulation_entries():
    v = kangulation_vector(3, 3)
    assert v[2] == 1
    assert v[0] == 2
    assert v == (2, 2, 1)
    assert len(v) == 3  # no entry for j = 0 or j = 4
    with pytest.raises(ValueError, match="^k-angulations require k >= 3$"):
        kangulation_vector(2, 3)


def test_kangulation_catalan_sums():
    sums = [sum(kangulation_vector(3, r)) for r in range(1, 7)]
    assert sums == [1, 2, 5, 14, 42, 132]


def test_geometric_entries():
    assert geometric_vector(4) == (24, 16, 8)
    assert geometric_vector(5) == (176, 112, 48, 16)
    assert geometric_vector(2)[0] == 2
    assert len(geometric_vector(5)) == 4  # no entry for j = 0 or j = 5


def test_geometric_top_entry_power_of_two():
    # highest-degree entry doubles with n: 4, 8, 16, ... from n = 3
    for n in range(3, 13):
        assert geometric_vector(n)[n - 2] == 2 ** (n - 1)


def test_connected_entries():
    assert connected_vector(2)[0] == 1
    assert connected_vector(4) == (16, 6, 1)
    assert connected_vector(5) == (105, 41, 9, 1)
    assert len(connected_vector(4)) == 3  # no entry for j = 4


def test_connected_entry_matches_paper_double_sum():
    for n in range(2, 41):
        _matches_reference(connected_vector(n), partial(reference_connected_entry, n), n - 1)
    v = connected_vector(200)
    for j in (1, 2, 100, 199):
        assert v[j - 1] == reference_connected_entry(200, j), j


def test_partition_entries():
    assert partition_vector(3) == (2, 2, 0, 1)
    assert partition_vector(4) == (6, 4, 3, 0, 1)
    assert len(partition_vector(3)) == 4  # no entry for j = 5


def test_partition_trailing_pattern():
    for n in range(2, 13):
        v = partition_vector(n)
        assert v[n] == 1
        assert v[n - 1] == 0


def test_partition_catalan_sums():
    sums = [sum(partition_vector(n)) for n in range(1, 7)]
    assert sums == [1, 2, 5, 14, 42, 132]
    for n in range(1, 1001):
        assert sum(partition_vector(n)) == exact_div(binomial(2 * n, n), n + 1), n


def test_closed_form_equals_matrix_iteration():
    for n in range(2, 13):
        row = count_sequence(GraphClassSpec("geometric"), n)[-1]
        assert geometric_vector(n) == row.entries[: n - 1]
        row = count_sequence(GraphClassSpec("connected"), n)[-1]
        assert connected_vector(n) == row.entries[: n - 1]
    for n in range(1, 13):
        row = count_sequence(GraphClassSpec("partition"), n)[-1]
        assert partition_vector(n) == row.entries[: n + 1]
    for k in (3, 4, 5, 6):
        for r in range(1, 13):
            row = count_sequence(GraphClassSpec("kangulation", k), r)[-1]
            assert kangulation_vector(k, r) == row.entries[:r]


def test_closed_form_equals_matrix_iteration_at_400():
    n = 400

    def last(name, param=None):
        return count_sequence(GraphClassSpec(name, param), n)[-1].entries

    assert geometric_vector(n) == last("geometric")[: n - 1]
    assert connected_vector(n) == last("connected")[: n - 1]
    assert partition_vector(n) == last("partition")[: n + 1]
    for k in (3, 4, 5, 6):
        assert kangulation_vector(k, n) == last("kangulation", k)[:n]


REJECTED = [
    (kangulation_vector, (2, 0), "k-angulations require k >= 3"),
    (kangulation_vector, (3, -2), "r must be >= 1"),
    (geometric_vector, (1,), "n must be >= 2"),
    (geometric_vector, (-4,), "n must be >= 2"),
    (connected_vector, (0,), "n must be >= 2"),
    (partition_vector, (-1,), "n must be >= 1"),
    (partition_vector, (0,), "n must be >= 1"),
]


@pytest.mark.parametrize(
    "vector, args, message", REJECTED, ids=[f"{v.__name__}{args}" for v, args, _ in REJECTED]
)
def test_vector_rejects_what_its_entry_rejects(vector, args, message):
    # An empty range must not turn an unanswerable size into ().
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        vector(*args)


def test_lemma1_examples():
    assert lemma1_check(1, 1, 2)
    for m in range(6):
        for n in range(6):
            assert lemma1_check(0, m, n)
    with pytest.raises(ValueError):
        lemma1_check(-1, 0, 0)


def test_lemma1_small_cube():
    assert all(
        lemma1_check(t, m, n)
        for t in range(9)
        for m in range(9)
        for n in range(9)
    )
