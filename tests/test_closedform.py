import re

import pytest

from convexcount.closedform import (
    connected_entry,
    connected_vector,
    geometric_entry,
    geometric_vector,
    kangulation_entry,
    kangulation_vector,
    lemma1_check,
    partition_entry,
    partition_vector,
)
from convexcount.exact import binomial, exact_div
from convexcount.production import (
    connected_class,
    count_sequence,
    geometric_class,
    k_angulation_class,
    partition_class,
)


def reference_connected_entry(n, j):
    """The paper's alternating double sum for connected_entry, the
    (-1/2)**k of its outer sum cleared against the leading 2**(n-1); O(n**2)
    binomials, kept as the reference for the collapsed form."""
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
    """The paper's alternating sum for geometric_entry: O(n) binomials per
    entry, kept as the reference for the Lagrange recurrence."""
    if not 1 <= j <= n - 1:
        return 0
    acc = 0
    for k in range(j, n):
        sign = -1 if (n - 1 - k) % 2 else 1
        acc += sign * binomial(n - 1, k) * binomial(n + k - j - 2, k - j) * 2**k
    return exact_div(j * 2 ** (n - 1 - j) * acc, n - 1)


def reference_connected_convolution_entry(n, j):
    """connected_entry as one convolution of ordinary binomials,
    (j/(n-1)) [z**m] ((1-z)(1-2z))**-(n-1) with m = n-1-j: the double sum
    above with its outer sum taken by the binomial theorem."""
    if not 1 <= j <= n - 1:
        return 0
    m = n - 1 - j
    acc = 0
    for i in range(m + 1):
        acc += binomial(n - 2 + i, i) * binomial(n - 2 + m - i, m - i) * 2**i
    return exact_div(j * acc, n - 1)


def reference_partition_entry(n, j):
    """The paper's sum for partition_entry."""
    if not 1 <= j <= n + 1:
        return 0
    lo = -((n + j + 1) // -2)
    acc = 0
    for k in range(lo, n + 2):
        acc += binomial(n + 1, k) * binomial(k - j - 1, 2 * k - n - j - 1) * 2 ** (2 * k - n - j - 1)
    return exact_div(j * acc, n + 1)


def test_entries_match_paper_sums_to_60():
    for n in range(1, 61):
        pairs = [(partition_entry, reference_partition_entry)]
        if n >= 2:
            pairs += [
                (geometric_entry, reference_geometric_entry),
                (connected_entry, reference_connected_convolution_entry),
            ]
        for entry, reference in pairs:
            for j in range(-1, n + 3):
                assert entry(n, j) == reference(n, j), (entry.__name__, n, j)


def test_kangulation_entries():
    assert kangulation_entry(3, 3, 3) == 1
    assert kangulation_entry(3, 3, 1) == 2
    assert kangulation_vector(3, 3) == (2, 2, 1)
    assert kangulation_entry(3, 3, 0) == 0
    assert kangulation_entry(3, 3, 4) == 0
    with pytest.raises(ValueError):
        kangulation_entry(2, 3, 1)


def test_kangulation_catalan_sums():
    sums = [sum(kangulation_vector(3, r)) for r in range(1, 7)]
    assert sums == [1, 2, 5, 14, 42, 132]


def test_geometric_entries():
    assert geometric_vector(4) == (24, 16, 8)
    assert geometric_vector(5) == (176, 112, 48, 16)
    assert geometric_entry(2, 1) == 2
    assert geometric_entry(5, 0) == 0
    assert geometric_entry(5, 5) == 0


def test_geometric_top_entry_power_of_two():
    # highest-degree entry doubles with n: 4, 8, 16, ... from n = 3
    for n in range(3, 13):
        assert geometric_entry(n, n - 1) == 2 ** (n - 1)


def test_connected_entries():
    assert connected_entry(2, 1) == 1
    assert connected_vector(4) == (16, 6, 1)
    assert connected_vector(5) == (105, 41, 9, 1)
    assert connected_entry(4, 4) == 0


def test_connected_entry_matches_paper_double_sum():
    for n in range(2, 41):
        for j in range(0, n + 1):
            assert connected_entry(n, j) == reference_connected_entry(n, j), (n, j)
    for j in (1, 2, 100, 199):
        assert connected_entry(200, j) == reference_connected_entry(200, j), j


def test_partition_entries():
    assert partition_vector(3) == (2, 2, 0, 1)
    assert partition_vector(4) == (6, 4, 3, 0, 1)
    assert partition_entry(3, 5) == 0


def test_partition_trailing_pattern():
    for n in range(2, 13):
        assert partition_entry(n, n + 1) == 1
        assert partition_entry(n, n) == 0


def test_partition_catalan_sums():
    sums = [sum(partition_vector(n)) for n in range(1, 7)]
    assert sums == [1, 2, 5, 14, 42, 132]
    for n in range(1, 1001):
        assert sum(partition_vector(n)) == exact_div(binomial(2 * n, n), n + 1), n


def test_closed_form_equals_matrix_iteration():
    for n in range(2, 13):
        row = count_sequence(geometric_class(), n)[-1]
        assert geometric_vector(n) == row.entries[: n - 1]
        row = count_sequence(connected_class(), n)[-1]
        assert connected_vector(n) == row.entries[: n - 1]
    for n in range(1, 13):
        row = count_sequence(partition_class(), n)[-1]
        assert partition_vector(n) == row.entries[: n + 1]
    for k in (3, 4, 5, 6):
        for r in range(1, 13):
            row = count_sequence(k_angulation_class(k), r)[-1]
            assert kangulation_vector(k, r) == row.entries[:r]


def test_closed_form_equals_matrix_iteration_at_400():
    n = 400
    assert geometric_vector(n) == count_sequence(geometric_class(), n)[-1].entries[: n - 1]
    assert connected_vector(n) == count_sequence(connected_class(), n)[-1].entries[: n - 1]
    assert partition_vector(n) == count_sequence(partition_class(), n)[-1].entries[: n + 1]


@pytest.mark.parametrize(
    "vector, entry, args",
    [
        (kangulation_vector, kangulation_entry, (2, 0)),
        (kangulation_vector, kangulation_entry, (3, -2)),
        (geometric_vector, geometric_entry, (1,)),
        (geometric_vector, geometric_entry, (-4,)),
        (connected_vector, connected_entry, (0,)),
        (partition_vector, partition_entry, (-1,)),
        (partition_vector, partition_entry, (0,)),
    ],
)
def test_vector_rejects_what_its_entry_rejects(vector, entry, args):
    # An empty range must not turn an unanswerable size into ().
    with pytest.raises(ValueError) as want:
        entry(*args, 1)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
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
