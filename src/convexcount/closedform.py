"""Closed-form counts by root degree, evaluated independently of any matrix.

Each formula multiplies first and divides last, asserting exact divisibility,
so integrality failures surface instead of being rounded away.  Boundary
terms hit binomials with upper index -1 and lower index 0, which
``binomial`` evaluates to 1.
"""
from __future__ import annotations

from .exact import binomial, exact_div


def kangulation_entry(k: int, r: int, j: int) -> int:
    """Number of k-angulations with r k-gons and root degree j-1:
    (j/r) C((k-1)r - j - 1, r - j)."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    if not 1 <= j <= r:
        return 0
    return exact_div(j * binomial((k - 1) * r - j - 1, r - j), r)


def geometric_entry(n: int, j: int) -> int:
    """Number of plane graphs on n vertices with root visibility degree j-1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= j <= n - 1:
        return 0
    acc = 0
    for k in range(j, n):
        sign = -1 if (n - 1 - k) % 2 else 1
        acc += sign * binomial(n - 1, k) * binomial(n + k - j - 2, k - j) * 2**k
    return exact_div(j * 2 ** (n - 1 - j) * acc, n - 1)


def connected_entry(n: int, j: int) -> int:
    """Number of connected plane graphs on n vertices with root visibility
    degree j-1.

    The binomial theorem sums the outer sum of the paper's alternating
    double sum, leaving the Lagrange form (j/(n-1)) [z**m] A(z)**(n-1) of
    the A-sequence A(z) = 1/((1-z)(1-2z)), m = n-1-j: one convolution of
    ordinary binomials.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= j <= n - 1:
        return 0
    m = n - 1 - j
    acc = 0
    for i in range(m + 1):
        acc += binomial(n - 2 + i, i) * binomial(n - 2 + m - i, m - i) * 2**i
    return exact_div(j * acc, n - 1)


def partition_entry(n: int, j: int) -> int:
    """Number of non-crossing partitions of [n] with root isolation degree j-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= j <= n + 1:
        return 0
    lo = -((n + j + 1) // -2)
    acc = 0
    for k in range(lo, n + 2):
        acc += binomial(n + 1, k) * binomial(k - j - 1, 2 * k - n - j - 1) * 2 ** (2 * k - n - j - 1)
    return exact_div(j * acc, n + 1)


# Each vector's range holds at least j = 1, so the entry function's input
# checks run even where the size leaves no entry.


def kangulation_vector(k: int, r: int) -> tuple[int, ...]:
    return tuple(kangulation_entry(k, r, j) for j in range(1, max(r, 1) + 1))


def geometric_vector(n: int) -> tuple[int, ...]:
    return tuple(geometric_entry(n, j) for j in range(1, max(n, 2)))


def connected_vector(n: int) -> tuple[int, ...]:
    return tuple(connected_entry(n, j) for j in range(1, max(n, 2)))


def partition_vector(n: int) -> tuple[int, ...]:
    return tuple(partition_entry(n, j) for j in range(1, max(n, 0) + 2))


def lemma1_check(t: int, m: int, n: int) -> bool:
    """Verify sum_j (-1)**j C(j+m-1, j) C(m(t+1), n-j-t) == C(mt, n-t).

    Written with the multiset form C(j+m-1, j) of the first factor, which
    agrees with C(j+m-1, m-1) for every m >= 1 and keeps the m = 0 case
    meaningful (only the j = 0 term survives).
    """
    if t < 0 or m < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    lhs = 0
    for j in range(n + 1):
        sign = -1 if j % 2 else 1
        lhs += sign * binomial(j + m - 1, j) * binomial(m * (t + 1), n - j - t)
    return lhs == binomial(m * t, n - t)
