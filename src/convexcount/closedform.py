"""Closed-form counts by root degree, evaluated independently of any matrix.

The geometric, connected and partition vectors are Lagrange forms: entry j
of a level is (j/N) [z**(N-j)] A(z)**N, with a power N and an A-sequence
A = c (1-z)**a (1-2z)**b fixed per class.  A'/A has the denominator
(1-z)(1-2z), so the coefficients of P = A**N obey a two-term recurrence
(J. C. P. Miller's rule; Knuth, TAOCP vol. 2, 4.7) and a vector costs O(n)
big-integer steps.  Every formula multiplies first and divides last,
asserting exact divisibility, so integrality failures surface instead of
being rounded away.  Each entry reads its vector.
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


def _lagrange_vector(N: int, a: int, b: int, c: int = 1) -> tuple[int, ...]:
    """(j/N) [z**(N-j)] A(z)**N for j = 1..N, with A = c (1-z)**a (1-2z)**b.

    A'/A = ((2a+2b) z - a - 2b) / ((1-z)(1-2z)), so p_k = [z**k] A**N obey
    (k+1) p_(k+1) = (3k - N(a+2b)) p_k + (2N(a+b) - 2(k-1)) p_(k-1),
    p_0 = c**N.
    """
    u, v = -N * (a + 2 * b), 2 * N * (a + b) + 2
    ps = [0, c**N]  # p_(-1), p_0, p_1, ...
    for k in range(N - 1):
        ps.append(exact_div((3 * k + u) * ps[-1] + (v - 2 * k) * ps[-2], k + 1))
    return tuple(exact_div(j * ps[N - j + 1], N) for j in range(1, N + 1))


def _pick(vector: tuple[int, ...], j: int) -> int:
    return vector[j - 1] if 1 <= j <= len(vector) else 0


def kangulation_vector(k: int, r: int) -> tuple[int, ...]:
    # The range holds at least j = 1, so the entry's input checks run even
    # where r leaves no entry.
    return tuple(kangulation_entry(k, r, j) for j in range(1, max(r, 1) + 1))


def geometric_vector(n: int) -> tuple[int, ...]:
    """Plane graphs on n vertices by root visibility degree j-1, j = 1..n-1:
    N = n-1 and A = 2(1-z)/(1-2z)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _lagrange_vector(n - 1, 1, -1, 2)


def connected_vector(n: int) -> tuple[int, ...]:
    """Connected plane graphs on n vertices by root visibility degree j-1,
    j = 1..n-1: N = n-1 and A = 1/((1-z)(1-2z))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _lagrange_vector(n - 1, -1, -1)


def partition_vector(n: int) -> tuple[int, ...]:
    """Non-crossing partitions of [n] by root isolation degree j-1,
    j = 1..n+1: N = n+1 and A = (1-z)**2/(1-2z)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _lagrange_vector(n + 1, 2, -1)


def geometric_entry(n: int, j: int) -> int:
    """Number of plane graphs on n vertices with root visibility degree j-1."""
    return _pick(geometric_vector(n), j)


def connected_entry(n: int, j: int) -> int:
    """Number of connected plane graphs on n vertices with root visibility
    degree j-1."""
    return _pick(connected_vector(n), j)


def partition_entry(n: int, j: int) -> int:
    """Number of non-crossing partitions of [n] with root isolation degree j-1."""
    return _pick(partition_vector(n), j)


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
