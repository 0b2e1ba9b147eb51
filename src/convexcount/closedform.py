"""Closed forms, evaluated independently of any matrix: the count vectors
by root degree and the characteristic polynomials of the production
matrices.

Every closed form reads p_k = [z**k] A(sigma z)**N for one power N, one
integer sigma and one series A = (1-z)**a (1-2z)**b, times a constant.
A'/A has the denominator (1-z)(1-2z), so the p_k obey a two-term recurrence
(J. C. P. Miller's rule; Knuth, TAOCP vol. 2, 4.7), and `_power_series` is
the only routine that computes them.  The count vectors are Lagrange forms:
entry j of a level is (j/N) [z**(N-j)] (c A)**N, so a vector costs O(n)
big-integer steps.  The k-angulation vector has N = r and A = (1-z)**(2-k).
The closed characteristic polynomials come back as d_n alone, a tuple of
n + 1 ints low to high, like ``exact.charpoly_top``: coefficient t is the
last term of one series of length n - t + 1, so d_n costs about n**2 / 2
big-integer steps and holds one series at a time.  Every
formula multiplies first and divides last, asserting exact divisibility, so
integrality failures surface instead of being rounded away.
"""
from __future__ import annotations

from .exact import binomial, exact_div


def _power_series(N: int, a: int, b: int, length: int, scale: int, sigma: int = 1) -> list[int]:
    """p_0..p_(length-1), p_k = scale [z**k] A(sigma z)**N with
    A = (1-z)**a (1-2z)**b.

    A'/A = ((2a+2b) z - a - 2b) / ((1-z)(1-2z)), so
    (k+1) p_(k+1) = sigma (3k - N(a+2b)) p_k + sigma**2 (2N(a+b) - 2(k-1)) p_(k-1),
    p_0 = scale.
    """
    s2 = sigma * sigma
    u, v = -N * (a + 2 * b) * sigma, (2 * N * (a + b) + 2) * s2
    du, dv = 3 * sigma, 2 * s2
    p, q = 0, scale  # p_(k-1), p_k
    ps = [q]
    for k in range(length - 1):
        p, q = q, exact_div((du * k + u) * q + (v - dv * k) * p, k + 1)
        ps.append(q)
    return ps[:length]


def _lagrange_vector(N: int, a: int, b: int, c: int = 1) -> tuple[int, ...]:
    """(j/N) [z**(N-j)] A(z)**N for j = 1..N, with A = c (1-z)**a (1-2z)**b."""
    ps = _power_series(N, a, b, N, c**N)
    return tuple(exact_div(j * ps[N - j], N) for j in range(1, N + 1))


def kangulation_vector(k: int, r: int) -> tuple[int, ...]:
    """k-angulations with r k-gons by root degree j-1, j = 1..r:
    (j/r) C((k-1)r - j - 1, r - j), that is N = r and A = (1-z)**(2-k)."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    return _lagrange_vector(r, 2 - k, 0)


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


# Characteristic polynomials.  The expansion in exact.charpoly_recurrence
# gives sum_s d_s z**s = 1/(1 + x z - z B(z)), B(z) = sum_m b_m z**m, so
# [x**t] d_n = (-1)**t [u**(n-t)] Q(u)**(t+1) with Q = 1/(1 - u B(u)): a
# rational function fixed per class, written out below without any band.
# Each Q is (1+2su)**b (1+su)**e, so every coefficient is read from
# `_power_series`.


def _charpoly_closed(n: int, e: int, s: int = 1, b: int = 1) -> tuple[int, ...]:
    """d_n for Q(u) = (1+2su)**b (1+su)**e: with A = (1-z)**e (1-2z)**b,
    Q(u) = A(-su), so [x**t] d_n is (-1)**t [u**(n-t)] A(-su)**(t+1), the
    last term of one series per t."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(_power_series(t + 1, e, b, n - t + 1, (-1) ** t, -s)[-1] for t in range(n + 1))


def charpoly_closed_kangulation(k: int, r: int) -> tuple[int, ...]:
    """Closed form d_r for the k-angulation matrix: Q(u) = (1+u)**(k-2),
    so [x**l] d_r = (-1)**l C((k-2)(l+1), r-l)."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 0:
        raise ValueError("r must be >= 0")
    return _charpoly_closed(r, k - 2, b=0)


def charpoly_closed_geometric(n: int) -> tuple[int, ...]:
    """Closed form d_n for the plane-graph matrix: Q(u) = (1+4u)/(1+2u),
    so [x**t] d_n = (-1)**t 2**(n-t) sum_i C(t+1, i) 2**i C(-t-1, n-t-i)."""
    return _charpoly_closed(n, -1, 2)


def charpoly_closed_connected(n: int) -> tuple[int, ...]:
    """Closed form d_n for the connected-graph matrix: Q(u) = (1+u)(1+2u),
    so [x**t] d_n = (-1)**t sum_i C(t+1, i) 2**i C(t+1, n-t-i)."""
    return _charpoly_closed(n, 1)


def charpoly_closed_partition(n: int) -> tuple[int, ...]:
    """Closed form d_n for the non-crossing partition matrix:
    Q(u) = (1+2u)/(1+u)**2, so
    [x**t] d_n = (-1)**t sum_i C(t+1, i) 2**i C(-2t-2, n-t-i)."""
    return _charpoly_closed(n, -2)


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
