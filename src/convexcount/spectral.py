"""Characteristic polynomials and eigenpairs of the production matrices.

The banded recurrence and the closed forms are evaluated in Python integers
(each closed-form coefficient is one sum of ordinary binomials, every
division asserted exact).  Real eigenvalues are then located on the exact polynomial,
never by floating-point matrix solvers, in two steps.  Isolation is
integer throughout: one primitive remainder sequence gives the Sturm
chain, and dividing it by its last member, the gcd of p and p', gives the
square-free part at its head.  Signs are taken at dyadic grid
points by integer Horner evaluation.  Refinement runs per root, so a caller
that prints one root refines only the candidates for it; quadratic interval
refinement on the same grid lands on the cell that sign bisection would,
so the roots are the same.  ``Fraction`` appears only in the tolerance, the
root bound B and the returned roots.  Eigenvectors and their residuals run
the band's recurrences at the root, O(n * len(den)) per root, in mpmath at
CONVEX_COUNT_PRECISION bits (default 256).  mpmath is imported on first use,
by the functions that compute with it, so exact work never loads it.
"""
from __future__ import annotations

import os
from fractions import Fraction
from math import gcd
from operator import add
from typing import NamedTuple

from .exact import HTMatrix, IntPolynomial, _suffix_sums, binomial, exact_div

DEFAULT_PRECISION_BITS = 256


def precision_bits() -> int:
    """Working precision in bits, from CONVEX_COUNT_PRECISION."""
    raw = os.environ.get("CONVEX_COUNT_PRECISION", "")
    try:
        bits = int(raw) if raw else DEFAULT_PRECISION_BITS
    except ValueError:
        raise ValueError(f"CONVEX_COUNT_PRECISION must be an integer, got {raw!r}")
    if bits < 53:
        raise ValueError("precision must be at least 53 bits")
    return bits


def charpoly_recurrence(m: HTMatrix) -> tuple[IntPolynomial, ...]:
    """Characteristic polynomials d_0..d_n of an n x n Hessenberg-Toeplitz matrix:
    index i holds d_i, that of the leading i x i block (d_0 = 1).

    Expanding det(A_s - x I) along its last column gives

        d_s = -x d_{s-1} + U_{s-1},    U_j = sum_{m=0..j} b_m d_{j-m},

    with b_m = (-sub)**m * band[m].  The band is the power series of
    num(z)/den(z) (``m.band_series``: ``band_gf``, or band/1), so
    sum_m b_m z**m = num(-sub z)/den(-sub z) and U obeys the recurrence of
    order len(den) - 1

        U_j = sum_r num_r (-sub)**r d_{j-r} - sum_{r>=1} den_r (-sub)**r U_{j-r}.

    Each degree costs len(num) + len(den) - 1 polynomial axpy steps, so a
    band with a generating function takes O(n**2 * len(den)) integer
    operations in all.  Without one, den = 1 and U_j is the plain
    convolution, O(n**3) in all.
    """
    n = m.size
    ps, qs = _recurrence_terms(m, n)
    history = max((r for r, _ in qs), default=0)
    ds = [[1]]
    us: list[list[int]] = []  # U_{j-len(us)}..U_{j-1}, at most `history` of them
    for j in range(n):
        u = [0] * (j + 1)
        for r, c in ps:
            if r > j:
                break
            _axpy(u, c, ds[j - r])
        for r, c in qs:
            if r > j:
                break
            _axpy(u, c, us[-r])
        us.append(u)
        if len(us) > history:
            del us[0]
        d = ds[j]  # d_{j+1} = -x d_j + U_j
        ds.append(u[:1] + [a - b for a, b in zip(u[1:], d)] + [-d[-1]])
    return tuple(IntPolynomial(d) for d in ds)


def _recurrence_terms(m: HTMatrix, n: int):
    """The recurrence's nonzero terms (r, num_r (-sub)**r) for r < n, and
    (r, -den_r (-sub)**r) for r >= 1."""
    num, den = m.band_series
    neg_sub = -m.sub
    ps = [(r, c * neg_sub**r) for r, c in enumerate(num[:n]) if c]
    qs = [(r, -c * neg_sub**r) for r, c in enumerate(den) if c and r]
    return ps, qs


def _axpy(acc: list[int], c: int, p: list[int]) -> None:
    """acc[i] += c * p[i] for i < len(p) <= len(acc)."""
    acc[: len(p)] = map(add, acc, map(c.__mul__, p))


# Closed forms.  The expansion in charpoly_recurrence gives
# sum_s d_s z**s = 1/(1 + x z - z B(z)), B(z) = sum_m b_m z**m, so
# [x**t] d_n = (-1)**t [u**(n-t)] Q(u)**(t+1) with Q = 1/(1 - u B(u)): a
# rational function fixed per class, written out below without any band.


def charpoly_closed_kangulation(k: int, r: int) -> IntPolynomial:
    """Closed form for the k-angulation matrix: Q(u) = (1+u)**(k-2), so
    [x**l] = (-1)**l C((k-2)(l+1), r-l)."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 0:
        raise ValueError("r must be >= 0")
    coeffs = []
    for ell in range(r + 1):
        c = binomial((k - 2) * (ell + 1), r - ell)
        coeffs.append(-c if ell % 2 else c)
    return IntPolynomial(coeffs)


def _charpoly_lagrange(n: int, e: int, s: int = 1) -> IntPolynomial:
    """The closed form for Q(u) = (1+2su)(1+su)**e: the coefficient of x**t
    is (-1)**t s**(n-t) sum_i C(t+1, i) 2**i C(e(t+1), n-t-i).

    Each term comes from the one before by its ratio, from the first i at
    which C(e(t+1), n-t-i) is nonzero; no denominator in the ratio vanishes
    from there on.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = []
    for t in range(n + 1):
        m, a = n - t, e * (t + 1)
        lo = max(0, m - a) if a >= 0 else 0
        term = (binomial(t + 1, lo) * binomial(a, m - lo)) << lo
        c = term
        for i in range(lo, min(t + 1, m)):
            term = exact_div(2 * (t + 1 - i) * (m - i) * term, (i + 1) * (a - m + i + 1))
            c += term
        coeffs.append((-c if t % 2 else c) * s**m)
    return IntPolynomial(coeffs)


def charpoly_closed_geometric(n: int) -> IntPolynomial:
    """Closed form for the plane-graph matrix: Q(u) = (1+4u)/(1+2u), so
    [x**t] = (-1)**t 2**(n-t) sum_i C(t+1, i) 2**i C(-t-1, n-t-i)."""
    return _charpoly_lagrange(n, -1, 2)


def charpoly_closed_connected(n: int) -> IntPolynomial:
    """Closed form for the connected-graph matrix: Q(u) = (1+u)(1+2u), so
    [x**t] = (-1)**t sum_i C(t+1, i) 2**i C(t+1, n-t-i)."""
    return _charpoly_lagrange(n, 1)


def charpoly_closed_partition(n: int) -> IntPolynomial:
    """Closed form for the non-crossing partition matrix:
    Q(u) = (1+2u)/(1+u)**2, so
    [x**t] = (-1)**t sum_i C(t+1, i) 2**i C(-2t-2, n-t-i)."""
    return _charpoly_lagrange(n, -2)


# ---------------------------------------------------------------------------
# Exact real-root location over the integers (Sturm isolation, then
# quadratic interval refinement).
#
# Polynomials are lists of ints, low to high, and each one stands for itself
# times any nonzero constant: the root bound, the roots and the sign tests
# below do not see that constant.  The Sturm chain is a primitive remainder
# sequence whose members are positive multiples of those of the rational
# Euclidean algorithm, so it counts sign variations exactly as that one does;
# dividing every member by the same g keeps that count wherever g is nonzero.
# Both steps run on the dyadic grid x = B*s/2**k inside (-B, B); with
# B = P/Q, a polynomial p of degree d is rescaled once to
# r(t) = Q**d * p(P*t/Q), whose sign at t = s/2**k is read off the integer
# 2**(k*d) * r(s/2**k).

def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: list[int]) -> list[int]:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _primitive(p: list[int]) -> list[int]:
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of |lc(b)|**(deg a - deg b + 1) * a on division by b: a
    positive multiple of the remainder over the rationals."""
    db = len(b) - 1
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    rem = list(a)
    for i in range(len(a) - len(b), -1, -1):
        coef = sign * rem[i + db]
        rem = [c * scale for c in rem[: i + db]]
        for j in range(db):
            rem[i + j] -= coef * b[j]
    return _trim(rem)


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b, which must be exact over the integers."""
    db = len(b) - 1
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        coef, r = divmod(rem[i + db], b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        quo[i] = coef
        for j in range(db):
            rem[i + j] -= coef * b[j]
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return quo


def _sturm_chain(q: list[int]) -> list[list[int]]:
    """The Sturm chain of q by a primitive remainder sequence, every member
    divided by the last one, g = gcd(q, q'), when g has degree >= 1.

    The division is exact because g is primitive (Gauss's lemma).  It leaves
    the sign variations unchanged wherever g is nonzero, and chain[0] is
    then the square-free part of q.  A constant q gives [q].
    """
    if len(q) <= 1:
        return [q]
    chain = [q, _primitive(_derivative(q))]
    while True:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    g = chain[-1]
    return [_divexact(r, g) for r in chain] if len(g) > 1 else chain


def _on_grid(p: list[int], P: int, Q: int) -> list[int]:
    """Coefficients of Q**d * p(P*t/Q), d = deg p."""
    d = len(p) - 1
    return [c * P**i * Q ** (d - i) for i, c in enumerate(p)]


def _eval_dyadic(r: list[int], s: int, k: int) -> int:
    """2**(k*deg r) * r(s / 2**k), by Horner with shifts."""
    acc = 0
    shift = 0
    for c in reversed(r):
        acc = acc * s + (c << shift)
        shift += k
    return acc


def _variations(chain: list[list[int]], s: int, k: int) -> int:
    count = last = 0
    for r in chain:
        v = _eval_dyadic(r, s, k)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _isolate(chain: list[list[int]]):
    """Bisect t in (-1, 1) until each interval (lo/2**k, hi/2**k) holds one
    root of chain[0].  Returns (intervals, None), or ([], (s, k)) as soon
    as a split point s/2**k is itself a root."""
    stack = [(-1, 1, 0, _variations(chain, -1, 0), _variations(chain, 1, 0))]
    isolated = []
    while stack:
        lo, hi, k, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 0:
            continue
        if count == 1:
            isolated.append((lo, hi, k))
            continue
        mid, k = lo + hi, k + 1
        if _eval_dyadic(chain[0], mid, k) == 0:
            return [], (mid, k)
        v_mid = _variations(chain, mid, k)
        stack.append((2 * lo, mid, k, v_lo, v_mid))
        stack.append((mid, 2 * hi, k, v_mid, v_hi))
    return isolated, None


class _Isolation(NamedTuple):
    """Distinct real roots before refinement: those found exactly, and
    intervals (lo, hi, k), t in (lo/2**k, hi/2**k) with x = P*t/Q, each
    holding one root of the rescaled square-free part ``f`` inside."""

    exact: list[Fraction]
    P: int
    Q: int
    f: list[int]
    cells: list[tuple[int, int, int]]

    @property
    def count(self) -> int:
        return len(self.exact) + len(self.cells)


def _checked_tol(p: IntPolynomial, tol: Fraction | float) -> Fraction:
    if p.is_zero():
        raise ValueError("zero polynomial has every number as a root")
    tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol


def _isolate_real_roots(p: IntPolynomial) -> _Isolation:
    """Sturm isolation of the distinct real roots of p, on the square-free
    part q that heads its Sturm chain.  A split point that is itself a root
    is divided out of q and isolation restarts on the quotient's chain."""
    chain = _sturm_chain(list(p.coeffs))
    q = chain[0]
    exact: list[Fraction] = []
    P = Q = 1
    f: list[int] = []
    cells: list[tuple[int, int, int]] = []
    while len(q) > 2:
        bound = 2 + Fraction(max(abs(c) for c in q[:-1]), abs(q[-1]))
        P, Q = bound.numerator, bound.denominator
        grid = [_on_grid(r, P, Q) for r in chain]
        f = grid[0]
        cells, hit = _isolate(grid)
        if hit is None:
            break
        root = Fraction(P * hit[0], Q << hit[1])
        exact.append(root)
        chain = _sturm_chain(_divexact(q, [-root.numerator, root.denominator]))
        q = chain[0]
    if len(q) == 2:
        exact.append(Fraction(-q[0], q[1]))
    return _Isolation(exact, P, Q, f, cells)


def _refine(iso: _Isolation, cell: tuple[int, int, int], tol: Fraction) -> Fraction:
    """The root in ``cell``, as sign bisection would return it.

    Bisection halves the interval until B*(hi-lo)/2**k <= tol and returns
    the centre of the final interval, or the root itself when a split point
    hits it.  Every isolating interval at level k >= 1 is the dyadic cell
    [a, a+1]/2**(k-1) with a = lo/2, so that result depends only on the
    root: the centre of the cell of level c = K-1 that contains it, K the
    first level that meets the tolerance, or the root when it is a grid
    point of level c or coarser.  The cell is found here by quadratic
    interval refinement (Abbott, "Quadratic Interval Refinement for Real
    Roots", 2006): a secant step guesses which of N = 2**e subcells holds
    the root and signs at the subcell's ends confirm it; a hit squares N,
    a miss takes its square root, and N = 2 is one bisection step.
    """
    f, P, Q = iso.f, iso.P, iso.Q
    lo, hi, k = cell
    # the first level K >= k at which the interval's width meets tol
    need, have = P * tol.denominator * (hi - lo), tol.numerator * Q
    K = max(k, need.bit_length() - have.bit_length())
    while have << K < need:
        K += 1
    if K == k:
        return Fraction(P * (lo + hi), Q << (k + 1))
    if k == 0:  # the interval (-1, 1): bisect once at 0
        f_lo, f_mid = _eval_dyadic(f, -1, 0), f[0]
        if f_mid == 0:
            return Fraction(0)
        if (f_mid > 0) != (f_lo > 0):
            a, fa, fb = -1, f_lo, f_mid
        else:
            a, fa, fb = 0, f_mid, _eval_dyadic(f, 1, 0)
    else:
        a, k = lo >> 1, k - 1
        fa, fb = _eval_dyadic(f, a, k), _eval_dyadic(f, a + 1, k)
    # the cell [a, a+1]/2**k holds the root strictly inside; fa, fb are the
    # values of f at its ends, scaled by 2**(k*deg f)
    d = len(f) - 1
    c = K - 1
    e = 2
    while k < c:
        e = min(e, c - k)
        n_sub = 1 << e
        diff = fa - fb
        m = min(max((2 * n_sub * fa + diff) // (2 * diff), 1), n_sub - 1)
        s, k_next = (a << e) + m, k + e
        fs = _eval_dyadic(f, s, k_next)
        if fs == 0:
            return Fraction(P * s, Q << k_next)
        right = (fs > 0) == (fa > 0)  # the root lies right of s
        t = s + 1 if right else s - 1
        if t == a << e:
            ft = fa << (e * d)
        elif t == (a + 1) << e:
            ft = fb << (e * d)
        else:
            ft = _eval_dyadic(f, t, k_next)
            if ft == 0:
                return Fraction(P * t, Q << k_next)
        if (ft > 0) != (fs > 0):
            a, k = min(s, t), k_next
            fa, fb = (fs, ft) if right else (ft, fs)
            e *= 2
        else:
            e = max(e // 2, 1)
    return Fraction(P * (2 * a + 1), Q << (c + 1))


def real_roots(p: IntPolynomial, tol: Fraction | float = Fraction(1, 10**40)) -> list[Fraction]:
    """All distinct real roots of an integer polynomial, each within ``tol``
    of the true root.  Rational roots hit head-on by the bisection grid
    (including all roots of linear factors) come back exactly.
    """
    tol = _checked_tol(p, tol)
    iso = _isolate_real_roots(p)
    roots = iso.exact + [_refine(iso, cell, tol) for cell in iso.cells]
    roots.sort()
    return roots


def _dominant_root(p: IntPolynomial, tol: Fraction | float) -> tuple[int, Fraction | None]:
    """The number of distinct real roots of p, and the one of largest
    modulus as ``real_roots`` gives it (ties go to the positive root), or
    None.  Only the leftmost and rightmost isolating intervals are refined:
    no other root can have a larger modulus."""
    tol = _checked_tol(p, tol)
    iso = _isolate_real_roots(p)
    candidates = list(iso.exact)
    if iso.cells:
        top = max(k for _, _, k in iso.cells)

        def left_end(cell):
            return cell[0] << (top - cell[2])

        ends = {min(iso.cells, key=left_end), max(iso.cells, key=left_end)}
        candidates += [_refine(iso, cell, tol) for cell in ends]
    best = max(candidates, key=lambda r: (abs(r), r), default=None)
    return iso.count, best


# ---------------------------------------------------------------------------
# Eigenpairs.

class EigenPair(NamedTuple):
    """Candidate eigenpair with its relative residual max|Ax - lx| / max|x|.
    The vector is ordered (x_{n-1}, ..., x_0), matching the matrix rows."""

    lam: object
    vector: tuple
    residual: object


def _to_mp(x):
    from mpmath import mp

    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpmathify(x)


def _charpoly_values(m: HTMatrix, lam, n: int) -> list:
    """d_0(lam)..d_n(lam), by charpoly_recurrence's recurrence run on numbers
    at the working precision: O(n * len(den)) operations with a band_gf."""
    ps, qs = _recurrence_terms(m, n)
    ds = [lam * 0 + 1]  # complex when lam is
    us = []
    for j in range(n):
        u = sum(c * ds[j - r] for r, c in ps if r <= j)
        u += sum(c * us[j - r] for r, c in qs if r <= j)
        us.append(u)
        ds.append(u - lam * ds[j])
    return ds


def eigenvector_from_charpoly(m: HTMatrix, lam) -> EigenPair:
    """Eigenvector candidate x_i = (-1/a_sub)**i d_i(lam) with x_0 = 1.

    ``lam`` should approximate a root of the size-n characteristic
    polynomial; the returned residual tells how good the pair is, so a
    non-eigenvalue simply comes back with a large residual.  Row i of the
    product is sub * v[i-1] + T_i with the suffix sums T_i of ``mat_vec``,
    so a band with a generating function costs O(n * len(den)) per root.
    """
    if m.sub == 0:
        raise ValueError("eigenvector formula requires a nonzero subdiagonal")
    from mpmath import mp

    n = m.size
    with mp.workprec(precision_bits()):
        lam_mp = _to_mp(lam)
        factor = mp.mpf(-1) / m.sub
        ds = _charpoly_values(m, lam_mp, n - 1)
        xs = [d * factor**i for i, d in enumerate(ds)]
        vector = tuple(reversed(xs))  # (x_{n-1}, ..., x_0)
        ts = _suffix_sums(m.band_series, vector)
        resid = mp.mpf(0)
        for i in range(n):
            row_val = m.sub * vector[i - 1] + ts[i] if i else ts[0]
            resid = max(resid, abs(row_val - lam_mp * vector[i]))
        scale = max(abs(x) for x in vector)
        residual = resid / scale if scale != 0 else resid
        return EigenPair(lam_mp, vector, residual)


def dominant_eigenvalue(m: HTMatrix, tol: float | Fraction = 1e-30):
    """Largest-modulus real root of the exact characteristic polynomial,
    located to within ``tol`` (ties broken toward the positive root)."""
    _, best = _dominant_root(charpoly_recurrence(m)[m.size], Fraction(tol))
    if best is None:
        raise ValueError("no real eigenvalue found")
    from mpmath import mp

    with mp.workprec(precision_bits()):
        return _to_mp(best)
