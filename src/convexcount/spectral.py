"""Real eigenvalues and eigenpairs of the production matrices.

The eigenvalues are located on the exact characteristic polynomial d_n from
``exact.charpoly_top``, never by floating-point matrix solvers, in
two steps.  A polynomial is any sequence of ints, low to high, such as a
d_j of the tuple (d_0, ..., d_n) that every charpoly route returns; its
trailing zeros are ignored.  Isolation is integer throughout: one primitive
remainder sequence gives the Sturm chain, and dividing it by its last
member, the gcd of p and p', gives the square-free part at its head.
Signs are taken at dyadic grid points by integer Horner evaluation.
Isolation returns its cells in position order, right to left, so the
outermost two are the first and the last.  Refinement runs per root, so a
caller that prints the dominant root refines only those two; quadratic
interval refinement on the same grid lands on the cell that sign bisection
would, so the roots are the same.
``Fraction`` appears only in the tolerance, the root bound B and the
returned roots.  Eigenpairs are exact too: at a rational root the band's
recurrence runs in integers (``exact._charpoly_values``), and the vector
comes back as integers over one common denominator with its residual as a
Fraction.  Nothing here computes in floating point; the CLI prints the
digits in integer arithmetic too, and no layer loads mpmath.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .exact import HTMatrix, _charpoly_values

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
    root of chain[0].  Returns (intervals, None), right to left: the stack
    pops each right half before its left one.  Returns ([], (s, k)) as soon
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
    holding one root of the rescaled square-free part ``f`` inside, right
    to left."""

    exact: list[Fraction]
    P: int
    Q: int
    f: list[int]
    cells: list[tuple[int, int, int]]


def _checked(p: Sequence[int], tol: Fraction | float) -> tuple[list[int], Fraction]:
    """p as a list without trailing zeros, and tol as a Fraction."""
    p = _trim(list(p))
    if not p:
        raise ValueError("zero polynomial has every number as a root")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return p, tol


def _isolate_real_roots(p: list[int]) -> _Isolation:
    """Sturm isolation of the distinct real roots of p, on the square-free
    part q that heads its Sturm chain.  A split point that is itself a root
    is divided out of q and isolation restarts on the quotient's chain."""
    chain = _sturm_chain(p)
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
    if k == 0:  # the interval (-1, 1): take the half that holds the root
        if f[0] == 0:
            return Fraction(0)
        a = -1 if (f[0] > 0) != (_eval_dyadic(f, -1, 0) > 0) else 0
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


def real_roots(p: Sequence[int], tol: Fraction | float = Fraction(1, 10**40)) -> list[Fraction]:
    """All distinct real roots of an integer polynomial, its coefficients low
    to high, each within ``tol`` of the true root.  Rational roots hit
    head-on by the bisection grid (including all roots of linear factors)
    come back exactly.
    """
    p, tol = _checked(p, tol)
    iso = _isolate_real_roots(p)
    return sorted(iso.exact + [_refine(iso, cell, tol) for cell in iso.cells])


def dominant_root(p: Sequence[int], tol: Fraction | float) -> tuple[int, Fraction | None]:
    """The number of distinct real roots of p, and the one of largest
    modulus as ``real_roots`` gives it (ties go to the positive root), or
    None.  Isolation returns its intervals right to left, so only the first
    and the last are refined: no other root can have a larger modulus."""
    p, tol = _checked(p, tol)
    iso = _isolate_real_roots(p)
    ends = {iso.cells[0], iso.cells[-1]} if iso.cells else ()
    candidates = iso.exact + [_refine(iso, cell, tol) for cell in ends]
    best = max(candidates, key=lambda r: (abs(r), r), default=None)
    return len(iso.exact) + len(iso.cells), best


# ---------------------------------------------------------------------------
# Eigenpairs.

class EigenPair(NamedTuple):
    """Candidate eigenpair, exact: the vector is x = ``vector`` / ``denominator``,
    ordered (x_{n-1}, ..., x_0) like the matrix rows, and the residual is
    the Fraction max|Ax - lam x| / max|x|."""

    lam: Fraction
    vector: tuple[int, ...]
    denominator: int
    residual: Fraction


def eigenvector_from_charpoly(m: HTMatrix, lam: Fraction | int) -> EigenPair:
    """Eigenvector candidate x_i = (-1/sub)**i d_i(lam) with x_0 = 1, exactly.

    ``lam`` should approximate a root of the size-n characteristic
    polynomial d_n; the residual tells how good the pair is, so a
    non-eigenvalue simply comes back with a large residual.

    With lam = N/D and e_j = D**j d_j(lam) from ``exact._charpoly_values``,
    the entries over (|sub| D)**(n-1) are integers, D = Q * 2**s making its
    powers of two shifts.  Row i >= 1 of (A - lam I) x is the recurrence
    itself and so exactly zero; row 0 is (-1/sub)**(n-1) d_n(lam), and the
    residual is |e_n| / (D max|vector|).
    """
    if m.sub == 0:
        raise ValueError("eigenvector formula requires a nonzero subdiagonal")
    lam = Fraction(lam)
    n, N, D = m.size, lam.numerator, lam.denominator
    es = list(_charpoly_values(m, N, D))
    s = (D & -D).bit_length() - 1
    # x_i = (-1/sub)**i e_i / D**i, times (|sub| D)**(n-1), D = Q * 2**s
    step, flip = abs(m.sub) * (D >> s), -1 if m.sub > 0 else 1
    vector = tuple((flip**i * es[i] * step ** (n - 1 - i)) << (s * (n - 1 - i)) for i in reversed(range(n)))
    residual = Fraction(abs(es[n]), D * max(map(abs, vector)))
    return EigenPair(lam, vector, step ** (n - 1) << (s * (n - 1)), residual)
