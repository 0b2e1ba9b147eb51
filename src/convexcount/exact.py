"""Exact integer arithmetic core: binomials, upper Hessenberg-Toeplitz
matrices, count vectors, production steps, and the characteristic
polynomials d_0..d_n of a matrix's leading blocks by two routes: the banded
recurrence, which reads the band's generating function, and Berkowitz's
algorithm, which reads only the dense entries.  Both return the tuple
(d_0, ..., d_n), d_j a tuple of j + 1 ints low to high, as the closed forms
of ``closedform`` do.

A matrix is U(a) Z: the down-shift Z, then the upper-triangular Toeplitz
matrix of its A-sequence a(z) = sub + z band(z).  ``mat_vec`` steps one
level with a, in O(L * len(den)) for a band num/den with terms in den past
den_0 and in O(L**2) for den = 1, and ``_strided_totals`` steps k levels
with one product by U(a**k).  One loop runs the recurrence for every band,
holding only the degrees it reads back: O(n**2 * len(den)) operations in
O(n**2) bits, or for den = 1 an O(n**3) convolution over every degree;
``_charpoly_values`` runs it at a point, in integers, for the eigenvectors.
``charpoly_top`` returns d_n alone, which is all the CLI prints: by the
recurrence's last degree for a den past den_0, and for den = 1 by power
projection on the Riordan identity sum_j d_j u**j = 1/(1 - u B(u) + x u),
about n**2.5 products where the convolution takes n**3 / 6.

Everything here is immutable and computes with plain Python integers, so
there is no overflow and no rounding anywhere in the counting pipeline.
"""
from __future__ import annotations

import math
from collections import deque, namedtuple
from collections.abc import Iterator, Sequence
from itertools import accumulate, repeat
from operator import add, mul, sub


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), the coefficient of z**k in (1+z)**n.

    It is 0 for ``k < 0`` and for ``k > n >= 0``.  A negative upper index
    gives C(n, k) = (-1)**k C(k-n-1, k), the falling-factorial value
    n(n-1)...(n-k+1)/k!, so C(-1, 0) = 1 and C(-1, 1) = -1.
    """
    if k < 0:
        return 0
    if n < 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    return math.comb(n, k)


def exact_div(num: int, den: int) -> int:
    """Divide asserting exactness; counting formulas never truncate."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den}")
    return q


class HTMatrix(namedtuple("HTMatrix", "size sub band band_gf", defaults=(None,))):
    """Upper Hessenberg-Toeplitz matrix: one constant subdiagonal and one band.

    ``sub`` is the constant subdiagonal value and ``band[m]`` the constant
    value on diagonal offset m >= 0, in every row, the first included.

    ``band_gf`` optionally gives the band as the power series of a rational
    function num(x)/den(x), as integer coefficient tuples low-to-high with
    ``den[0] == 1``.  The first ``size`` terms of the series must equal
    ``band``, or construction fails.  It takes no part in equality or hash.
    ``band_series`` is that pair, or band/1 without one; ``mat_vec``,
    ``charpoly_recurrence`` and ``_charpoly_values`` run its linear
    recurrences of order len(den) - 1.
    """

    __slots__ = ()

    def __new__(cls, size: int, sub: int, band: Sequence[int], band_gf=None):
        self = super().__new__(cls, size, sub, tuple(band), band_gf)
        if size < 1:
            raise ValueError("matrix size must be >= 1")
        if len(self.band) != size:
            raise ValueError("band must provide offsets 0..size-1")
        if band_gf is not None:
            num, den = band_gf
            if not den or den[0] != 1:
                raise ValueError("band_gf denominator must start with 1")
            series: list[int] = []
            for m in range(size):
                t = num[m] if m < len(num) else 0
                for s in range(1, min(m, len(den) - 1) + 1):
                    t -= den[s] * series[m - s]
                series.append(t)
            if tuple(series) != self.band:
                raise ValueError("band_gf expansion disagrees with band")
        return self

    # A tuple compares every field; a matrix compares all but band_gf.
    def __eq__(self, other) -> bool:
        return isinstance(other, HTMatrix) and self[:3] == other[:3]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])

    @property
    def band_series(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The band as (num, den): ``band_gf``, or (band, (1,)) without one."""
        return self.band_gf or (self.band, (1,))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError("matrix index out of range")
        if j < i - 1:
            return 0
        if j == i - 1:
            return self.sub
        return self.band[j - i]

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.entry(i, j) for j in range(self.size))

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.size)]


class CountVector(namedtuple("CountVector", "entries level")):
    """Exact graph counts partitioned by root degree.

    ``entries[j-1]`` (1-based index j) counts objects whose root vertex has
    degree j-1; ``level`` is the number of vertices (or of faces, for the
    face-parameterized classes).
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[int, ...], level: int):
        if min(entries, default=0) < 0:
            raise ValueError("count vector entries must be non-negative")
        return super().__new__(cls, entries, level)

    @property
    def total(self) -> int:
        return sum(self.entries)


def _suffix_sums(num, den, x) -> list:
    """T_i = sum_r a[r] * x[i+r] for i < len(x), the list possibly running on
    with zeros, for the series a = num/den.  With den = 1 each T_i is one dot
    product.  Otherwise F_i = sum_r num[r] * x[i+r] takes len(num) C-level
    passes over the whole vector, and one reverse loop runs den's recurrence
    T_i = F_i - sum_{s>=1} den[s] * T_{i+s}, T_{i+1} kept in a local."""
    n = len(x)
    if not any(den[1:]):
        return [sum(map(mul, num, x[i:])) for i in range(n)]
    ts = [0] * (n + len(den))
    for r, c in enumerate(num[:n]):
        if c:
            ts[: n - r] = map(add, ts, x[r:] if c == 1 else map(mul, repeat(c), x[r:]))
    d1, taps = den[1], [(s, c) for s, c in enumerate(den) if s > 1 and c]
    t = 0
    for i in range(n - 1, -1, -1):
        t = ts[i] - d1 * t
        for s, c in taps:
            t -= c * ts[i + s]
        ts[i] = t
    return ts


def mat_vec(m: HTMatrix, v: CountVector) -> CountVector:
    """One production step: exact product m @ v, level incremented.

    Only the live prefix of ``v`` (up to its last nonzero entry, length L)
    is read, and rows past L are zero.  Row i is sub * v[i-1] + sum_r
    band[r] * v[i+r] (v[-1] = 0), that is sum_r a[r] * v[i-1+r] for the
    row series a(z) = sub + z * num(z)/den(z) = (sub * den + z * num)/den
    of ``m.band_series``, the A-sequence, and ``_suffix_sums`` runs it.
    """
    x = v.entries
    if len(x) != m.size:
        raise ValueError(
            f"dimension mismatch: matrix size {m.size}, vector length {len(x)}"
        )
    live = len(x)
    while live and not x[live - 1]:
        live -= 1
    num, den = m.band_series
    a = [m.sub * d for d in den] + [0] * (len(num) + 1 - len(den))
    a[1 : len(num) + 1] = map(add, a[1:], num)
    rows = min(live + 1, m.size)
    out = _suffix_sums(a, den, (0, *x[:live]))[:rows]
    return CountVector(tuple(out) + (0,) * (m.size - rows), v.level + 1)


def _strided_totals(m: HTMatrix, v: CountVector, n_max: int, k: int) -> list[tuple[int, int]]:
    """(level, total) of v and of each level after it to n_max, k levels per
    product; no step may truncate (live length + n_max - v.level <= size).
    With m = U(a) Z, moving Z past U(a^j) leaves s_j e_0, s_j = sum_t
    [z^(t+j+1)] a^j v_t, and U(a) e_0 = sub e_0, so
        m^k v = U(a^k) Z^k v - sub sum_{j=1..k-1} s_j m^(k-1-j) e_0,
    and level i < k, U(a^i)'s column sums being a^i's prefix sums, totals
        sum_t (sum_{r<=t+i} [z^r] a^i) v_t - sub sum_{j<i} s_j total(m^(i-1-j) e_0).
    A stride is one product with a^k and 2(k-1) dot products; a^2..a^k and
    the short columns m^j e_0 are made once."""
    x = list(v.entries)
    while x and not x[-1]:
        x.pop()
    a = [m.sub, *m.band[: len(x) + n_max - v.level - 1]]  # the live length grows by one a level
    powers = [(1,), a]
    for _ in range(k - 1):
        powers.append(_truncated_product(powers[-1], a, len(a)))
    prefix = [list(accumulate(p)) for p in powers[:k]]
    cols = [[1]]
    for _ in range(k - 2):
        cols.append(_suffix_sums(a, (1,), (0, *cols[-1])))
    col_totals = [sum(c) for c in cols]
    out = [(v.level, sum(x))]
    for level in range(v.level, n_max, k):
        step = min(k, n_max - level)
        s = [sum(map(mul, powers[j][j + 1 :], x)) for j in range(1, step)]
        for i in range(1, min(step, k - 1) + 1):
            back = sum(map(mul, s[: i - 1], reversed(col_totals[: i - 1])))
            out.append((level + i, sum(map(mul, prefix[i][i:], x)) - m.sub * back))
        if step == k:
            x = _suffix_sums(powers[k], (1,), (0,) * k + tuple(x))
            for j, c in enumerate(s, 1):
                x[: k - j] = map(sub, x, map(mul, repeat(m.sub * c), cols[k - 1 - j]))
            out.append((level + k, sum(x)))
    return out


def _truncated_product(p, q, length: int) -> list[int]:
    """The first ``length`` coefficients of the series product p * q, each one
    dot product iterated in C; q must hold at least ``length`` terms."""
    return [sum(map(mul, p, q[r::-1])) for r in range(length)]


def charpoly_top(m: HTMatrix) -> tuple[int, ...]:
    """d_n of an n x n Hessenberg-Toeplitz matrix, ``charpoly_recurrence(m)[n]``,
    as its n + 1 coefficients low to high.

    A band with terms in den past den_0 keeps the recurrence's last degree,
    O(n**2 * len(den)) operations in a window of a few degrees, O(n**2) bits.
    For den = 1 the recurrence reads every earlier degree, O(n**3), so d_n is
    read off the production matrix's Riordan array instead (Deutsch, Ferrari
    and Rinaldi, "Production matrices", 2005): with b_m = (-sub)**m * band[m]
    and B(u) = sum_m b_m u**m,

        sum_j d_j u**j = 1/(1 - u B(u) + x u),
        [x^t] d_n = (-1)**t [u^(n-t)] G**(t+1),    G = 1/(1 - u B).

    The powers are split as Paterson and Stockmeyer split a polynomial:
    baby steps G**1..G**s, G**i cut to degree n + 1 - i, and giant steps
    Q_j = G**(s j), cut to degree n - s j.  Coefficient t = s j + i is then
    one dot product of Q_j with G**(i+1), and the whole costs
    (s + 1) n**2 / 2 + n**3 / (6 s) products against the recurrence's
    n**3 / 6.  s = isqrt(n // 3) balances the two terms.
    """
    n = m.size
    ps, qs = _recurrence_terms(m, n)
    if qs:
        return tuple(deque(_charpolys(m), maxlen=1)[0])
    b = [0] * n
    for r, c in ps:
        b[r] = c
    g = [1]
    for _ in range(n):
        g.append(sum(map(mul, b, reversed(g))))
    s = max(1, math.isqrt(n // 3))
    baby = [g]  # baby[i] = G**(i+1) to degree n - i
    for i in range(1, s):
        baby.append(_truncated_product(baby[-1], g, n + 1 - i))
    top = []
    giant = [1]  # Q_j
    for t in range(n + 1):
        i = t % s
        if t and not i:
            giant = _truncated_product(giant, baby[-1], n - t + 1)
        c = sum(map(mul, giant, baby[i][n - t :: -1]))
        top.append(-c if t % 2 else c)
    return tuple(top)


def charpoly_recurrence(m: HTMatrix) -> tuple[tuple[int, ...], ...]:
    """Characteristic polynomials d_0..d_n of an n x n Hessenberg-Toeplitz matrix:
    index i holds d_i, that of the leading i x i block, as its i + 1
    coefficients low to high (d_0 = (1,)).

    Expanding det(A_s - x I) along its last column gives

        d_s = -x d_{s-1} + U_{s-1},    U_j = sum_{m=0..j} b_m d_{j-m},

    with b_m = (-sub)**m * band[m].  The band is the power series of
    num(z)/den(z) (``m.band_series``: ``band_gf``, or band/1), so
    sum_m b_m z**m = num(-sub z)/den(-sub z) and U obeys the recurrence of
    order len(den) - 1

        U_j = sum_r num_r (-sub)**r d_{j-r} - sum_{r>=1} den_r (-sub)**r U_{j-r}.

    Each degree costs len(num) + len(den) - 1 polynomial axpy steps,
    O(n**2 * len(den)) integer operations in all.  For den = 1 (a band
    without a generating function, or a polynomial one) U_j is the plain
    convolution, n axpy steps a degree, O(n**3).

    Every degree is the reference that the checks compare against, and the
    result holds all of them, O(n**3) bits.  For d_n alone, ``charpoly_top``
    keeps a window of len(num) degrees when den has terms past den_0, and
    takes (s + 1) n**2 / 2 + n**3 / (6 s) products with s = isqrt(n // 3)
    when den = 1: 945,000 against 4,500,000 at n = 300.
    """
    return tuple(map(tuple, _charpolys(m)))


def _charpolys(m: HTMatrix) -> Iterator[list[int]]:
    """d_0, d_1, ..., d_n as coefficient lists, by the recurrence of
    ``charpoly_recurrence``.  It holds only what the recurrence reads back:
    the last 1 + max r of the num terms' degrees and the last max r of the den
    terms' U's.  For den = 1 the num terms run to r = n - 1, so the window
    holds every degree, O(n**3) bits; with a generating function it holds a
    few, O(n**2) bits."""
    n = m.size
    ps, qs = _recurrence_terms(m, n)
    ds = deque([[1]], maxlen=1 + max((r for r, _ in ps), default=0))  # ..., d_j
    us = deque(maxlen=max((r for r, _ in qs), default=0))  # ..., U_(j-1)
    yield ds[-1]
    for j in range(n):
        u = [0] * (j + 1)
        for r, c in ps:
            if r > j:
                break
            _axpy(u, c, ds[-1 - r])
        for r, c in qs:
            if r > j:
                break
            _axpy(u, c, us[-r])
        us.append(u)
        ds.append(_next_charpoly(ds[-1], u))
        yield ds[-1]


def _charpoly_values(m: HTMatrix, num: int, den: int) -> Iterator[int]:
    """e_j = den**j d_j(num/den), j = 0..n and den > 0, by the recurrence and
    window of ``_charpolys`` in integers: e_(j+1) = den V_j - num e_j with
    V_j = den**j U_j.  den = Q * 2**s, so its powers of two are shifts."""
    s = (den & -den).bit_length() - 1
    q = den >> s
    ps, qs = ([(r, c * q**r, r * s) for r, c in terms] for terms in _recurrence_terms(m, m.size))
    es = deque([1], maxlen=1 + max((r for r, _, _ in ps), default=0))  # ..., e_j
    vs = deque(maxlen=max((r for r, _, _ in qs), default=0))  # ..., V_(j-1)
    yield 1
    for j in range(m.size):
        v = sum((c * es[-1 - r]) << shift for r, c, shift in ps if r <= j)
        v += sum((c * vs[-r]) << shift for r, c, shift in qs if r <= j)
        vs.append(v)
        es.append(((q * v) << s) - num * es[-1])
        yield es[-1]


def _next_charpoly(d: list[int], u: list[int]) -> list[int]:
    """d_(j+1) = -x d_j + U_j from the coefficients of d_j and of U_j, of equal
    length."""
    return u[:1] + [a - b for a, b in zip(u[1:], d)] + [-d[-1]]


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
    acc[: len(p)] = map(add, acc, map(mul, repeat(c), p))


def charpoly_determinant(m: HTMatrix) -> tuple[tuple[int, ...], ...]:
    """d_0..d_n, d_r = det(A_r - x*I) of the leading r x r block A_r of m, by
    Berkowitz's division-free algorithm, O(n**4) integer operations.

    Write A_(r+1) = [[A_r, C], [R, a]] and let c_r hold det(x*I - A_r) high
    to low, c_0 = [1].  Then c_(r+1) = T c_r with T the lower-triangular
    Toeplitz matrix whose first column is 1, -a, -R C, -R A_r C, ...,
    -R A_r**(r-1) C, and d_r = (-1)**r c_r reversed.  It reads only the
    dense entries of ``m.to_lists()`` and uses neither the Hessenberg nor
    the Toeplitz structure, so it stays an independent check of
    ``charpoly_recurrence``.
    """
    a = m.to_lists()
    c = [1]
    polys = [(1,)]
    for r in range(m.size):
        row, col = a[r][:r], [a[i][r] for i in range(r)]
        t = [1, -a[r][r]]
        for _ in range(r):
            t.append(-sum(map(mul, row, col)))
            col = [sum(map(mul, a[i], col)) for i in range(r)]
        c = [sum(map(mul, t[i::-1], c)) for i in range(r + 2)]
        sign = (-1) ** (r + 1)
        polys.append(tuple(sign * x for x in reversed(c)))
    return tuple(polys)
