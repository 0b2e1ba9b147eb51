"""Exact integer arithmetic core: binomials, dense integer polynomials,
upper Hessenberg-Toeplitz matrices, count vectors, and the characteristic
polynomials of a matrix's leading blocks by Berkowitz's algorithm.

Everything here is immutable and computes with plain Python integers, so
there is no overflow and no rounding anywhere in the counting pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Sequence


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


class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    Coefficients are stored low-to-high; the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> IntPolynomial:
        return cls(())

    @classmethod
    def one(cls) -> IntPolynomial:
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, t: int) -> int:
        """Coefficient of x**t (0 outside the stored range)."""
        if 0 <= t < len(self.coeffs):
            return self.coeffs[t]
        return 0

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, mpf or mpc ``x``."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for t in range(self.degree, -1, -1):
            c = self.coeffs[t]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if t == 0:
                body = str(mag)
            else:
                var = "x" if t == 1 else f"x^{t}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


@dataclass(frozen=True)
class HTMatrix:
    """Upper Hessenberg-Toeplitz matrix: one constant subdiagonal and one band.

    ``sub`` is the constant subdiagonal value and ``band[m]`` the constant
    value on diagonal offset m >= 0, in every row, the first included.

    ``band_gf`` optionally gives the band as the power series of a rational
    function num(x)/den(x), as integer coefficient tuples low-to-high with
    ``den[0] == 1``.  The first ``size`` terms of the series must equal
    ``band``, or construction fails.  It takes no part in equality.
    ``band_series`` is that pair, or band/1 without one; ``mat_vec``,
    ``spectral.charpoly_recurrence`` and the eigenvectors run its linear
    recurrences of order len(den) - 1, which for den = 1 are plain dot
    products and convolutions.
    """

    size: int
    sub: int
    band: tuple[int, ...]
    band_gf: tuple[tuple[int, ...], tuple[int, ...]] | None = field(
        default=None, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "band", tuple(self.band))
        if self.size < 1:
            raise ValueError("matrix size must be >= 1")
        if len(self.band) != self.size:
            raise ValueError("band must provide offsets 0..size-1")
        if self.band_gf is not None:
            num, den = self.band_gf
            if not den or den[0] != 1:
                raise ValueError("band_gf denominator must start with 1")
            series: list[int] = []
            for m in range(self.size):
                t = num[m] if m < len(num) else 0
                for s in range(1, min(m, len(den) - 1) + 1):
                    t -= den[s] * series[m - s]
                series.append(t)
            if tuple(series) != self.band:
                raise ValueError("band_gf expansion disagrees with band")

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


@dataclass(frozen=True)
class CountVector:
    """Exact graph counts partitioned by root degree.

    ``entries[j-1]`` (1-based index j) counts objects whose root vertex has
    degree j-1; ``level`` is the number of vertices (or of faces, for the
    face-parameterized classes).
    """

    entries: tuple[int, ...]
    level: int

    def __post_init__(self):
        if any(e < 0 for e in self.entries):
            raise ValueError("count vector entries must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.entries)


def _suffix_sums(band_series, x) -> list:
    """T_i = sum_r band[r] * x[i+r] for the band num/den = ``band_series``,
    from the recurrence T_i = sum_r num[r] * x[i+r] - sum_{r>=1} den[r] * T_{i+r},
    O(len(x) * len(den)); with den = 1 each T_i is the dot product.  The list
    runs past len(x) with zeros."""
    num, den = band_series
    tail = den[1:]
    p, q = len(num), len(den)
    ts = [0] * (len(x) + q)
    for i in range(len(x) - 1, -1, -1):
        ts[i] = sum(map(mul, num, x[i : i + p])) - sum(map(mul, tail, ts[i + 1 : i + q]))
    return ts


def mat_vec(m: HTMatrix, v: CountVector) -> CountVector:
    """One production step: exact product m @ v, level incremented.

    Only the live prefix of ``v`` (up to its last nonzero entry, length L)
    is read, and rows past L are zero.  Row i >= 1 is sub * v[i-1] plus the
    banded suffix product T_i = sum_r band[r] * v[i+r], from the recurrence
    of ``m.band_series``: O(L * len(den)) per step for a band with a
    generating function, O(L^2) dot products for a band over 1.  Row 0 is
    T_0 alone.
    """
    x = v.entries
    if len(x) != m.size:
        raise ValueError(
            f"dimension mismatch: matrix size {m.size}, vector length {len(x)}"
        )
    live = len(x)
    while live and not x[live - 1]:
        live -= 1
    x = x[:live]
    suffix = _suffix_sums(m.band_series, x)
    # suffix[live] == 0, so row `live` is just sub * x[live-1].
    sub = m.sub
    rows = min(live + 1, m.size)
    out = suffix[:1] + [sub * x[i - 1] + suffix[i] for i in range(1, rows)]
    return CountVector(tuple(out) + (0,) * (m.size - rows), v.level + 1)


def charpoly_determinant(m: HTMatrix) -> tuple[IntPolynomial, ...]:
    """d_0..d_n, d_r = det(A_r - x*I) of the leading r x r block A_r of m, by
    Berkowitz's division-free algorithm, O(n**4) integer operations.

    Write A_(r+1) = [[A_r, C], [R, a]] and let c_r hold det(x*I - A_r) high
    to low, c_0 = [1].  Then c_(r+1) = T c_r with T the lower-triangular
    Toeplitz matrix whose first column is 1, -a, -R C, -R A_r C, ...,
    -R A_r**(r-1) C, and d_r = (-1)**r c_r reversed.  It reads only the
    dense entries of ``m.to_lists()`` and uses neither the Hessenberg nor
    the Toeplitz structure, so it stays an independent check of
    ``spectral.charpoly_recurrence``.
    """
    a = m.to_lists()
    c = [1]
    polys = [IntPolynomial(c)]
    for r in range(m.size):
        row, col = a[r][:r], [a[i][r] for i in range(r)]
        t = [1, -a[r][r]]
        for _ in range(r):
            t.append(-sum(map(mul, row, col)))
            col = [sum(map(mul, a[i], col)) for i in range(r)]
        c = [sum(map(mul, t[i::-1], c)) for i in range(r + 2)]
        sign = (-1) ** (r + 1)
        polys.append(IntPolynomial([sign * x for x in reversed(c)]))
    return tuple(polys)
