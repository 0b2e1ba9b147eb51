from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpc, mpf, polyroots, sqrt

from convexcount.exact import HTMatrix, IntPolynomial, binomial, charpoly_determinant, exact_div
from convexcount.production import (
    CLASS_NAMES,
    CLASSES,
    build_connected_matrix,
    build_geometric_matrix,
    build_k_angulation_matrix,
    build_partition_matrix,
    build_relation_matrix,
    connected_totals,
)
from convexcount.spectral import (
    _dominant_root,
    _isolate_real_roots,
    charpoly_closed_connected,
    charpoly_closed_geometric,
    charpoly_closed_kangulation,
    charpoly_closed_partition,
    charpoly_recurrence,
    dominant_eigenvalue,
    eigenvector_from_charpoly,
    precision_bits,
    real_roots,
)

# ---------------------------------------------------------------------------
# Reference root isolation: Sturm chain and bisection in Fraction arithmetic,
# the straightforward form of what real_roots computes over the integers.

def _ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _ref_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(rem) - len(b), -1, -1):
        coef = rem[i + len(b) - 1] / b[-1]
        if coef == 0:
            continue
        quo[i] = coef
        for j, bj in enumerate(b):
            rem[i + j] -= coef * bj
    return _ref_trim(quo), _ref_trim(rem)


def _ref_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _ref_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _ref_squarefree(p):
    dp = _ref_trim([i * c for i, c in enumerate(p)][1:] if len(p) > 1 else [])
    if not dp:
        return list(p)
    g = _ref_gcd(p, dp)
    if len(g) <= 1:
        return list(p)
    q, _ = _ref_divmod(p, g)
    return q


def _ref_sturm_chain(q):
    chain = [list(q), _ref_trim([i * c for i, c in enumerate(q)][1:])]
    while chain[-1]:
        _, r = _ref_divmod(chain[-2], chain[-1])
        chain.append([-c for c in r])
    chain.pop()
    return chain


def _ref_variations(chain, x):
    signs = []
    for p in chain:
        v = _ref_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_root_bound(q):
    lead = abs(q[-1])
    biggest = max(abs(c) for c in q[:-1]) if len(q) > 1 else Fraction(0)
    return 2 + biggest / lead


def _ref_deflate(q, r):
    # synthetic division by (x - r); remainder is zero by construction
    out = [Fraction(0)] * (len(q) - 1)
    carry = Fraction(0)
    for i in range(len(q) - 1, 0, -1):
        carry = q[i] + carry * r
        out[i - 1] = carry
    return _ref_trim(out)


def _ref_isolate(p):
    """Fraction Sturm isolation of p's distinct real roots on (-B, B):
    (exact roots, deflated square-free part q, isolating intervals of q)."""
    q = _ref_squarefree([Fraction(c) for c in p.coeffs])
    exact = []
    isolated = []
    while len(q) > 1:
        if len(q) == 2:
            exact.append(-q[0] / q[1])
            q = []
            isolated = []
            break
        chain = _ref_sturm_chain(q)
        bound = _ref_root_bound(q)
        stack = [(-bound, bound)]
        isolated = []
        deflated = False
        while stack:
            a, b = stack.pop()
            count = _ref_variations(chain, a) - _ref_variations(chain, b)
            if count == 0:
                continue
            if count == 1:
                isolated.append((a, b))
                continue
            mid = (a + b) / 2
            if _ref_eval(q, mid) == 0:
                exact.append(mid)
                q = _ref_deflate(q, mid)
                deflated = True
                break
            stack.append((a, mid))
            stack.append((mid, b))
        if not deflated:
            break
    else:
        isolated = []
    return exact, q, isolated


def _ref_bisect(q, a, b, tols):
    """The midpoint bisection of q's root in (a, b) ends at, for each tol in
    ``tols`` (largest first): one bisection, read off at the first interval
    of width <= tol; an exact hit ends every tolerance still open."""
    fa = _ref_eval(q, a)
    mids = []
    while True:
        while len(mids) < len(tols) and b - a <= tols[len(mids)]:
            mids.append((a + b) / 2)
        if len(mids) == len(tols):
            return mids
        mid = (a + b) / 2
        fm = _ref_eval(q, mid)
        if fm == 0:
            a = b = mid
        elif (fa > 0) == (fm > 0):
            a, fa = mid, fm
        else:
            b = mid


def reference_real_roots(p, tol):
    """Distinct real roots of p within tol, by Fraction Sturm isolation on
    (-B, B) and bisection; kept as the reference for real_roots."""
    exact, q, isolated = _ref_isolate(p)
    tols = (Fraction(tol),)
    return sorted(exact + [_ref_bisect(q, a, b, tols)[0] for a, b in isolated])


def reference_charpoly_recurrence(m):
    """d_0..d_n by the full banded convolution over IntPolynomial,
    d_s = (a_0 - x) d_{s-1} + sum_{i=2..s} (-1)**(i+1) a_{i-1} sub**(i-1) d_{s-i},
    O(n**3); kept as the reference for charpoly_recurrence."""
    n = m.size
    head = IntPolynomial((m.band[0], -1))
    polys = [IntPolynomial.one()]
    for s in range(1, n + 1):
        acc = head * polys[s - 1]
        sub_pow = m.sub
        for i in range(2, s + 1):
            term = m.band[i - 1] * sub_pow
            if i % 2 == 0:
                term = -term
            acc = acc + term * polys[s - i]
            sub_pow *= m.sub
        polys.append(acc)
    return polys


def reference_charpoly_determinant(m):
    """det(m - x*I) by exact cofactor expansion over integer polynomials,
    memoized on column sets, O(2**n * n) polynomial products; kept as the
    reference for charpoly_determinant."""
    n = m.size
    rows = tuple(
        tuple(
            IntPolynomial((m.entry(i, j), -1)) if i == j
            else IntPolynomial((m.entry(i, j),))
            for j in range(n)
        )
        for i in range(n)
    )
    memo = {0: IntPolynomial.one()}

    def minor(colmask: int) -> IntPolynomial:
        # Laplace expansion along the first remaining row, memoized on the
        # remaining column set.  Deliberately ignores the Hessenberg structure
        # so it stays an independent check of the banded recurrence.
        if colmask in memo:
            return memo[colmask]
        row = rows[n - colmask.bit_count()]
        acc = IntPolynomial.zero()
        sign = 1
        for j in range(n):
            if not (colmask >> j) & 1:
                continue
            if not row[j].is_zero():
                term = row[j] * minor(colmask & ~(1 << j))
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        memo[colmask] = acc
        return acc

    return minor((1 << n) - 1)


def reference_eigenvector(m, lam):
    """x_i = (-1/sub)**i d_i(lam) by Horner on each exact d_i, and the
    residual from m.entry dot products, O(n**2) per root; kept as the
    reference for eigenvector_from_charpoly."""
    n = m.size
    seq = charpoly_recurrence(m)
    with mp.workprec(precision_bits()):
        lam_mp = lam if isinstance(lam, (mpf, mpc)) else mpf(lam.numerator) / lam.denominator
        factor = mpf(-1) / m.sub
        vector = tuple(reversed([seq[i](lam_mp) * factor**i for i in range(n)]))
        resid = mpf(0)
        for i in range(n):
            row_val = sum(m.entry(i, j) * vector[j] for j in range(max(0, i - 1), n))
            resid = max(resid, abs(row_val - lam_mp * vector[i]))
        scale = max(abs(x) for x in vector)
        return lam_mp, vector, resid / scale if scale != 0 else resid


def reference_charpoly_closed_geometric(n):
    """The paper's double sum for the plane-graph matrix:
    sum_t sum_{k=t..n} (-1)**k C(k,t) C(t+1,n-k) 2**(2n-t-k) x**t."""
    coeffs = []
    for t in range(n + 1):
        c = 0
        for k in range(t, n + 1):
            term = binomial(k, t) * binomial(t + 1, n - k) * 2 ** (2 * n - t - k)
            c += -term if k % 2 else term
        coeffs.append(c)
    return IntPolynomial(coeffs)


def reference_charpoly_closed_connected(n):
    """The paper's double sum for the connected-graph matrix.  Powers of 3
    can carry a negative exponent next to a vanishing binomial bracket, so
    each coefficient is summed scaled by the power of 3 that clears the most
    negative exponent, and must be divisible by it."""
    coeffs = []
    for t in range(n + 1):
        shift = max(0, 3 * t + 2 - n)
        c = 0
        for ell in range(t + 1):
            bracket = 2 * binomial(ell, n + 2 * ell - 3 * t - 2) + 9 * binomial(
                ell + 1, n + 2 * ell - 3 * t
            )
            if bracket == 0:
                continue
            power = n + 2 * ell - 3 * t - 2 + shift
            c += binomial(t, ell) * 2 ** (t - ell) * 3**power * bracket
        c = exact_div(c, 3**shift)
        coeffs.append(-c if t % 2 else c)
    return IntPolynomial(coeffs)


def reference_charpoly_closed_partition(n):
    """The paper's triple sum for the non-crossing partition matrix, with
    powers 2**(2k-n+t-2l), summed scaled by 2**(n-t) (which clears every
    negative exponent) and divisible by it."""
    coeffs = []
    for t in range(n + 1):
        c = 0
        for k in range(t, n + 1):
            ckt = binomial(k, t)
            # the bracket vanishes unless k+t-n <= l <= 2k-n+1
            for ell in range(max(0, k + t - n), min(t, 2 * k - n + 1) + 1):
                bracket = 4 * binomial(k - t, 2 * k - n - ell + 1) + binomial(
                    k - t, 2 * k - n - ell
                )
                term = (ckt * binomial(t, ell) * bracket) << (2 * (k - ell))
                c += -term if k % 2 else term
        coeffs.append(exact_div(c, 1 << (n - t)))
    return IntPolynomial(coeffs)


GOLD_GEOMETRIC = {
    1: (2, -1),
    2: (-4, -4, 1),
    3: (8, 4, 6, -1),
    4: (-16, 0, 0, -8, 1),
    5: (32, -16, -16, -8, 10, -1),
    6: (-64, 64, 48, 32, 20, -12, 1),
}
GOLD_CONNECTED = {
    1: (3, -1),
    2: (2, -6, 1),
    3: (0, -13, 9, -1),
    4: (0, -12, 33, -12, 1),
    5: (0, -4, 63, -62, 15, -1),
    6: (0, 0, 66, -180, 100, -18, 1),
}
GOLD_PARTITION = {
    1: (0, -1),
    2: (-1, 0, 1),
    3: (2, 2, 0, -1),
    4: (-3, -4, -3, 0, 1),
    5: (4, 5, 6, 4, 0, -1),
    6: (-5, -4, -6, -8, -5, 0, 1),
}


def test_recurrence_golden_tables():
    gs = charpoly_recurrence(build_geometric_matrix(6))
    cs = charpoly_recurrence(build_connected_matrix(6))
    bs = charpoly_recurrence(build_partition_matrix(6))
    for n in range(1, 7):
        assert gs[n].coeffs == GOLD_GEOMETRIC[n]
        assert cs[n].coeffs == GOLD_CONNECTED[n]
        assert bs[n].coeffs == GOLD_PARTITION[n]
    assert gs[0] == IntPolynomial.one()


def test_recurrence_structure_invariants():
    for seq in (
        charpoly_recurrence(build_geometric_matrix(10)),
        charpoly_recurrence(build_k_angulation_matrix(4, 10)),
        charpoly_recurrence(build_relation_matrix(10, connected_totals(10))),
    ):
        for i, poly in enumerate(seq):
            assert poly.degree == i
            assert poly.leading == (-1) ** i if i else poly == IntPolynomial.one()


def test_closed_forms_match_golden_tables():
    for n in range(1, 7):
        assert charpoly_closed_geometric(n).coeffs == GOLD_GEOMETRIC[n]
        assert charpoly_closed_connected(n).coeffs == GOLD_CONNECTED[n]
        assert charpoly_closed_partition(n).coeffs == GOLD_PARTITION[n]


def test_closed_forms_match_paper_sums_to_60():
    for closed, reference in (
        (charpoly_closed_geometric, reference_charpoly_closed_geometric),
        (charpoly_closed_connected, reference_charpoly_closed_connected),
        (charpoly_closed_partition, reference_charpoly_closed_partition),
    ):
        for n in range(61):
            assert closed(n).coeffs == reference(n).coeffs, (closed.__name__, n)


def test_closed_form_initial_conditions():
    assert charpoly_closed_kangulation(3, 0) == IntPolynomial.one()
    assert charpoly_closed_geometric(0) == IntPolynomial.one()
    assert charpoly_closed_connected(0) == IntPolynomial.one()
    assert charpoly_closed_partition(0) == IntPolynomial.one()


def test_closed_kangulation_small():
    assert charpoly_closed_kangulation(3, 2).coeffs == (0, -2, 1)
    assert charpoly_closed_kangulation(4, 1).coeffs == (2, -1)
    assert charpoly_determinant(build_k_angulation_matrix(3, 2))[2].coeffs == (0, -2, 1)


def test_triple_agreement_to_8():
    builders = [
        lambda n: build_k_angulation_matrix(3, n),
        lambda n: build_k_angulation_matrix(4, n),
        build_geometric_matrix,
        build_connected_matrix,
        build_partition_matrix,
        lambda n: build_relation_matrix(n, connected_totals(max(2, n))),
    ]
    for build in builders:
        seq = charpoly_recurrence(build(8))
        for n in range(1, 9):
            assert charpoly_determinant(build(n))[n] == seq[n]


@pytest.mark.parametrize("name", CLASS_NAMES)
def test_determinant_matches_cofactor_reference_to_8(name):
    row = CLASSES[name]
    for param in {"k": (3, 4, 5), "weights": (connected_totals(8),)}.get(row.param, (None,)):
        for n in range(1, 9):
            m = row.build(n, param)
            dets = charpoly_determinant(m)
            assert len(dets) == n + 1
            assert dets[n] == reference_charpoly_determinant(m), (name, param, n)


def test_closed_equals_recurrence_to_20():
    gs = charpoly_recurrence(build_geometric_matrix(20))
    for n in range(21):
        assert charpoly_closed_geometric(n) == gs[n]
    # connected's sums start past vanishing terms and partition's read
    # negative upper indices: go to 60
    cs = charpoly_recurrence(build_connected_matrix(60))
    bs = charpoly_recurrence(build_partition_matrix(60))
    for n in range(61):
        assert charpoly_closed_connected(n) == cs[n]
        assert charpoly_closed_partition(n) == bs[n]
    for k in (3, 4, 5, 6):
        ks = charpoly_recurrence(build_k_angulation_matrix(k, 20))
        for r in range(21):
            assert charpoly_closed_kangulation(k, r) == ks[r]


def _series(num, den, size):
    """The first size terms of the power series num(z)/den(z), den[0] == 1."""
    out = []
    for i in range(size):
        t = num[i] if i < len(num) else 0
        for r in range(1, min(i, len(den) - 1) + 1):
            t -= den[r] * out[i - r]
        out.append(t)
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-4, 4),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), max_size=3).map(lambda t: (1, *t)),
    st.integers(1, 25),
)
def test_charpoly_recurrence_matches_reference(sub, num, den, size):
    band = _series(num, den, size)
    with_gf = HTMatrix(size, sub, band, band_gf=(tuple(num), den))
    plain = HTMatrix(size, sub, band)
    expected = reference_charpoly_recurrence(plain)
    assert list(charpoly_recurrence(with_gf)) == expected
    assert list(charpoly_recurrence(plain)) == expected


def test_band_gf_builders_match_plain_band():
    builders = [build_geometric_matrix, build_connected_matrix, build_partition_matrix]
    builders += [lambda n, k=k: build_k_angulation_matrix(k, n) for k in range(3, 10)]
    for build in builders:
        m = build(40)
        plain = HTMatrix(m.size, m.sub, m.band)
        assert m.band_gf is not None and plain.band_gf is None
        assert charpoly_recurrence(m) == charpoly_recurrence(plain)


def test_closed_equals_recurrence_at_bench_sizes():
    # the sizes `charpoly --n 150` runs in the spectrum benchmark workload
    for build, closed in (
        (build_geometric_matrix, charpoly_closed_geometric),
        (build_connected_matrix, charpoly_closed_connected),
        (build_partition_matrix, charpoly_closed_partition),
    ):
        assert charpoly_recurrence(build(150))[150] == closed(150)


def test_closed_equals_recurrence_at_300():
    for build, closed in (
        (build_geometric_matrix, charpoly_closed_geometric),
        (build_connected_matrix, charpoly_closed_connected),
        (build_partition_matrix, charpoly_closed_partition),
    ):
        assert charpoly_recurrence(build(300))[300] == closed(300)


def _factor():
    """One factor with its multiplicity: a random integer polynomial, a
    linear factor den*x - num (den a power of two, so its root often lies on
    the bisection grid), x itself, x^2 + c with no real root, or a trinomial
    c*x^d + a*x + b, whose Sturm chain skips degrees."""
    coeffs = st.integers(-30, 30)
    return st.tuples(
        st.one_of(
            st.lists(coeffs, min_size=2, max_size=6).filter(lambda c: c[-1] != 0),
            st.tuples(st.integers(-40, 40), st.sampled_from((1, 2, 4, 8, 3)))
            .map(lambda nd: [-nd[0], nd[1]]),
            st.just([0, 1]),
            st.integers(1, 50).map(lambda c: [c, 0, 1]),
            st.tuples(st.integers(3, 6), coeffs, coeffs, st.sampled_from((1, -1, 2, -3)))
            .map(lambda t: [t[2], t[1]] + [0] * (t[0] - 2) + [t[3]]),
        ),
        st.integers(1, 3),
    )


@settings(max_examples=150, deadline=None)
# x^4 + x - 3: a Sturm chain member has a negative leading coefficient and
# the next remainder drops two degrees.  x^2 - 2 with B = 4: an interval
# reaches a width of exactly tol.
@example([([-3, 1, 0, 0, 1], 1)], 1, Fraction(1, 10**40))
@example([([-2, 0, 1], 1)], 1, Fraction(1, 2**20))
@given(
    st.lists(_factor(), min_size=1, max_size=4),
    st.integers(-5, 5),
    st.sampled_from((Fraction(1, 10**40), Fraction(1, 2**20), Fraction(1, 3), Fraction(50))),
)
def test_real_roots_matches_reference(factors, unit, tol):
    p = IntPolynomial((unit or 1,))
    for coeffs, mult in factors:
        for _ in range(mult):
            p = p * IntPolynomial(coeffs)
    assert real_roots(p, tol) == reference_real_roots(p, tol)


_CLASS_BUILDERS = {
    "geometric": build_geometric_matrix,
    "connected": build_connected_matrix,
    "partition": build_partition_matrix,
    "relation": lambda n: build_relation_matrix(n, connected_totals(max(2, n))),
    "kangulation4": lambda n: build_k_angulation_matrix(4, n),
}


@pytest.mark.parametrize("name", sorted(_CLASS_BUILDERS))
def test_real_roots_matches_reference_on_class_charpolys(name):
    # reference_real_roots at both tolerances, from one isolation and one
    # bisection per root.
    tols = (Fraction(1, 10**40), Fraction(1, 10**48))
    seq = charpoly_recurrence(_CLASS_BUILDERS[name](30))
    for n in range(1, 31):
        exact, q, isolated = _ref_isolate(seq[n])
        mids = [_ref_bisect(q, a, b, tols) for a, b in isolated]
        for i, tol in enumerate(tols):
            want = sorted(exact + [m[i] for m in mids])
            assert real_roots(seq[n], tol) == want, (n, tol)


@settings(max_examples=150, deadline=None)
# x^2 - 2: the +-sqrt(2) tie goes to the positive root.
@example([([-2, 0, 1], 1)], 1, Fraction(1, 10**40))
@given(
    st.lists(_factor(), min_size=1, max_size=4),
    st.integers(-5, 5),
    st.sampled_from((Fraction(1, 10**40), Fraction(1, 2**20), Fraction(1, 3), Fraction(50))),
)
def test_dominant_root_matches_reference(factors, unit, tol):
    p = IntPolynomial((unit or 1,))
    for coeffs, mult in factors:
        for _ in range(mult):
            p = p * IntPolynomial(coeffs)
    roots = reference_real_roots(p, tol)
    best = max(roots, key=lambda r: (abs(r), r), default=None)
    assert _dominant_root(p, tol) == (len(roots), best)


def test_refinement_lands_on_a_grid_root_finer_than_isolation():
    # (1024x + 59)(x^2 - 2) has root bound B = 4, so -59/1024 = B * -59/2**12
    # is a grid point of level 12: finer than its isolating cell (level 2),
    # coarser than the cell that meets 1e-40.  It must come back exactly.
    p = IntPolynomial((59, 1024)) * IntPolynomial((-2, 0, 1))
    iso = _isolate_real_roots(p)
    assert iso.exact == [] and (-2, 0, 3) in iso.cells
    tol = Fraction(1, 10**40)
    roots = real_roots(p, tol)
    assert roots == reference_real_roots(p, tol)
    assert roots[1] == Fraction(-59, 1024)


def test_refinement_tol_wider_than_isolating_interval():
    # x^2 - 2 isolates in (-4, 0) and (0, 4); tol 50 needs no refinement, so
    # each root comes back as its interval's centre.
    p = IntPolynomial((-2, 0, 1))
    assert real_roots(p, Fraction(50)) == reference_real_roots(p, Fraction(50)) == [-2, 2]
    assert _dominant_root(p, Fraction(50)) == (2, 2)


def test_dominant_root_tie_goes_to_positive_root():
    p = IntPolynomial((-2, 0, 1))
    tol = Fraction(1, 10**40)
    count, best = _dominant_root(p, tol)
    assert count == 2 and best == real_roots(p, tol)[1] > 0
    assert dominant_eigenvalue(HTMatrix(2, 1, (0, 2)), tol) > 0


def _vector_strings(vector):
    with mp.workprec(precision_bits()):
        return [mp.nstr(x, 30) for x in vector]


@pytest.mark.parametrize("name", sorted(_CLASS_BUILDERS))
def test_eigenvector_matches_reference_on_class_roots(name):
    with mp.workprec(precision_bits()):
        bound = mpf(10) ** -30
    checked = 0
    for n in range(1, 31):
        m = _CLASS_BUILDERS[name](n)
        for root in real_roots(charpoly_recurrence(m)[n], Fraction(1, 10**40)):
            pair = eigenvector_from_charpoly(m, root)
            lam, vector, residual = reference_eigenvector(m, root)
            assert pair.lam == lam
            assert _vector_strings(pair.vector) == _vector_strings(vector), (n, root)
            assert pair.residual <= bound and residual <= bound, (n, root)
            checked += 1
    assert checked >= 30


def test_eigenvector_matches_reference_off_the_real_roots():
    # a non-eigenvalue, and complex roots found by mpmath
    for m, lam in (
        (build_geometric_matrix(12), mpf(3)),
        (build_relation_matrix(9, connected_totals(9)), mpf("-0.5")),
        (HTMatrix(2, 1, (0, -1)), mpc(0, 1)),
    ):
        pair = eigenvector_from_charpoly(m, lam)
        _, vector, residual = reference_eigenvector(m, lam)
        assert _vector_strings(pair.vector) == _vector_strings(vector)
        with mp.workprec(precision_bits()):
            assert mp.nstr(pair.residual, 20) == mp.nstr(residual, 20)
    for m in (build_geometric_matrix(6), build_partition_matrix(7)):
        coeffs = charpoly_recurrence(m)[m.size].coeffs
        with mp.workprec(precision_bits()):
            lams = [z for z in polyroots(coeffs[::-1], maxsteps=200, extraprec=256) if abs(z.imag) > 1e-3]
        assert lams
        for lam in lams:
            pair = eigenvector_from_charpoly(m, lam)
            _, vector, residual = reference_eigenvector(m, lam)
            assert _vector_strings(pair.vector) == _vector_strings(vector)
            assert pair.residual < mpf(10) ** -30 and residual < mpf(10) ** -30


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.integers(-3, 3).filter(bool),
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        )
    )
)
def test_recurrence_matches_determinant_on_random_bands(params):
    sub, band = params
    m = HTMatrix(len(band), sub, band)
    blocks = (IntPolynomial.one(),) + tuple(
        reference_charpoly_determinant(HTMatrix(r, sub, band[:r])) for r in range(1, m.size + 1)
    )
    assert charpoly_recurrence(m) == charpoly_determinant(m) == blocks


def test_real_roots_known_polynomials():
    # x^2 - 4x - 4 has roots 2 +- 2*sqrt(2)
    roots = real_roots(IntPolynomial((-4, -4, 1)), Fraction(1, 10**30))
    assert len(roots) == 2
    with mp.workprec(200):
        lo, hi = (mpf(r.numerator) / r.denominator for r in roots)
        assert abs(lo - (2 - 2 * sqrt(2))) < mpf(10) ** -29
        assert abs(hi - (2 + 2 * sqrt(2))) < mpf(10) ** -29


def test_real_roots_exact_and_multiplicity():
    # x^2 (x - 2) has distinct roots {0, 2}, found exactly
    p = IntPolynomial((0, 0, -2, 1))
    assert real_roots(p) == [Fraction(0), Fraction(2)]
    assert real_roots(IntPolynomial((0, -1))) == [Fraction(0)]
    with pytest.raises(ValueError):
        real_roots(IntPolynomial.zero())


def test_real_roots_of_triangulation_charpolys_are_known_cosines():
    # The k = 3 matrix (all-ones band, subdiagonal 1): the distinct real roots
    # of d_n are 0 for n >= 2 and 4 cos^2(j pi / (n + 2)), j = 1..(n + 1) // 2.
    # This reference needs neither Sturm chains nor a bisection grid.
    tol = Fraction(1, 10**40)
    seq = charpoly_recurrence(build_k_angulation_matrix(3, 100))
    with mp.workprec(400):
        for n in (*range(1, 41), 100):
            roots = real_roots(seq[n], tol)
            want = sorted(4 * mp.cos(j * mp.pi / (n + 2)) ** 2 for j in range(1, (n + 1) // 2 + 1))
            if n >= 2:
                assert roots[0] == 0, n
                roots = roots[1:]
            assert len(roots) == len(want), n
            for root, w in zip(roots, want):
                assert abs(mpf(root.numerator) / root.denominator - w) <= mpf(tol.numerator) / tol.denominator, n


def test_real_roots_no_real():
    assert real_roots(IntPolynomial((1, 0, 1))) == []
    # a nonzero constant: its Sturm chain is the constant alone
    assert real_roots(IntPolynomial((5,))) == []
    assert _dominant_root(IntPolynomial((5,)), Fraction(1, 10**30)) == (0, None)


def test_eigenvector_g2():
    g2 = build_geometric_matrix(2)
    with mp.workprec(precision_bits()):
        lam = 2 + 2 * sqrt(2)
    pair = eigenvector_from_charpoly(g2, lam)
    with mp.workprec(precision_bits()):
        assert abs(pair.vector[0] - sqrt(2)) < mpf(10) ** -70
        assert pair.vector[1] == 1
        assert pair.residual < mpf(10) ** -12


def test_eigenvector_non_eigenvalue_large_residual():
    g2 = build_geometric_matrix(2)
    pair = eigenvector_from_charpoly(g2, mpf(3))
    assert pair.residual > mpf("0.1")


def test_eigenvector_k3_largest_root():
    k3 = build_k_angulation_matrix(3, 3)
    lam = dominant_eigenvalue(k3, Fraction(1, 10**30))
    pair = eigenvector_from_charpoly(k3, lam)
    assert pair.residual < mpf(10) ** -10


def test_eigenvector_sign_patterns():
    # subdiagonal 1 gives x_i = (-1)^i d_i(lam); subdiagonal 2 gives (-1/2)^i g_i(lam)
    c4 = build_connected_matrix(4)
    lam = dominant_eigenvalue(c4, Fraction(1, 10**35))
    seq = charpoly_recurrence(c4)
    pair = eigenvector_from_charpoly(c4, lam)
    with mp.workprec(precision_bits()):
        for i in range(4):
            expect = (-1) ** i * seq[i](pair.lam)
            assert abs(pair.vector[3 - i] - expect) < mpf(10) ** -40
    g4 = build_geometric_matrix(4)
    lam = dominant_eigenvalue(g4, Fraction(1, 10**35))
    seq = charpoly_recurrence(g4)
    pair = eigenvector_from_charpoly(g4, lam)
    with mp.workprec(precision_bits()):
        for i in range(4):
            expect = (mpf(-1) / 2) ** i * seq[i](pair.lam)
            assert abs(pair.vector[3 - i] - expect) < mpf(10) ** -40


def test_eigenvector_requires_nonzero_subdiagonal():
    m = HTMatrix(2, 0, (1, 1))
    with pytest.raises(ValueError):
        eigenvector_from_charpoly(m, mpf(1))


def test_dominant_eigenvalue_examples():
    assert dominant_eigenvalue(build_geometric_matrix(1)) == 2
    d4 = dominant_eigenvalue(build_geometric_matrix(4), Fraction(1, 10**40))
    assert 8 < d4 < 9
    p = IntPolynomial((-16, 0, 0, -8, 1))
    with mp.workprec(precision_bits()):
        assert abs(p(d4)) < mpf(10) ** -30


def test_dominant_eigenvalue_kangulation_monotone():
    prev = mpf(0)
    for r in range(1, 11):
        d = dominant_eigenvalue(build_k_angulation_matrix(3, r), Fraction(1, 10**35))
        assert prev < d < 4
        prev = d


def test_dominant_eigenvalue_geometric_monotone_tracks_growth():
    values = [
        dominant_eigenvalue(build_geometric_matrix(n), Fraction(1, 10**35))
        for n in range(1, 8)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))
    # count growth ratios climb alongside the eigenvalues (trend only)
    from convexcount.production import count_sequence, geometric_class

    totals = [row.total for row in count_sequence(geometric_class(), 10)]
    ratios = [Fraction(b, a) for a, b in zip(totals, totals[1:])]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert float(ratios[-1]) < float(values[-1])


def test_precision_env(monkeypatch):
    monkeypatch.setenv("CONVEX_COUNT_PRECISION", "128")
    assert precision_bits() == 128
    monkeypatch.setenv("CONVEX_COUNT_PRECISION", "12")
    with pytest.raises(ValueError):
        precision_bits()
    monkeypatch.setenv("CONVEX_COUNT_PRECISION", "abc")
    with pytest.raises(ValueError):
        precision_bits()
    monkeypatch.delenv("CONVEX_COUNT_PRECISION")
    assert precision_bits() == 256
