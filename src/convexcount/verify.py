"""Cross-module verification suites: every closed form against every matrix,
every matrix against the oracle, each route a command prints (charpoly_top,
dominant_root) against its reference, and the spectral identities.

Each suite takes one size, n_max, and returns a list of CheckResult so the
CLI can print one PASS/FAIL line per check; a failure carries the check's
first failure in check order, a counterexample or a missing level, and a
level check draws no level past it.  A check in FLOORS runs to max(floor,
n_max), every other to n_max, and at a negative n_max every check fails.
"""
from __future__ import annotations

from itertools import product, zip_longest
from typing import NamedTuple

from . import FLOORS, SUITE_NAMES
from .exact import HTMatrix, charpoly_determinant, charpoly_recurrence, charpoly_top
from .production import CLASSES, ClassDef, GraphClassSpec, count_sequence, count_totals

# The eigen suite's residual bound; it refines every root to within 10**-48.
RESIDUAL_BOUND = 1e-30


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class _Missing(Exception):
    """A level the counting engine did not return; it fails the check."""


def _params(row: ClassDef, ks) -> tuple:
    """The parameters a suite runs a class at: each k in ``ks`` for the class
    that takes k, None for the others (relation: the connected-graph totals)."""
    return tuple(ks) if row.param == "k" else (None,)


def _label(row: ClassDef, param) -> str:
    return f"{row.name}(k={param})" if row.param == "k" else row.name


def _top(check: str, n_max: int) -> int:
    """The size ``check`` runs to: max(floor, n_max), or n_max itself, an
    empty range, when it is negative."""
    return max(FLOORS.get(check, n_max), n_max) if n_max >= 0 else n_max


def _empty(n_max: int) -> str:
    return f"empty range: n_max={n_max} < 0" if n_max < 0 else "empty range: nothing was checked"


def _levels(spec: GraphClassSpec, top: int, totals: bool = False) -> list:
    """``count_sequence``'s vectors, or ``count_totals``'s (level, total) pairs,
    to ``top``.  Their levels must be exactly start..top, or _Missing names the
    first that is not: zipped with a reference, a short list would pass."""
    out = (count_totals if totals else count_sequence)(spec, top) if top >= spec.start_index else []
    levels = [x[0] if totals else x.level for x in out]
    for want, got in zip_longest(range(spec.start_index, top + 1), levels):
        if want != got:
            detail = f"level {want} missing" if want else f"level {got} past {top}"
            raise _Missing(f"{spec.name} {detail}")
    return out


def _level_pairs(row: ClassDef, param, level, got):
    """(label, got, vector) for one level, ``got`` zero-padded, so the vector's
    tail must be zero too; then the level's total against the row's, if any."""
    label = f"{_label(row, param)} {row.size_option}={level.level}"
    yield label, tuple(got) + (0,) * (len(level.entries) - len(got)), level.entries
    if row.total is not None:
        yield f"total {label}", (level.total,), (row.total(param, level.level),)


def _check_levels(name: str, pairs, n_max: int) -> CheckResult:
    """Compares each (label, got, want) as ``pairs`` draws it and stops at the
    first mismatch, so no level past it is drawn.  ``pairs`` is lazy, so a
    level that _levels finds missing fails here, and a range with no pair
    fails too."""
    drawn = False
    try:
        for label, got, want in pairs:
            if tuple(got) != tuple(want):
                return CheckResult(name, False, f"first mismatch at {label}: {got} != {want}")
            drawn = True
    except _Missing as missing:
        return CheckResult(name, False, str(missing))
    return CheckResult(name, True) if drawn else CheckResult(name, False, _empty(n_max))


def suite_vectors(n_max: int) -> list[CheckResult]:
    """Closed-form count vectors against matrix iteration, k = 3..7 and 9 for
    k-angulations, whose level totals must equal C((k-1)r, r)/((k-2)r+1)."""
    out = []
    for row in CLASSES.values():
        if row.vector is None:
            continue
        pairs = (
            pair
            for param in _params(row, (3, 4, 5, 6, 7, 9))
            for level in _levels(GraphClassSpec(row.name, param), n_max)
            for pair in _level_pairs(row, param, level, row.vector(param, level.level))
        )
        out.append(_check_levels(f"vectors/{row.name}", pairs, n_max))
    return out


def suite_charpoly(n_max: int) -> list[CheckResult]:
    """Recurrence against the closed forms and Berkowitz at every n up to the
    floor or n_max, and against ``charpoly_top`` at the top n, coefficient-exact."""
    top = _top("charpoly", n_max)
    if top < 0:
        return [CheckResult("charpoly/ranges", False, _empty(n_max))]
    closed, dets, tops = [], [], []
    for row in CLASSES.values():
        for param in _params(row, (3, 4)):
            matrix = row.build(top, param)
            seq = charpoly_recurrence(matrix)
            label = _label(row, param)
            if row.charpoly is not None:
                bad = next((n for n in range(top + 1) if row.charpoly(param, n) != seq[n]), None)
                detail = "" if bad is None else f"closed form differs at n={bad}"
                closed.append(CheckResult(f"charpoly/{label}", bad is None, detail))
            det = charpoly_determinant(matrix)
            bad = next((n for n in range(1, top + 1) if det[n] != seq[n]), None)
            detail = "" if bad is None else f"differs at n={bad}"
            dets.append(CheckResult(f"charpoly-determinant/{label}", bad is None, detail))
            same = charpoly_top(matrix) == seq[top]
            tops.append(CheckResult(f"charpoly-top/{label}", same, "" if same else f"differs at n={top}"))
    return closed + dets + tops


def suite_eigen(n_max: int) -> list[CheckResult]:
    """Every real eigenvalue, to within 10**-48, of every class matrix up to
    size n_max yields a residual of at most RESIDUAL_BOUND, and
    ``dominant_root`` (``eigen``'s default) agrees with ``real_roots``."""
    if n_max < 1:
        empty = f"empty range: n_max={n_max} < 1"
        return [CheckResult(f"eigen/{name}", False, empty) for name in ("residuals", "dominant")]
    from fractions import Fraction

    from . import spectral

    tol = Fraction(1, 10**48)
    bound = Fraction(RESIDUAL_BOUND)  # the float's exact value
    # Every band is prefix-stable (tests/test_production.py checks it), so each
    # class is built once, at n_max: the size-n matrix is its leading block.
    built = []
    for row in CLASSES.values():
        for param in _params(row, (3, 4)):
            matrix = row.build(n_max, param)
            built.append((_label(row, param), matrix, charpoly_recurrence(matrix)))
    residual = dominant = ""  # each check's first failure
    for n in range(1, n_max + 1):
        for label, m, seq in built:
            matrix = HTMatrix(n, m.sub, m.band[:n], m.band_gf)
            roots = spectral.real_roots(seq[n], tol)
            want = len(roots), max(roots, key=lambda r: (abs(r), r), default=None)
            if not dominant and (got := spectral.dominant_root(seq[n], tol)) != want:
                dominant = f"{label} n={n}: (count, root) {got} != {want}"
            pairs = (spectral.eigenvector_from_charpoly(matrix, root) for root in roots if not residual)
            if bad := next((pair for pair in pairs if not pair.residual <= bound), None):
                residual = f"{label} n={n} root~{float(bad.lam):.6g}: residual {float(bad.residual):.5g}"
    return [CheckResult("eigen/residuals", not residual, residual),
            CheckResult("eigen/dominant", not dominant, dominant)]


def _oracle_pairs(row: ClassDef, top: int):
    """_level_pairs for each parameter's levels to ``top`` vertices or
    elements, against one oracle fill per parameter; a range below the start
    level calls no oracle."""
    for param in _params(row, (3, 4, 5)):
        # a level of a row that takes k counts k-gons: r of them have (k-2)r+2 vertices
        size = (top - 2) // (param - 2) if param else top
        levels = _levels(GraphClassSpec(row.name, param), size)
        hists = row.oracle(param, size) if levels else {}
        for level in levels:
            yield from _level_pairs(row, param, level, hists[level.level])


def suite_oracle(n_max: int) -> list[CheckResult]:
    """Oracle degree histograms against matrix-generated vectors, each class
    and parameter from one fill of its gap recursion, to the floor or n_max:
    vertices for the graph classes and k-angulations, elements for
    partitions, and each closed-form total a row has against the level's
    total."""
    out = []
    for row in CLASSES.values():
        pairs = _oracle_pairs(row, _top(f"oracle/{row.name}", n_max))
        out.append(_check_levels(f"oracle/{row.name}", pairs, n_max))
    return out


def suite_lemma1(n_max: int) -> list[CheckResult]:
    """Exhaustive binomial identity check over the argument cube, each of t,
    m and n to the floor or n_max."""
    from . import closedform

    top = _top("lemma1", n_max)
    if top < 0:
        return [CheckResult("lemma1/exhaustive", False, _empty(n_max))]
    cube = product(range(top + 1), repeat=3)
    bad = next((tmn for tmn in cube if not closedform.lemma1_check(*tmn)), None)
    detail = "" if bad is None else "fails at t={} m={} n={}".format(*bad)
    return [CheckResult("lemma1/exhaustive", bad is None, detail)]


def _transported(weights, top: int, want=None):
    """(label, got, want) for the relation totals fed ``weights`` against
    ``want`` from level 1, or by default the plane-graph totals from level 2."""
    got = _levels(GraphClassSpec("relation", weights), top, totals=True)
    if want is None:
        got, want = got[1:], [total for _, total in _levels(GraphClassSpec("geometric"), top, totals=True)]
    for (level, total), count in zip(got, want):
        yield f"n={level}", (total,), (count,)


def suite_relation(n_max: int) -> list[CheckResult]:
    """The relation matrix transports one class's counts into another's:
    connected-graph totals into plane-graph totals to the floor or n_max,
    and spanning trees and paths into the oracle's forests (one fill of
    each interval recursion) to n_max vertices; and ``charpoly_top`` is its
    recurrence's d_n at n_max, fed the default counts and the tree counts."""
    from . import oracle

    top = _top("relation/connected-to-geometric", n_max)
    out = [_check_levels("relation/connected-to-geometric", _transported(None, top), n_max)]
    weights = {kind: oracle.spanning_counts(n_max, kind) for kind in ("tree", "path")}
    for kind, structure in (("tree", "forest"), ("path", "path-forest")):
        want = (oracle.count_spanning_structures(1, structure), *oracle.spanning_counts(n_max, structure))
        pairs = _transported(weights[kind], n_max, want)
        out.append(_check_levels(f"relation/{kind}s-to-{structure}s", pairs, n_max))
    detail = "" if n_max >= 1 else _empty(n_max)
    for name, counts in (("default", None), ("spanning-tree", weights["tree"])) if n_max >= 1 else ():
        m = CLASSES["relation"].build(n_max, counts)
        if not detail and charpoly_top(m) != charpoly_recurrence(m)[n_max]:
            detail = f"with the {name} counts, differs at n={n_max}"
    return [*out, CheckResult("relation/charpoly-top", not detail, detail)]


def run_suite(name: str, n_max: int) -> list[CheckResult]:
    # looked up at call time, so a patched suite_<name> is the one that runs
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return globals()[f"suite_{name}"](n_max)
