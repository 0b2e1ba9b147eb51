"""Cross-module verification suites: every closed form against every matrix,
every matrix against the oracle, and the spectral identities.

Each suite takes one size, n_max, and returns a list of CheckResult so the
CLI can print one PASS/FAIL line per check; failures carry the first
counterexample found.  A check named in FLOORS runs to max(floor, n_max),
every other check to n_max, and at a negative n_max every check fails.
"""
from __future__ import annotations

from itertools import product
from typing import NamedTuple

from . import FLOORS, SUITE_NAMES, closedform
from .exact import HTMatrix, charpoly_determinant, charpoly_recurrence
from .production import CLASSES, ClassDef, GraphClassSpec, count_sequence, count_totals

# The eigen suite's residual bound; it refines every root to within 10**-48.
RESIDUAL_BOUND = 1e-30


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


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


def _levels(spec: GraphClassSpec, top: int):
    """Every level of the class up to ``top`` from one count_sequence call;
    none when ``top`` is below the class's start level."""
    return count_sequence(spec, top) if top >= spec.start_index else []


def _totals(spec: GraphClassSpec, top: int):
    """``count_totals`` to ``top``; none below the class's start level."""
    return count_totals(spec, top) if top >= spec.start_index else []


def _level_pair(row: ClassDef, param, level, got) -> tuple:
    """(label, got, vector) for one level; ``got`` is padded with zeros, so
    the vector's tail past it must be zero too."""
    label = f"{_label(row, param)} {row.size_option}={level.level}"
    return label, tuple(got) + (0,) * (len(level.entries) - len(got)), level.entries


def _check_levels(name: str, pairs, n_max: int) -> CheckResult:
    pairs = list(pairs)
    if not pairs:
        return CheckResult(name, False, _empty(n_max))
    for label, got, want in pairs:
        if tuple(got) != tuple(want):
            return CheckResult(name, False, f"first mismatch at {label}: {got} != {want}")
    return CheckResult(name, True)


def suite_vectors(n_max: int) -> list[CheckResult]:
    """Closed-form count vectors against matrix iteration, all classes."""
    out = []
    for row in CLASSES.values():
        if row.vector is None:
            continue
        pairs = [
            _level_pair(row, param, level, row.vector(param, level.level))
            for param in _params(row, (3, 4, 5, 6))
            for level in _levels(GraphClassSpec(row.name, param), n_max)
        ]
        out.append(_check_levels(f"vectors/{row.name}", pairs, n_max))
    return out


def suite_charpoly(n_max: int) -> list[CheckResult]:
    """Recurrence against the closed forms and the Berkowitz determinants,
    coefficient-exact, at every n up to the floor or n_max."""
    top = _top("charpoly", n_max)
    if top < 0:
        return [CheckResult("charpoly/ranges", False, _empty(n_max))]
    closed, dets = [], []
    for row in CLASSES.values():
        for param in _params(row, (3, 4)):
            matrix = row.build(top, param)
            seq = charpoly_recurrence(matrix)
            label = _label(row, param)
            if row.charpoly is not None:
                want = row.charpoly(param, top)
                bad = next((n for n in range(top + 1) if want[n] != seq[n]), None)
                detail = "" if bad is None else f"closed form differs at n={bad}"
                closed.append(CheckResult(f"charpoly/{label}", bad is None, detail))
            det = charpoly_determinant(matrix)
            bad = next((n for n in range(1, top + 1) if det[n] != seq[n]), None)
            detail = "" if bad is None else f"differs at n={bad}"
            dets.append(CheckResult(f"charpoly-determinant/{label}", bad is None, detail))
    return closed + dets


def suite_eigen(n_max: int) -> list[CheckResult]:
    """Every real eigenvalue, to within 10**-48, of every class matrix up to
    size n_max yields a residual of at most RESIDUAL_BOUND."""
    if n_max < 1:
        return [CheckResult("eigen/residuals", False, f"empty range: n_max={n_max} < 1")]
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
    for n in range(1, n_max + 1):
        for label, m, seq in built:
            matrix = HTMatrix(n, m.sub, m.band[:n], m.band_gf)
            for root in spectral.real_roots(seq[n], tol):
                pair = spectral.eigenvector_from_charpoly(matrix, root)
                if not pair.residual <= bound:
                    detail = f"{label} n={n} root~{float(root):.6g}: residual {float(pair.residual):.5g}"
                    return [CheckResult("eigen/residuals", False, detail)]
    return [CheckResult("eigen/residuals", True)]


def suite_oracle(n_max: int) -> list[CheckResult]:
    """Oracle degree histograms against matrix-generated vectors, each from
    its gap recursion, to the floor or n_max: vertices for the graph classes
    and k-angulations, elements for partitions, and each closed-form total
    a row has against the histogram's sum."""
    out = []
    for row in CLASSES.values():
        top = _top(f"oracle/{row.name}", n_max)
        pairs = []
        for param in _params(row, (3, 4, 5)):
            # a level of a row that takes k counts k-gons: r of them have (k-2)r+2 vertices
            last = (top - 2) // (param - 2) if row.param == "k" else top
            for level in _levels(GraphClassSpec(row.name, param), last):
                hist = row.oracle(param, level.level)
                pair = _level_pair(row, param, level, hist)
                pairs.append(pair)
                if row.total is not None:
                    want = row.total(param, level.level)
                    pairs.append((f"total {pair[0]}", (sum(hist),), (want,)))
        out.append(_check_levels(f"oracle/{row.name}", pairs, n_max))
    return out


def suite_lemma1(n_max: int) -> list[CheckResult]:
    """Exhaustive binomial identity check over the argument cube, each of t,
    m and n to the floor or n_max."""
    top = _top("lemma1", n_max)
    if top < 0:
        return [CheckResult("lemma1/exhaustive", False, _empty(n_max))]
    cube = product(range(top + 1), repeat=3)
    bad = next((tmn for tmn in cube if not closedform.lemma1_check(*tmn)), None)
    detail = "" if bad is None else "fails at t={} m={} n={}".format(*bad)
    return [CheckResult("lemma1/exhaustive", bad is None, detail)]


def suite_relation(n_max: int) -> list[CheckResult]:
    """The relation matrix transports one class's counts into another's:
    connected-graph totals into plane-graph totals to the floor or n_max,
    and spanning trees and paths into the oracle's forests to n_max
    vertices.  Each oracle count comes from one fill of its interval
    recursion."""
    from . import oracle

    out = []
    top = _top("relation/connected-to-geometric", n_max)
    geo = _totals(GraphClassSpec("geometric"), top)
    rel = _totals(GraphClassSpec("relation"), top)
    pairs = [(f"n={pair[0]}", pair, want) for pair, want in zip(rel[1:], geo)]
    out.append(_check_levels("relation/connected-to-geometric", pairs, n_max))
    for kind, structure in (("tree", "forest"), ("path", "path-forest")):
        weights = oracle.spanning_counts(n_max, kind)
        want = (oracle.count_spanning_structures(1, structure),)  # levels start at 1
        want += oracle.spanning_counts(n_max, structure)
        pairs = [
            (f"n={level}", (total,), (count,))
            for (level, total), count in zip(_totals(GraphClassSpec("relation", weights), n_max), want)
        ]
        out.append(_check_levels(f"relation/{kind}s-to-{structure}s", pairs, n_max))
    return out


SUITES = {name: globals()[f"suite_{name}"] for name in SUITE_NAMES}


def run_suite(name: str, n_max: int) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name](n_max)
