"""Cross-module verification suites: every closed form against every matrix,
every matrix against the oracle, and the spectral identities.

Each suite returns a list of CheckResult so the CLI can print one PASS/FAIL
line per check; failures carry the first counterexample found.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import closedform, oracle, spectral
from .exact import charpoly_determinant
from .production import (
    CLASSES,
    CONNECTED,
    GEOMETRIC,
    KANGULATION,
    PARTITION,
    RELATION,
    ClassDef,
    GraphClassSpec,
    connected_totals,
    count_sequence,
    geometric_class,
    k_angulation_total,
    relation_class,
)

# Fixed ranges and bounds of the suites; each suite takes only the size that
# ``verify --n-max`` (or ``--max``) sets.
ROOT_TOL = Fraction(1, 10**48)
RESIDUAL_BOUND = 1e-30
N_PARTITIONS = 20
KANG_MAX_VERTICES = 22
N_CONNECTED = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _params(row: ClassDef, ks, counts=None) -> tuple:
    """The parameters a suite runs a class at: each k in ``ks`` for the class
    that takes k, ``counts`` for the one that takes a count sequence."""
    return {"k": tuple(ks), "weights": (counts,)}.get(row.param, (None,))


def _label(row: ClassDef, param) -> str:
    return f"{row.name}(k={param})" if row.param == "k" else row.name


def _levels(spec: GraphClassSpec, top: int):
    """Every level of the class up to ``top`` from one count_sequence call;
    none when ``top`` is below the class's start level."""
    return count_sequence(spec, top) if top >= spec.start_index else []


def _level_pair(row: ClassDef, param, level, got) -> tuple:
    """(label, got, vector) for one level; ``got`` is padded with zeros, so
    the vector's tail past it must be zero too."""
    label = f"{_label(row, param)} {row.size_option}={level.level}"
    return label, tuple(got) + (0,) * (len(level.entries) - len(got)), level.entries


def _check_levels(name: str, pairs) -> CheckResult:
    pairs = list(pairs)
    if not pairs:
        return CheckResult(name, False, "empty range: nothing was checked")
    for label, got, want in pairs:
        if tuple(got) != tuple(want):
            return CheckResult(name, False, f"first mismatch at {label}: {got} != {want}")
    return CheckResult(name, True)


def suite_vectors(n_max: int = 12) -> list[CheckResult]:
    """Closed-form count vectors against matrix iteration, all classes."""
    out = []
    for row in CLASSES.values():
        if row.vector is None:
            continue
        pairs = [
            _level_pair(row, param, level, row.vector(param, level.level))
            for param in _params(row, (3, 4, 5, 6))
            for level in _levels(row.spec(param), n_max)
        ]
        out.append(_check_levels(f"vectors/{row.name}", pairs))
    return out


def suite_charpoly(n_max: int = 20) -> list[CheckResult]:
    """Recurrence against the closed forms and the Berkowitz determinants,
    coefficient-exact, at every n up to max(20, n_max)."""
    if n_max < 0:
        return [CheckResult("charpoly/ranges", False, f"empty range: n_max={n_max} < 0")]
    top = max(20, n_max)
    counts = connected_totals(top)
    closed, dets = [], []
    for row in CLASSES.values():
        for param in _params(row, (3, 4), counts):
            matrix = row.build(top, param)
            seq = spectral.charpoly_recurrence(matrix)
            label = _label(row, param)
            if row.charpoly is not None:
                bad = next((n for n in range(top + 1) if row.charpoly(param, n) != seq[n]), None)
                detail = "" if bad is None else f"closed form differs at n={bad}"
                closed.append(CheckResult(f"charpoly/{label}", bad is None, detail))
            det = charpoly_determinant(matrix)
            bad = next((n for n in range(1, top + 1) if det[n] != seq[n]), None)
            detail = "" if bad is None else f"differs at n={bad}"
            dets.append(CheckResult(f"charpoly-determinant/{label}", bad is None, detail))
    return closed + dets


def suite_eigen(n_max: int = 6) -> list[CheckResult]:
    """Every real eigenvalue, to within ROOT_TOL, of every class matrix up to
    size n_max yields a residual of at most RESIDUAL_BOUND."""
    if n_max < 1:
        return [CheckResult("eigen/residuals", False, f"empty range: n_max={n_max} < 1")]
    from mpmath import mp, mpf

    with mp.workprec(spectral.precision_bits()):
        bound = mpf(RESIDUAL_BOUND)
    counts = connected_totals(max(2, n_max))
    for n in range(1, n_max + 1):
        for row in CLASSES.values():
            for param in _params(row, (3, 4), counts):
                matrix = row.build(n, param)
                poly = spectral.charpoly_recurrence(matrix)[n]
                for root in spectral.real_roots(poly, ROOT_TOL):
                    pair = spectral.eigenvector_from_charpoly(matrix, root)
                    if not pair.residual <= bound:
                        detail = f"{_label(row, param)} n={n} root~{float(root):.6g}: residual {pair.residual}"
                        return [CheckResult("eigen/residuals", False, detail)]
    return [CheckResult("eigen/residuals", True)]


def suite_oracle(n_graphs: int = 6) -> list[CheckResult]:
    """Oracle degree histograms against matrix-generated vectors, each from
    its gap recursion: graph classes to n_graphs vertices, partitions to
    N_PARTITIONS elements and k-angulations to KANG_MAX_VERTICES vertices."""
    # Per class, in the order checked: the oracle histogram at
    # (param, level), the largest level the bounds allow (a k-angulation
    # with r faces has (k-2)r+2 vertices), and a closed-form total, if any.
    oracles = {
        GEOMETRIC: (
            lambda _, n: oracle.visibility_histogram(n),
            lambda _: n_graphs,
            None,
        ),
        CONNECTED: (
            lambda _, n: oracle.connected_visibility_histogram(n),
            lambda _: n_graphs,
            None,
        ),
        PARTITION: (
            lambda _, n: oracle.partition_isolation_histogram(n),
            lambda _: N_PARTITIONS,
            None,
        ),
        KANGULATION: (
            lambda k, r: oracle.dissection_degree_histogram(k, r),
            lambda k: (KANG_MAX_VERTICES - 2) // (k - 2),
            k_angulation_total,
        ),
        RELATION: (
            lambda _, n: oracle.isolation_histogram(n),
            lambda _: n_graphs,
            None,
        ),
    }
    out = []
    counts = connected_totals(max(2, n_graphs + 2))
    for name, (histogram, top, total) in oracles.items():
        row = CLASSES[name]
        pairs = []
        for param in _params(row, (3, 4, 5), counts):
            for level in _levels(row.spec(param), top(param)):
                hist = histogram(param, level.level)
                pair = _level_pair(row, param, level, hist)
                pairs.append(pair)
                if total is not None:
                    pairs.append((f"total {pair[0]}", (sum(hist),), (total(param, level.level),)))
        out.append(_check_levels(f"oracle/{name}", pairs))
    return out


def suite_lemma1(limit: int = 12) -> list[CheckResult]:
    """Exhaustive binomial identity check over the argument cube."""
    if limit < 0:
        return [CheckResult("lemma1/exhaustive", False, f"empty range: limit={limit} < 0")]
    for t in range(limit + 1):
        for m in range(limit + 1):
            for n in range(limit + 1):
                if not closedform.lemma1_check(t, m, n):
                    return [
                        CheckResult(
                            "lemma1/exhaustive", False, f"fails at t={t} m={m} n={n}"
                        )
                    ]
    return [CheckResult("lemma1/exhaustive", True)]


def suite_relation(n_oracle: int = 7) -> list[CheckResult]:
    """The relation matrix transports one class's counts into another's:
    connected-graph totals into plane-graph totals to N_CONNECTED, and
    spanning trees and paths into the oracle's forests to n_oracle vertices.
    Each oracle count comes from one fill of its interval recursion."""
    out = []
    geo = _levels(geometric_class(), N_CONNECTED)
    rel = _levels(relation_class(connected_totals(N_CONNECTED + 2)), N_CONNECTED)
    pairs = [
        (f"n={v.level}", (v.total,), (geo_v.total,))
        for v, geo_v in zip(rel[1:], geo)
    ]
    out.append(_check_levels("relation/connected-to-geometric", pairs))
    for kind, structure in (("tree", "forest"), ("path", "path-forest")):
        weights = oracle.spanning_counts(n_oracle + 2, kind)
        want = (oracle.count_spanning_structures(1, structure),)  # levels start at 1
        want += oracle.spanning_counts(n_oracle, structure)
        pairs = [
            (f"n={v.level}", (v.total,), (count,))
            for v, count in zip(_levels(relation_class(weights), n_oracle), want)
        ]
        out.append(_check_levels(f"relation/{kind}s-to-{structure}s", pairs))
    return out


SUITES = {
    "vectors": suite_vectors,
    "charpoly": suite_charpoly,
    "eigen": suite_eigen,
    "oracle": suite_oracle,
    "lemma1": suite_lemma1,
    "relation": suite_relation,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name](**kwargs)
