"""Cross-module verification suites: every closed form against every matrix,
every matrix against the brute-force oracle, and the spectral identities.

Each suite returns a list of CheckResult so the CLI can print one PASS/FAIL
line per check; failures carry the first counterexample found.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from . import closedform, oracle, production, spectral
from .exact import charpoly_determinant
from .production import (
    GraphClassSpec,
    build_k_angulation_matrix,
    build_relation_matrix,
    connected_class,
    connected_totals,
    count_sequence,
    geometric_class,
    k_angulation_class,
    k_angulation_total,
    partition_class,
    relation_class,
)

SUITE_NAMES = ("vectors", "charpoly", "eigen", "oracle", "lemma1", "relation")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _vector_at(spec: GraphClassSpec, level: int, width: int):
    row = count_sequence(spec, level)[-1]
    head = row.vector.entries[:width]
    tail = row.vector.entries[width:]
    return head, all(e == 0 for e in tail)


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
    pairs = []
    for k in (3, 4, 5, 6):
        for r in range(1, n_max + 1):
            head, zeros = _vector_at(k_angulation_class(k), r, r)
            pairs.append((f"k={k} r={r}", closedform.kangulation_vector(k, r), head))
            if not zeros:
                return [CheckResult("vectors/kangulation", False, f"trailing nonzero at k={k} r={r}")]
    out.append(_check_levels("vectors/kangulation", pairs))
    pairs = [
        (f"n={n}", closedform.geometric_vector(n), _vector_at(geometric_class(), n, n - 1)[0])
        for n in range(2, n_max + 1)
    ]
    out.append(_check_levels("vectors/geometric", pairs))
    pairs = [
        (f"n={n}", closedform.connected_vector(n), _vector_at(connected_class(), n, n - 1)[0])
        for n in range(2, n_max + 1)
    ]
    out.append(_check_levels("vectors/connected", pairs))
    pairs = [
        (f"n={n}", closedform.partition_vector(n), _vector_at(partition_class(), n, n + 1)[0])
        for n in range(1, n_max + 1)
    ]
    out.append(_check_levels("vectors/partition", pairs))
    return out


def _class_matrices(size: int):
    yield "kangulation(k=3)", build_k_angulation_matrix(3, size), spectral.charpoly_closed_kangulation, (3,)
    yield "kangulation(k=4)", build_k_angulation_matrix(4, size), spectral.charpoly_closed_kangulation, (4,)
    yield "geometric", production.build_geometric_matrix(size), spectral.charpoly_closed_geometric, ()
    yield "connected", production.build_connected_matrix(size), spectral.charpoly_closed_connected, ()
    yield "partition", production.build_partition_matrix(size), spectral.charpoly_closed_partition, ()


def suite_charpoly(det_max: int = 8, closed_max: int = 20) -> list[CheckResult]:
    """Recurrence, closed form and determinant oracle, coefficient-exact."""
    out = []
    for label, matrix, closed, extra in _class_matrices(closed_max):
        seq = spectral.charpoly_recurrence(matrix)
        for n in range(closed_max + 1):
            if closed(*extra, n) != seq[n]:
                out.append(
                    CheckResult(
                        f"charpoly/{label}", False, f"closed form differs at n={n}"
                    )
                )
                break
        else:
            out.append(CheckResult(f"charpoly/{label}", True))
    for label, matrix, _, _ in _class_matrices(det_max):
        seq = spectral.charpoly_recurrence(matrix)
        for n in range(1, det_max + 1):
            sub = type(matrix)(n, matrix.sub, matrix.band[:n])
            if charpoly_determinant(sub) != seq[n]:
                out.append(
                    CheckResult(
                        f"charpoly-determinant/{label}", False, f"differs at n={n}"
                    )
                )
                break
        else:
            out.append(CheckResult(f"charpoly-determinant/{label}", True))
    rel = build_relation_matrix(det_max, connected_totals(det_max))
    seq = spectral.charpoly_recurrence(rel)
    ok = all(
        charpoly_determinant(type(rel)(n, rel.sub, rel.band[:n])) == seq[n]
        for n in range(1, det_max + 1)
    )
    out.append(
        CheckResult(
            "charpoly-determinant/relation",
            ok,
            "" if ok else "recurrence disagrees with determinant",
        )
    )
    return out


def _eigen_matrices(n: int):
    yield "kangulation(k=3)", build_k_angulation_matrix(3, n)
    yield "kangulation(k=4)", build_k_angulation_matrix(4, n)
    yield "geometric", production.build_geometric_matrix(n)
    yield "connected", production.build_connected_matrix(n)
    yield "partition", production.build_partition_matrix(n)
    yield "relation", build_relation_matrix(n, connected_totals(max(2, n)))


def suite_eigen(
    n_max: int = 6,
    root_tol: Fraction = Fraction(1, 10**48),
    residual_bound: float = 1e-30,
) -> list[CheckResult]:
    """Every real eigenvalue of every class matrix yields a small residual."""
    if n_max < 1:
        return [CheckResult("eigen/residuals", False, f"empty range: n_max={n_max} < 1")]
    out = []
    with mp.workprec(spectral.precision_bits()):
        bound = mpf(residual_bound)
    for n in range(1, n_max + 1):
        for label, matrix in _eigen_matrices(n):
            poly = spectral.charpoly_recurrence(matrix)[n]
            for root in spectral.real_roots(poly, root_tol):
                pair = spectral.eigenvector_from_charpoly(matrix, root)
                if not pair.residual <= bound:
                    out.append(
                        CheckResult(
                            "eigen/residuals",
                            False,
                            f"{label} n={n} root~{float(root):.6g}: residual {pair.residual}",
                        )
                    )
                    return out
    out.append(CheckResult("eigen/residuals", True))
    return out


def suite_oracle(
    n_graphs: int = 6,
    n_partitions: int = 9,
    kang_max_vertices: int = 12,
    workers: int = 1,
    force: bool = False,
) -> list[CheckResult]:
    """Brute-force degree histograms against matrix-generated vectors."""
    out = []
    pairs = []
    for n in range(2, n_graphs + 1):
        hist = oracle.visibility_histogram(n, workers=workers, force=force)
        head, _ = _vector_at(geometric_class(), n, len(hist))
        pairs.append((f"n={n}", hist, head))
    out.append(_check_levels("oracle/geometric", pairs))
    pairs = []
    for n in range(2, n_graphs + 1):
        hist = oracle.connected_visibility_histogram(n, workers=workers, force=force)
        head, _ = _vector_at(connected_class(), n, len(hist))
        pairs.append((f"n={n}", hist, head))
    out.append(_check_levels("oracle/connected", pairs))
    pairs = []
    for n in range(1, n_partitions + 1):
        hist = oracle.partition_isolation_histogram(n, force=force)
        head, _ = _vector_at(partition_class(), n, len(hist))
        pairs.append((f"n={n}", hist, head))
    out.append(_check_levels("oracle/partition", pairs))
    pairs = []
    for k in (3, 4, 5):
        r = 1
        while (k - 2) * r + 2 <= kang_max_vertices:
            hist = oracle.dissection_degree_histogram(k, r, force=force)
            head, _ = _vector_at(k_angulation_class(k), r, r)
            pairs.append((f"k={k} r={r}", hist, head))
            pairs.append(
                (f"total k={k} r={r}", (sum(hist),), (k_angulation_total(k, r),))
            )
            r += 1
    out.append(_check_levels("oracle/kangulation", pairs))
    weights = connected_totals(n_graphs + 2)
    pairs = []
    for n in range(1, n_graphs + 1):
        hist = oracle.isolation_histogram(n, workers=workers, force=force)
        head, _ = _vector_at(relation_class(weights), n, len(hist))
        pairs.append((f"n={n}", hist, head))
    out.append(_check_levels("oracle/relation", pairs))
    audit_n = min(n_graphs, 6)
    seen = set()
    dupes = False
    for g in oracle.enumerate_noncrossing_graphs(audit_n):
        if g.edges in seen:
            dupes = True
            break
        seen.add(g.edges)
    out.append(
        CheckResult(
            "oracle/duplicate-free",
            not dupes,
            "" if not dupes else f"duplicate edge set at n={audit_n}",
        )
    )
    same = (
        oracle.visibility_histogram(audit_n, workers=1)
        == oracle.visibility_histogram(audit_n, workers=3)
    )
    out.append(
        CheckResult(
            "oracle/parallel-determinism",
            same,
            "" if same else "histograms differ across worker counts",
        )
    )
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


def suite_relation(
    n_connected: int = 10, n_oracle: int = 7, force: bool = False
) -> list[CheckResult]:
    """The relation matrix transports one class's counts into another's."""
    out = []
    geo = count_sequence(geometric_class(), n_connected)
    rel = count_sequence(relation_class(connected_totals(n_connected + 2)), n_connected)
    pairs = [
        (f"n={row.level}", (row.total,), (geo_row.total,))
        for row, geo_row in zip(rel[1:], geo)
    ]
    out.append(_check_levels("relation/connected-to-geometric", pairs))
    top = n_oracle + 2
    trees = oracle.spanning_counts(top, "tree", force=True if top > oracle.MAX_SPANNING_VERTICES else force)
    forest_rows = count_sequence(relation_class(trees), n_oracle)
    pairs = [
        (
            f"n={row.level}",
            (row.total,),
            (oracle.count_spanning_structures(row.level, "forest", force=force),),
        )
        for row in forest_rows
    ]
    out.append(_check_levels("relation/trees-to-forests", pairs))
    paths = oracle.spanning_counts(top, "path", force=True if top > oracle.MAX_SPANNING_VERTICES else force)
    path_rows = count_sequence(relation_class(paths), n_oracle)
    pairs = [
        (
            f"n={row.level}",
            (row.total,),
            (oracle.count_spanning_structures(row.level, "path-forest", force=force),),
        )
        for row in path_rows
    ]
    out.append(_check_levels("relation/paths-to-path-forests", pairs))
    return out


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    suites = {
        "vectors": suite_vectors,
        "charpoly": suite_charpoly,
        "eigen": suite_eigen,
        "oracle": suite_oracle,
        "lemma1": suite_lemma1,
        "relation": suite_relation,
    }
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return suites[name](**kwargs)
