"""The benchmark's workloads: the CLI commands ("ops") each one runs, drawn from
a seed, and the checks that each op's output is correct.

The seed fixes the order of the ops and draws each op's size from a narrow
window just below the nominal size, so that a change cannot special-case one
n.  Each check reaches its expected values by a route that does not run the
code the op timed: harness-side binomial formulas, the closed forms, the
brute-force oracle, a second op computing the same object another way, or
the trace identities of the characteristic polynomial.

See README.md in this directory for why each workload was chosen.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

WORKLOADS = ("bfile", "spectrum", "verify")

RESIDUAL_BOUND = 1e-30
# Levels checked against the closed-form vectors (geometric, connected) and
# against brute-force forest counts; the oracle's spanning guard is 8 vertices.
CLOSED_PREFIX = 30
FOREST_PREFIX = 8
# The CLI clamps the oracle suites of ``verify`` to n <= 7 (cmd_verify).
ORACLE_N = 7


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    """One ``python -m convexcount`` command and what its output must satisfy.

    ``check`` names the check; ``cls`` and ``size`` parameterize it; ``peer``
    names the op whose output this one is compared with, if any.
    """

    name: str
    argv: tuple[str, ...]
    check: str
    cls: str = ""
    size: int = 0
    relation: bool = False
    peer: str | None = None


def spanning_tree_totals(n_max: int) -> tuple[int, ...]:
    """Non-crossing spanning trees on n = 2..n_max convex points,
    C(3n-3, n-1) / (2n-1); fed to the relation matrix they count forests."""
    return tuple(math.comb(3 * n - 3, n - 1) // (2 * n - 1) for n in range(2, n_max + 1))


def _bfile_ops(rng: random.Random) -> list[Op]:
    def n_max() -> int:
        return rng.randint(196, 200)

    ops = []
    for cls in ("geometric", "connected", "partition"):
        n = n_max()
        ops.append(Op(f"counts.{cls}", ("counts", cls, "--n-max", str(n), "--bfile", "--force"), "bfile", cls, n))
    n = n_max()
    ops.append(
        Op("counts.kangulation4", ("counts", "kangulation", "--k", "4", "--n-max", str(n), "--bfile", "--force"),
           "bfile", "kangulation", n)
    )
    n = n_max()
    ops.append(
        Op("counts.relation", ("counts", "relation", "--n-max", str(n), "--bfile", "--force"),
           "bfile", "relation", n, relation=True, peer="counts.geometric")
    )
    n = n_max()
    trees = ",".join(str(c) for c in spanning_tree_totals(n + 2))
    ops.append(
        Op("counts.relation-forests",
           ("counts", "relation", "--n-max", str(n), "--bfile", "--force", "--c-values", trees),
           "bfile", "forests", n, relation=True)
    )
    return ops


def _spectrum_ops(rng: random.Random) -> list[Op]:
    ops = []
    for cls in ("geometric", "connected", "partition"):
        n = rng.randint(27, 28)
        ops.append(Op(f"eigen.{cls}", ("eigen", cls, "--n", str(n), "--all-roots"), "eigen", cls, n))
    # Not drawn: the relation matrix has one real eigenvalue at odd n and two
    # at even n, so its cost jumps by half between neighbouring sizes.
    ops.append(Op("eigen.relation", ("eigen", "relation", "--n", "28", "--all-roots"), "eigen", "relation", 28,
                  relation=True))
    r = rng.randint(27, 28)
    ops.append(Op("eigen.kangulation4", ("eigen", "kangulation", "--k", "4", "--r", str(r), "--all-roots"),
                  "eigen", "kangulation", r))
    for cls in ("geometric", "connected", "partition"):
        n = rng.randint(146, 150)
        for method, other in (("closed", "recurrence"), ("recurrence", "closed")):
            ops.append(
                Op(f"charpoly.{cls}.{method}", ("charpoly", cls, "--n", str(n), "--method", method),
                   "charpoly", cls, n, peer=f"charpoly.{cls}.{other}")
            )
    n = rng.randint(146, 150)
    ops.append(Op("charpoly.relation", ("charpoly", "relation", "--n", str(n)), "charpoly", "relation", n,
                  relation=True))
    return ops


def _verify_ops(rng: random.Random) -> list[Op]:
    # The oracle suites stay at the CLI's clamp: one size lower cuts the
    # oracle's share of the workload several times over.
    ops = [
        Op(f"verify.{suite}", ("verify", suite, "--n-max", str(ORACLE_N)), "verify", relation=suite == "relation")
        for suite in ("charpoly", "eigen", "oracle", "lemma1", "relation")
    ]
    n = rng.randint(38, 40)
    ops.append(Op("verify.vectors", ("verify", "vectors", "--n-max", str(n)), "verify", size=n))
    return ops


_BUILDERS = {"bfile": _bfile_ops, "spectrum": _spectrum_ops, "verify": _verify_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's ops with sizes drawn from ``seed``, in seed order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Checks.  Each returns quietly or raises CheckError.

def _read_bfile(stdout: str) -> dict[int, int]:
    totals = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) != 2:
            raise CheckError(f"not a b-file line: {line[:60]!r}")
        totals[int(parts[0])] = int(parts[1])
    return totals


def _parse_bfile(stdout: str, start: int, n_max: int) -> dict[int, int]:
    totals = _read_bfile(stdout)
    if list(totals) != list(range(start, n_max + 1)):
        raise CheckError(f"levels are not {start}..{n_max}")
    return totals


_START_LEVEL = {"geometric": 2, "connected": 2, "partition": 1, "kangulation": 1, "relation": 1, "forests": 1}


@lru_cache(maxsize=None)
def _closed_total(cls: str, n: int) -> int:
    from convexcount import closedform

    return sum(getattr(closedform, f"{cls}_vector")(n))


@lru_cache(maxsize=None)
def _forest_count(n: int) -> int:
    from convexcount import oracle

    return oracle.count_spanning_structures(n, "forest")


def _peer_output(op: Op, peers: dict[str, str]) -> str:
    if op.peer not in peers:
        raise CheckError(f"no output of {op.peer} to compare with")
    return peers[op.peer]


def _expect(level: int, got: int, want: int, route: str) -> None:
    if got != want:
        raise CheckError(f"level {level}: {got} differs from {route} {want}")


def _check_bfile(op: Op, stdout: str, peers: dict[str, str]) -> None:
    totals = _parse_bfile(stdout, _START_LEVEL[op.cls], op.size)
    for n, total in totals.items():
        if op.cls == "kangulation":  # Fuss-Catalan, k = 4
            _expect(n, total, math.comb(3 * n, n) // (2 * n + 1), "Fuss-Catalan")
        elif op.cls == "partition":
            _expect(n, total, math.comb(2 * n, n) // (n + 1), "Catalan")
        elif op.cls in ("geometric", "connected") and n <= CLOSED_PREFIX:
            _expect(n, total, _closed_total(op.cls, n), "closed-form sum")
        elif op.cls == "forests" and n <= FOREST_PREFIX:
            _expect(n, total, _forest_count(n), "oracle forest count")
    if op.cls == "relation":
        # Fed connected totals, the relation matrix counts all plane graphs.
        geo = _read_bfile(_peer_output(op, peers))
        common = [n for n in totals if n in geo]
        if len(common) < op.size // 2:
            raise CheckError("too few levels in common with the geometric counts")
        for n in common:
            _expect(n, totals[n], geo[n], "geometric total")


# Sub-diagonal and first two band values of each class matrix, for the trace
# identities of det(A - xI): [x^(n-1)] = (-1)^(n-1) e1, [x^(n-2)] = (-1)^n e2,
# with e1 = n a0 and e2 = C(n,2) a0^2 - (n-1) s a1 for a Hessenberg-Toeplitz A.
_BAND = {"geometric": (2, 2, 4), "connected": (1, 3, 7), "partition": (1, 0, 1), "relation": (1, 0, 1)}


def _parse_coeffs(stdout: str, n: int) -> list[int]:
    coeffs = [int(c) for c in stdout.split()]
    if len(coeffs) != n + 1:
        raise CheckError(f"{len(coeffs)} coefficients, expected {n + 1}")
    return coeffs


def _check_charpoly(op: Op, stdout: str, peers: dict[str, str]) -> None:
    n = op.size
    coeffs = _parse_coeffs(stdout, n)
    s, a0, a1 = _BAND[op.cls]
    e1 = n * a0
    e2 = math.comb(n, 2) * a0 * a0 - (n - 1) * s * a1
    sign = -1 if n % 2 else 1
    if coeffs[n] != sign or coeffs[n - 1] != -sign * e1 or coeffs[n - 2] != sign * e2:
        raise CheckError("leading coefficients break the trace identities")
    if op.peer is not None and coeffs != _parse_coeffs(_peer_output(op, peers), n):
        raise CheckError(f"coefficients differ from {op.peer}")


def _check_eigen(op: Op, stdout: str, peers: dict[str, str]) -> None:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("real roots found: "):
        raise CheckError("missing real-root count")
    count = int(lines[0].split(": ")[1])
    values = [line for line in lines if line.startswith("eigenvalue ")]
    residuals = [float(line.split()[1]) for line in lines if line.strip().startswith("residual ")]
    if count < 1 or len(values) != count or len(residuals) != count:
        raise CheckError(f"{len(values)} eigenpairs printed for {count} real roots")
    worst = max(residuals)
    if not worst <= RESIDUAL_BOUND:
        raise CheckError(f"residual {worst} above {RESIDUAL_BOUND}")


def _check_verify(op: Op, stdout: str, peers: dict[str, str]) -> None:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "verify: all checks passed":
        raise CheckError("no 'all checks passed' line")
    if any(line.startswith("FAIL") for line in lines) or not any(line.startswith("PASS") for line in lines):
        raise CheckError("a check failed or none ran")


_CHECKS = {"bfile": _check_bfile, "charpoly": _check_charpoly, "eigen": _check_eigen, "verify": _check_verify}


def check_output(op: Op, stdout: str, peers: dict[str, str]) -> str | None:
    """None if ``stdout`` is a correct output of ``op``, else why not.

    ``peers`` maps op names to a reference output, for the checks that
    compare two ops.
    """
    try:
        _CHECKS[op.check](op, stdout, peers)
    except CheckError as exc:
        return str(exc)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
    return None
