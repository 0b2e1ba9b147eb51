"""Command-line interface: matrix generation, counting, characteristic
polynomials, dominant eigenpairs and the verification suites.

Big integers are always rendered as decimal strings (never scientific
notation) and identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import FLOORS, SUITE_NAMES
from .exact import charpoly_determinant, charpoly_recurrence
from .production import CLASS_NAMES, CLASSES, ClassDef, GraphClassSpec, count_sequence

FORMAT_VERSION = "1"
MAX_DEFAULT_LEVEL = 64
# Options that belong to some classes only, by argparse dest.  A row takes
# its size option and the option of its parameter (PARAM_OPTIONS).
CLASS_OPTIONS = ("n", "r", "k", "c_values")
PARAM_OPTIONS = {"k": "k", "weights": "c_values"}


class UsageError(Exception):
    pass


def _parse_c_values(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--c-values must be comma-separated integers, got {raw!r}")


def _options(row: ClassDef) -> tuple[str, ...]:
    return (row.size_option, PARAM_OPTIONS.get(row.param))


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _class_row(args) -> ClassDef:
    """The class's table row, after rejecting options that do not apply to it."""
    row = CLASSES[args.cls]
    for dest in CLASS_OPTIONS:
        if getattr(args, dest, None) is not None and dest not in _options(row):
            owners = ", ".join(r.name for r in CLASSES.values() if dest in _options(r))
            raise UsageError(f"{_flag(dest)} only applies to {owners}, not {row.name}")
    return row


def _class_spec(args) -> GraphClassSpec:
    row = _class_row(args)
    if row.param is None:
        return row.spec()
    value = getattr(args, PARAM_OPTIONS[row.param])
    if row.param == "weights" and value is not None:
        value = _parse_c_values(value)
    elif row.param == "k" and value is None:
        raise UsageError(f"{row.name} needs --k")
    return row.spec(value)


def _size_arg(args) -> int:
    name = _class_row(args).size_option
    size = getattr(args, name)
    if size is None:
        raise UsageError(f"{args.cls} needs --{name}")
    if size < 0:
        raise UsageError(f"{name} must be >= 0")
    return size


def _record(command: str, args, payload: dict) -> dict:
    params = {}
    for key in ("n", "k", "r", "n_max", "method", "c_values", "tol", "digits", "all_roots"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = str(val)
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "class": args.cls,
        "parameters": params,
        "payload": payload,
    }


def _print_json(record: dict) -> None:
    import json

    print(json.dumps(record, indent=2))


def cmd_matrix(args) -> int:
    size = _size_arg(args)
    spec = _class_spec(args)
    matrix = spec.build_matrix(size)
    rows = matrix.to_lists()
    if args.format == "csv":
        for row in rows:
            print(",".join(str(x) for x in row))
    elif args.format == "json":
        _print_json(
            _record("matrix", args, {"size": size, "matrix": [[str(x) for x in row] for row in rows]})
        )
    else:
        width = max(len(str(x)) for row in rows for x in row)
        for row in rows:
            print(" ".join(str(x).rjust(width) for x in row))
    return 0


def cmd_counts(args) -> int:
    if args.n_max > MAX_DEFAULT_LEVEL and not args.force:
        raise UsageError(
            f"--n-max guard is {MAX_DEFAULT_LEVEL}; pass --force to override"
        )
    spec = _class_spec(args)
    vectors = count_sequence(spec, args.n_max)
    if args.bfile:
        for v in vectors:
            print(f"{v.level} {v.total}")
        return 0
    if args.format == "json":
        levels = [
            {"level": v.level, "vector": [str(e) for e in v.entries], "total": str(v.total)}
            for v in vectors
        ]
        _print_json(_record("counts", args, {"levels": levels}))
    elif args.format == "csv":
        for v in vectors:
            print(",".join([str(v.level)] + [str(e) for e in v.entries] + [str(v.total)]))
    else:
        for v in vectors:
            vec = ", ".join(str(e) for e in v.entries)
            print(f"level {v.level}: ({vec})  total {v.total}")
    return 0


def _charpoly(args, spec: GraphClassSpec, n: int):
    if args.method == "closed":
        return CLASSES[spec.name].charpoly(spec.param, n)
    matrix = spec.build_matrix(max(1, n))
    if args.method == "determinant":
        return charpoly_determinant(matrix)[n]
    return charpoly_recurrence(matrix)[n]


def cmd_charpoly(args) -> int:
    n = _size_arg(args)
    if args.method == "closed" and _class_row(args).charpoly is None:
        raise UsageError(f"no closed form exists for the {args.cls} matrix")
    spec = _class_spec(args)
    poly = _charpoly(args, spec, n)
    coeffs = [str(poly.coefficient(t)) for t in range(n + 1)]
    if args.format == "json":
        _print_json(_record("charpoly", args, {"degree": n, "coefficients": coeffs}))
    elif args.format == "csv":
        print(",".join(coeffs))
    else:
        print(" ".join(coeffs))
    return 0


def cmd_eigen(args) -> int:
    from fractions import Fraction
    # spectral before mpmath: compiled on top of mpmath's heap, it raises the peak RSS.
    from . import spectral
    from mpmath import mp

    n = _size_arg(args)
    digits = args.digits
    if digits < 1:
        raise UsageError("--digits must be >= 1")
    bits = spectral.precision_bits()
    max_digits = int(bits * math.log10(2)) - 2
    if digits > max_digits:
        raise UsageError(f"--digits must be <= {max_digits} at {bits}-bit precision")
    tol = Fraction(args.tol)
    if tol >= 1:
        raise UsageError("--tol must be < 1")
    spec = _class_spec(args)
    matrix = spec.build_matrix(n)
    poly = charpoly_recurrence(matrix)[n]
    if args.all_roots:
        selected = spectral.real_roots(poly, tol)
        count = len(selected)
    else:
        # Only the printed root is refined; the count comes from isolation.
        count, best = spectral._dominant_root(poly, tol)
        selected = [best] if count else []
    if not count:
        print("no real eigenvalue found", file=sys.stderr)
        return 1
    for root in selected:
        # An inexact root is only known to within tol.
        if tol * 10**digits > abs(root) and poly(root) != 0:
            raise UsageError(
                f"--digits {digits} needs --tol <= |eigenvalue| * 1e-{digits} "
                f"(eigenvalue near {float(root):.6g})"
            )
    with mp.workprec(bits):
        entries = []
        for root in selected:
            pair = spectral.eigenvector_from_charpoly(matrix, root)
            entries.append(
                {
                    "eigenvalue": mp.nstr(pair.lam, digits),
                    "vector": [mp.nstr(x, digits) for x in pair.vector],
                    "residual": mp.nstr(pair.residual, 5),
                }
            )
    payload = {"real_root_count": count, "eigenpairs": entries}
    if args.format == "json":
        _print_json(_record("eigen", args, payload))
    else:
        print(f"real roots found: {count}")
        for e in entries:
            print(f"eigenvalue {e['eigenvalue']}")
            print("  vector (x_{n-1}..x_0): " + ", ".join(e["vector"]))
            print(f"  residual {e['residual']}")
    return 0


def cmd_verify(args) -> int:
    from . import verify

    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    failures = 0
    for suite in suites:
        for result in verify.run_suite(suite, args.n_max):
            if result.passed:
                print(f"PASS {result.name}")
            else:
                failures += 1
                print(f"FAIL {result.name}: {result.detail}")
    print(f"verify: {failures} failure(s)" if failures else "verify: all checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexcount",
        description="Exact counting of plane graph classes on convex point sets "
        "via production matrices, with closed-form, spectral and combinatorial "
        "verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_options(p, with_n=True):
        p.add_argument("cls", metavar="class", choices=CLASS_NAMES)
        if with_n:
            p.add_argument("--n", type=int, help="matrix size / level")
        p.add_argument("--k", type=int, help="polygon size for kangulation")
        p.add_argument(
            "--c-values",
            help="comma-separated counts c_2,c_3,... for the relation matrix "
            "(default: connected-graph totals)",
        )

    p = sub.add_parser("matrix", help="print a production matrix")
    add_class_options(p)
    p.add_argument("--r", type=int, help="number of k-gons (kangulation size)")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("counts", help="iterate the production matrix and print counts")
    add_class_options(p, with_n=False)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    # A b-file has one format of its own; None reads as table.
    out = p.add_mutually_exclusive_group()
    out.add_argument("--format", choices=("table", "json", "csv"))
    out.add_argument("--bfile", action="store_true", help="emit OEIS b-file lines")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("charpoly", help="characteristic polynomial coefficients")
    add_class_options(p)
    p.add_argument("--r", type=int, help="number of k-gons (kangulation size)")
    p.add_argument(
        "--method", choices=("recurrence", "closed", "determinant"), default="recurrence"
    )
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("eigen", help="dominant eigenvalue, eigenvector and residual")
    add_class_options(p)
    p.add_argument("--r", type=int, help="number of k-gons (kangulation size)")
    p.add_argument("--tol", default="1e-40", help="eigenvalue refinement tolerance, 0 < tol < 1")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--all-roots", action="store_true", dest="all_roots")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    floors = ", ".join(f"{check} {floor}" for check, floor in FLOORS.items())
    p.add_argument(
        "--n-max",
        type=int,
        default=6,
        dest="n_max",
        help="the size every check runs to, or its floor if larger: " + floors,
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout; devnull takes the flush at exit instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
