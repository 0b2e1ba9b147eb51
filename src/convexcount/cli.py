"""Command-line interface: matrix generation, counting, characteristic
polynomials, dominant eigenpairs and the verification suites.

Counts and characteristic-polynomial coefficients are always rendered as
whole decimal integers (never scientific notation); ``eigen`` prints its
exact eigenpairs to ``--digits`` significant digits, in fixed point or with
an e+k or e-k exponent.  Identical invocations produce byte-identical
output.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import FLOORS, SUITE_NAMES
from .exact import charpoly_determinant, charpoly_top
from .production import CLASS_NAMES, CLASSES, ClassDef, GraphClassSpec, count_sequence, count_totals

FORMAT_VERSION = "1"
MAX_DEFAULT_LEVEL = 64
# eigen prints at most this many digits, so 10**digits stays bounded.
MAX_DIGITS = 1000
# Options that belong to some classes only, by argparse dest.  A row takes
# its size option and the option of its parameter (PARAM_OPTIONS).
CLASS_OPTIONS = ("n", "r", "k", "c_values")
PARAM_OPTIONS = {"k": "k", "weights": "c_values"}
# The options a json record echoes, by argparse dest.
RECORDED = ("n", "k", "r", "n_max", "method", "c_values", "tol", "digits", "all_roots")


class UsageError(Exception):
    pass


def _options(row: ClassDef) -> tuple[str, ...]:
    return (row.size_option, PARAM_OPTIONS.get(row.param))


def _class_row(args) -> tuple[ClassDef, int | None]:
    """The class's table row and the size it is asked at, after rejecting
    options that do not apply to it and a missing or negative size, or a
    size 0 for eigen, which has no eigenvalue to print, and for matrix,
    which has no entry.  counts takes no size: its levels run to --n-max."""
    row = CLASSES[args.cls]
    for dest in CLASS_OPTIONS:
        if getattr(args, dest, None) is not None and dest not in _options(row):
            owners = ", ".join(r.name for r in CLASSES.values() if dest in _options(r))
            raise UsageError(f"--{dest.replace('_', '-')} only applies to {owners}, not {row.name}")
    if args.command == "counts":
        return row, None
    size = getattr(args, row.size_option)
    if size is None:
        raise UsageError(f"{row.name} needs --{row.size_option}")
    if args.command in ("eigen", "matrix") and size < 1:
        raise UsageError(f"{args.command} needs --{row.size_option} >= 1")
    if size < 0:
        raise UsageError(f"{row.size_option} must be >= 0")
    return row, size


def _class_spec(args, row: ClassDef) -> GraphClassSpec:
    value = getattr(args, PARAM_OPTIONS[row.param]) if row.param else None
    if row.param == "weights" and value is not None:
        try:
            # "--c-values=" is an empty sequence; an empty item is an error.
            value = tuple(int(part) for part in value.split(",")) if value.strip() else ()
        except ValueError:
            raise UsageError(f"--c-values must be comma-separated integers, got {value!r}")
    elif row.param == "k" and value is None:
        raise UsageError(f"{row.name} needs --k")
    return GraphClassSpec(row.name, value)


def _emit(args, payload, lines) -> int:
    """Print the command's json record, whose payload ``payload()`` builds, for
    --format json, and each of ``lines`` otherwise."""
    if args.format != "json":
        for line in lines:
            print(line)
        return 0
    import json

    params = {key: str(val) for key in RECORDED if (val := getattr(args, key, None)) is not None}
    record = {
        "format_version": FORMAT_VERSION,
        "command": args.command,
        "class": args.cls,
        "parameters": params,
        "payload": payload(),
    }
    print(json.dumps(record, indent=2))
    return 0


def cmd_matrix(args) -> int:
    row, size = _class_row(args)
    cells = [[str(x) for x in r] for r in _class_spec(args, row).build_matrix(size).to_lists()]
    if args.format == "table":
        width = max(len(x) for r in cells for x in r)
        lines = (" ".join(x.rjust(width) for x in r) for r in cells)
    else:
        lines = (",".join(r) for r in cells)
    return _emit(args, lambda: {"size": size, "matrix": cells}, lines)


def cmd_counts(args) -> int:
    if args.n_max > MAX_DEFAULT_LEVEL and not args.force:
        raise UsageError(
            f"--n-max guard is {MAX_DEFAULT_LEVEL}; pass --force to override"
        )
    spec = _class_spec(args, _class_row(args)[0])
    if args.bfile:
        return _emit(args, None, (f"{level} {total}" for level, total in count_totals(spec, args.n_max)))
    vectors = count_sequence(spec, args.n_max)
    if args.format == "csv":
        lines = (",".join(map(str, (v.level, *v.entries, v.total))) for v in vectors)
    else:
        lines = (f"level {v.level}: ({', '.join(map(str, v.entries))})  total {v.total}" for v in vectors)
    return _emit(args, lambda: {"levels": [
        {"level": v.level, "vector": [str(e) for e in v.entries], "total": str(v.total)} for v in vectors
    ]}, lines)


def cmd_charpoly(args) -> int:
    row, n = _class_row(args)
    if args.method == "closed" and row.charpoly is None:
        raise UsageError(f"no closed form exists for the {row.name} matrix")
    spec = _class_spec(args, row)
    if args.method == "closed":
        poly = row.charpoly(spec.param, n)
    elif not n:
        poly = (1,)  # d_0 of every matrix; an HTMatrix has size >= 1
    elif args.method == "determinant":
        poly = charpoly_determinant(spec.build_matrix(n))[n]
    else:
        poly = charpoly_top(spec.build_matrix(n))
    coeffs = list(map(str, poly))
    sep = "," if args.format == "csv" else " "
    return _emit(args, lambda: {"degree": n, "coefficients": coeffs}, [sep.join(coeffs)])


def _decimal(num: int, den: int, digits: int) -> str:
    """num/den to ``digits`` significant digits, in integer arithmetic.

    The cut: num/den is cut, by integer division, to a binary mantissa
    man * 2**-shift, 16 bits past digits + 3 decimals.  Half up: the cut
    value is rounded half up to ``digits`` significant decimals, exactly.
    The layout: fixed point when the decimal exponent lies in
    (min(-(digits // 3), -5), digits) and e+k or e-k otherwise, trailing
    zeros stripped, zero as 0.0.  Rounding the cut, not num/den itself, can
    land one unit low: 1/40 at 1 digit prints 0.02."""
    if not num:
        return "0.0"
    shift = int((digits + 3) * math.log2(10)) + 16 - num.bit_length() + den.bit_length()
    man = (abs(num) << shift) // den if shift >= 0 else (abs(num) >> -shift) // den
    # 10**exponent <= the cut value, so the cut floored to a multiple of
    # 10**(exponent - digits) has digits + 1 to digits + 3 digits
    exponent = int((man.bit_length() - 1 - shift) * math.log10(2)) - 1
    top = man * 10 ** max(digits - exponent, 0)
    top = top >> shift if shift >= 0 else top << -shift
    floored = top // 10 ** max(exponent - digits, 0)
    extra = len(str(floored)) - digits - 1
    text = str((floored // 10**extra + 5) // 10)  # half up
    exponent += extra + len(text) - digits  # one more digit after a carry
    text, point = text[:digits], 1
    if min(-(digits // 3), -5) < exponent < digits:
        text = "0" * -exponent + text if exponent < 0 else text.ljust(exponent + 1, "0")
        point, exponent = max(exponent, 0) + 1, 0
    body = f"{'-' if num < 0 else ''}{text[:point]}.{text[point:].rstrip('0') or '0'}"
    return body if exponent == 0 else f"{body}e{exponent:+d}"


def cmd_eigen(args) -> int:
    from fractions import Fraction

    from . import spectral

    row, n = _class_row(args)
    digits = args.digits
    if digits < 1:
        raise UsageError("--digits must be >= 1")
    if digits > MAX_DIGITS:
        raise UsageError(f"--digits must be <= {MAX_DIGITS}")
    tol = Fraction(args.tol)
    if not 0 < tol < 1:
        raise UsageError("tol must be positive" if tol <= 0 else "--tol must be < 1")
    matrix = _class_spec(args, row).build_matrix(n)
    poly = charpoly_top(matrix)
    if args.all_roots:
        selected = spectral.real_roots(poly, tol)
        count = len(selected)
    else:
        # Only the printed root is refined; the count comes from isolation.
        count, best = spectral.dominant_root(poly, tol)
        selected = [best] if count else []
    if not count:
        print("no real eigenvalue found", file=sys.stderr)
        return 1
    entries = []
    for root in selected:
        pair = spectral.eigenvector_from_charpoly(matrix, root)
        # An inexact root is only known to within tol; the residual is 0
        # exactly when the root is exact.
        if tol * 10**digits > abs(root) and pair.residual:
            raise UsageError(
                f"--digits {digits} needs --tol <= |eigenvalue| * 1e-{digits} "
                f"(eigenvalue near {float(root):.6g})"
            )
        entries.append(
            {
                "eigenvalue": _decimal(pair.lam.numerator, pair.lam.denominator, digits),
                "vector": [_decimal(x, pair.denominator, digits) for x in pair.vector],
                "residual": _decimal(pair.residual.numerator, pair.residual.denominator, 5),
            }
        )
    lines = [f"real roots found: {count}"] + [
        f"eigenvalue {e['eigenvalue']}\n  vector (x_{{n-1}}..x_0): {', '.join(e['vector'])}\n"
        f"  residual {e['residual']}"
        for e in entries
    ]
    return _emit(args, lambda: {"real_root_count": count, "eigenpairs": entries}, lines)


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

    def add_class_command(name, func, help, *options, formats=("table", "json", "csv")):
        """A parser for a command on one class: the class and its options,
        ``options`` as (flag, keywords) pairs, then --format.  A matrix is
        sized by --n or --r; counts runs to --n-max and may print a b-file."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        sized = name != "counts"
        p.add_argument("cls", metavar="class", choices=CLASS_NAMES)
        if sized:
            p.add_argument("--n", type=int, help="matrix size / level")
        p.add_argument("--k", type=int, help="polygon size for kangulation")
        p.add_argument(
            "--c-values",
            help="comma-separated counts c_2,c_3,... for the relation matrix "
            "(default: connected-graph totals)",
        )
        if sized:
            p.add_argument("--r", type=int, help="number of k-gons (kangulation size)")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        # A b-file has one format of its own; beside --bfile, None reads as table.
        out = p if sized else p.add_mutually_exclusive_group()
        out.add_argument("--format", choices=formats, default="table" if sized else None)
        if not sized:
            out.add_argument("--bfile", action="store_true", help="emit OEIS b-file lines")
        return p

    add_class_command("matrix", cmd_matrix, "print a production matrix")
    add_class_command(
        "counts", cmd_counts, "iterate the production matrix and print counts",
        ("--n-max", {"type": int, "required": True}),
    ).add_argument("--force", action="store_true")
    add_class_command(
        "charpoly", cmd_charpoly, "characteristic polynomial coefficients",
        ("--method", {"choices": ("recurrence", "closed", "determinant"), "default": "recurrence"}),
    )
    add_class_command(
        "eigen", cmd_eigen, "dominant eigenvalue, eigenvector and residual",
        ("--tol", {"default": "1e-40", "help": "eigenvalue refinement tolerance, 0 < tol < 1"}),
        ("--digits", {"type": int, "default": 30}),
        ("--all-roots", {"action": "store_true"}),
        formats=("table", "json"),
    )

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
