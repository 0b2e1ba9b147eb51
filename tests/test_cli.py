import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import convexcount
from convexcount import cli, production, verify
from convexcount.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, "matrix", "partition", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0,1,2,4"
    assert len(lines) == 4


def test_matrix_kangulation_table(capsys):
    code, out, _ = run_cli(capsys, "matrix", "kangulation", "--k", "3", "--r", "2")
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [["1", "1"], ["1", "1"]]


def test_matrix_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "matrix", "geometric", "--n", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["format_version"] == "1"
    assert record["payload"]["matrix"][0] == ["2", "4", "8"]
    assert json.loads(json.dumps(record)) == record


def test_counts_bfile(capsys):
    code, out, _ = run_cli(capsys, "counts", "geometric", "--n-max", "5", "--bfile")
    assert code == 0
    assert out == "2 2\n3 8\n4 48\n5 352\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_counts_bfile_rejects_an_explicit_format(capsys, fmt):
    # a b-file has one format of its own; --format beside it is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["counts", "geometric", "--n-max", "4", "--bfile", "--format", fmt])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "not allowed with argument" in err


def test_counts_partition_totals(capsys):
    code, out, _ = run_cli(capsys, "counts", "partition", "--n-max", "4", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert [lvl["total"] for lvl in record["payload"]["levels"]] == ["1", "2", "5", "14"]


def test_counts_connected_totals(capsys):
    code, out, _ = run_cli(capsys, "counts", "connected", "--n-max", "5", "--bfile")
    assert code == 0
    assert out == "2 1\n3 4\n4 23\n5 156\n"


def test_counts_relation_defaults_to_connected_weights(capsys):
    code, out, _ = run_cli(capsys, "counts", "relation", "--n-max", "6", "--bfile")
    assert code == 0
    assert out == "1 1\n2 2\n3 8\n4 48\n5 352\n6 2880\n"


def test_charpoly_partition_n1(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "partition", "--n", "1")
    assert code == 0
    assert out.strip() == "0 -1"


def test_charpoly_degree_zero(capsys):
    for argv in (["geometric", "--n", "0"], ["connected", "--n", "0"], ["partition", "--n", "0"],
                 ["relation", "--n", "0"], ["kangulation", "--k", "4", "--r", "0"]):
        code, out, _ = run_cli(capsys, "charpoly", *argv)
        assert code == 0, argv
        assert out.strip() == "1", argv


def test_eigen_size_zero_rejected_by_option(capsys):
    for command in ("eigen", "matrix"):
        for argv, option in ((["geometric", "--n", "0"], "--n"), (["relation", "--n", "0"], "--n"),
                             (["relation", "--n", "-1"], "--n"),
                             (["kangulation", "--k", "4", "--r", "0"], "--r")):
            code, out, err = run_cli(capsys, command, *argv)
            assert (code, out, err) == (2, "", f"error: {command} needs {option} >= 1\n"), (command, argv)


def test_charpoly_closed_geometric(capsys):
    code, out, _ = run_cli(
        capsys, "charpoly", "geometric", "--n", "5", "--method", "closed", "--format", "csv"
    )
    assert code == 0
    assert out.strip() == "32,-16,-16,-8,10,-1"


def test_charpoly_methods_agree(capsys):
    results = []
    for method in ("recurrence", "closed", "determinant"):
        code, out, _ = run_cli(
            capsys, "charpoly", "connected", "--n", "6", "--method", method
        )
        assert code == 0
        results.append(out)
    assert results[0] == results[1] == results[2]
    classes = (["geometric", "--n"], ["connected", "--n"], ["partition", "--n"],
               ["kangulation", "--k", "3", "--r"], ["kangulation", "--k", "4", "--r"])
    for args in classes:
        for n in ("40", "300"):
            runs = [run_cli(capsys, "charpoly", *args, n, "--method", m) for m in ("closed", "recurrence")]
            assert runs[0] == runs[1] and runs[0][0] == 0, (args, n)


def test_closed_charpoly_holds_one_series_at_a_time(capsys):
    # d_n alone: one column series of about n terms at a time, not every degree
    main(["charpoly", "geometric", "--n", "3", "--method", "closed"])  # imports closedform
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["charpoly", "geometric", "--n", "300", "--method", "closed"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.count(" ") == 300
    assert peak < 1 << 20, peak


def test_charpoly_determinant_has_no_cap(capsys):
    for n in ("9", "12"):
        runs = [
            run_cli(capsys, "charpoly", "geometric", "--n", n, "--method", method)
            for method in ("determinant", "recurrence")
        ]
        assert runs[0][0] == runs[1][0] == 0
        assert runs[0][1] == runs[1][1]
    with pytest.raises(SystemExit):
        main(["charpoly", "geometric", "--n", "9", "--method", "determinant", "--force"])
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_verify_has_no_force_option(capsys):
    # --force belongs to counts only; every verify suite counts by recursion
    # and has no size guard to override.
    with pytest.raises(SystemExit):
        main(["verify", "all", "--force"])
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_charpoly_relation_has_no_closed_form(capsys):
    code, _, err = run_cli(capsys, "charpoly", "relation", "--n", "3", "--method", "closed")
    assert code == 2
    assert "closed form" in err


def test_charpoly_without_closed_form_is_refused_before_the_weights(capsys, monkeypatch):
    # the relation class's default weights, connected totals to n, take
    # seconds at n = 1500; the method is refused before they are computed
    def no_weights(n_max):
        raise AssertionError(f"connected_totals({n_max}) was computed")

    monkeypatch.setattr(production, "connected_totals", no_weights)
    code, out, err = run_cli(capsys, "charpoly", "relation", "--n", "1500", "--method", "closed")
    assert (code, out) == (2, "")
    assert err == "error: no closed form exists for the relation matrix\n"


def test_eigen_json(capsys):
    code, out, _ = run_cli(
        capsys, "eigen", "geometric", "--n", "1", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["payload"]["eigenpairs"][0]["eigenvalue"] == "2.0"


def test_eigen_all_roots(capsys):
    code, out, _ = run_cli(
        capsys, "eigen", "partition", "--n", "2", "--all-roots", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["payload"]["real_root_count"] == 2
    values = [p["eigenvalue"] for p in record["payload"]["eigenpairs"]]
    assert values == ["-1.0", "1.0"]


def test_eigen_json_records_the_options_that_shape_it(capsys):
    argv = ("eigen", "geometric", "--n", "5", "--format", "json")
    dominant = json.loads(run_cli(capsys, *argv, "--digits", "10")[1])
    every = json.loads(run_cli(capsys, *argv, "--digits", "30", "--all-roots")[1])
    assert dominant["payload"] != every["payload"]
    common = {"n": "5", "tol": "1e-40"}
    assert dominant["parameters"] == {**common, "digits": "10", "all_roots": "False"}
    assert every["parameters"] == {**common, "digits": "30", "all_roots": "True"}
    # the other commands have neither option, so their records are unchanged
    charpoly = json.loads(run_cli(capsys, "charpoly", "geometric", "--n", "3", "--format", "json")[1])
    assert charpoly["parameters"] == {"n": "3", "method": "recurrence"}


def test_verify_lemma1(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--n-max", "6")
    assert code == 0
    assert "PASS lemma1/exhaustive" in out


def test_verify_vectors(capsys):
    code, out, _ = run_cli(capsys, "verify", "vectors", "--n-max", "6")
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_reports_failures_and_exits_nonzero(capsys, monkeypatch):
    from convexcount import verify as verify_mod
    from convexcount.verify import CheckResult

    def fake_run_suite(name, n_max):
        return [
            CheckResult("demo/good", True),
            CheckResult("demo/bad", False, "first mismatch at n=3: (1,) != (2,)"),
        ]

    monkeypatch.setattr(verify_mod, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "lemma1")
    assert code == 1
    assert "PASS demo/good" in out
    assert "FAIL demo/bad: first mismatch at n=3" in out
    assert "1 failure(s)" in out


def test_counts_bfile_kangulation_indexed_by_face_count(capsys):
    code, out, _ = run_cli(
        capsys, "counts", "kangulation", "--k", "3", "--n-max", "4", "--bfile"
    )
    assert code == 0
    assert out == "1 1\n2 2\n3 5\n4 14\n"


def test_counts_level_guard(capsys):
    code, _, err = run_cli(capsys, "counts", "geometric", "--n-max", "65")
    assert code == 2
    assert "--force" in err


@pytest.mark.parametrize(
    "argv, start",
    [(("geometric", "--n-max", "-3"), 2), (("kangulation", "--k", "4", "--n-max", "-2"), 1)],
)
def test_counts_below_start_level(capsys, argv, start):
    # the level is checked before a matrix of size n_max + 2 is built
    code, out, err = run_cli(capsys, "counts", *argv)
    assert (code, out) == (2, "")
    assert f"error: n_max must be at least the start level {start}" in err


def test_bad_class_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["matrix", "heptagonal", "--n", "3"])


def test_missing_size_usage_error(capsys):
    code, _, err = run_cli(capsys, "matrix", "geometric")
    assert code == 2
    assert "needs --n" in err
    code, _, err = run_cli(capsys, "matrix", "kangulation", "--k", "4")
    assert code == 2


def test_c_values_parsing(capsys):
    code, out, _ = run_cli(
        capsys, "counts", "relation", "--c-values", "0,0,0,0", "--n-max", "3", "--bfile"
    )
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n"
    code, _, err = run_cli(
        capsys, "counts", "relation", "--c-values", "1,two", "--n-max", "3"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "counts", "relation", "--c-values", "1", "--n-max", "3"
    )
    assert code == 2
    assert "too short: need c_2..c_3, got 1 values" in err
    # An empty list is a sequence too short, not the connected-graph default.
    code, out, err = run_cli(
        capsys, "counts", "relation", "--n-max", "4", "--c-values=", "--bfile"
    )
    assert (code, out) == (2, "")
    assert "count sequence too short" in err
    # An empty item is rejected, not dropped: 1,,4,27 would read c_3 = 4.
    for values in ("1,,4,27", "1,1,4,", ",1,1,4", ","):
        code, out, err = run_cli(
            capsys, "counts", "relation", "--n-max", "4", f"--c-values={values}", "--bfile"
        )
        assert (code, out) == (2, "")
        assert "comma-separated integers" in err


@pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
def test_counts_read_c_values_to_n_max_only(capsys, fmt):
    # Levels up to n_max read c_2..c_n_max; later values change no output
    # (JSON echoes --c-values in its parameters, so its payloads are compared).
    opts = ["--bfile"] if fmt == "bfile" else ["--format", fmt]
    outs = {}
    for values in ("1", "1,1", "1,1,4", "1,1,4,23", "1,1,999,999", "1,2"):
        code, out, err = run_cli(capsys, "counts", "relation", "--c-values", values, "--n-max", "3", *opts)
        if fmt == "json" and code == 0:
            out = json.dumps(json.loads(out)["payload"])
        outs[values] = code, out, err
    code, out, err = outs.pop("1")
    assert (code, out) == (2, "") and "need c_2..c_3, got 1 values" in err
    assert outs.pop("1,2") != outs["1,1"]
    assert outs["1,1"][0] == 0
    assert len(set(outs.values())) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("counts", "relation", "--n-max", "6", "--c-values", "1,2,3,4,-50"),
        ("counts", "relation", "--n-max", "5", "--c-values", "1,2,3,-40"),
        ("charpoly", "relation", "--n", "4", "--c-values", "1,2,3,-40"),
        ("eigen", "relation", "--n", "4", "--c-values", "1,2,3,-40"),
        ("matrix", "relation", "--n", "5", "--c-values", "1,2,3,-40"),
    ],
    ids=lambda argv: f"{argv[0]}-{argv[3]}",
)
def test_negative_counts_exit_2_before_any_output(capsys, argv):
    # whether a negative count is an error no longer depends on the counts it yields
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: counts must be non-negative, got {argv[-1].split(',')[-1]}\n"


def test_deterministic_output(capsys):
    first = run_cli(capsys, "counts", "geometric", "--n-max", "6", "--format", "json")
    second = run_cli(capsys, "counts", "geometric", "--n-max", "6", "--format", "json")
    assert first == second


def test_big_integers_render_decimal(capsys):
    code, out, _ = run_cli(capsys, "counts", "geometric", "--n-max", "40", "--bfile")
    assert code == 0
    last = out.splitlines()[-1].split()
    assert last[0] == "40"
    assert last[1].isdigit() and len(last[1]) > 30


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "vectors", "--n-max", "0"),
        ("verify", "lemma1", "--n-max", "-1"),
        ("verify", "charpoly", "--n-max", "-1"),
        ("verify", "oracle", "--n-max", "0"),
        ("verify", "relation", "--n-max", "0"),
        ("verify", "all", "--n-max", "0"),
    ],
)
def test_verify_empty_range_fails(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert any(line.startswith("FAIL ") for line in out.splitlines())
    assert "error:" not in err
    if argv[1] == "all":
        # every suite ran to the end: the last one's checks and the summary
        assert "FAIL relation/paths-to-path-forests: empty range" in out
        assert out.endswith(" failure(s)\n")


def test_verify_oracle_takes_n_max_as_given(capsys, monkeypatch):
    # the graph histograms are counted by recursion, so nothing is clamped
    code, out, err = run_cli(capsys, "verify", "oracle", "--n-max", "8")
    assert (code, err) == (0, "")
    assert out.endswith("verify: all checks passed\n")
    calls = []

    def fake_run_suite(name, n_max):
        calls.append((name, n_max))
        return [verify.CheckResult(name, True)]

    monkeypatch.setattr(verify, "run_suite", fake_run_suite)
    code, _, err = run_cli(capsys, "verify", "oracle", "--n-max", "8")
    assert code == 0 and err == ""
    assert calls == [("oracle", 8)]
    # every suite gets the one size
    code, _, err = run_cli(capsys, "verify", "all", "--n-max", "8")
    assert code == 0 and err == ""
    assert calls[1:] == [(suite, 8) for suite in verify.SUITE_NAMES]


@pytest.mark.parametrize("method", ["recurrence", "closed", "determinant"])
def test_charpoly_negative_size_rejected(capsys, method):
    code, out, err = run_cli(capsys, "charpoly", "partition", "--n", "-1", "--method", method)
    assert (code, out) == (2, "")
    assert "error: n must be >= 0" in err
    code, out, err = run_cli(
        capsys, "charpoly", "kangulation", "--k", "4", "--r", "-1", "--method", method
    )
    assert (code, out) == (2, "")
    assert "error: r must be >= 0" in err


def test_eigen_digits_must_be_positive(capsys):
    for digits in ("0", "-3"):
        code, out, err = run_cli(capsys, "eigen", "geometric", "--n", "3", "--digits", digits)
        assert (code, out) == (2, "")
        assert "--digits must be >= 1" in err
    code, out, _ = run_cli(capsys, "eigen", "geometric", "--n", "3", "--digits", "1")
    assert code == 0
    assert "eigenvalue 7.0" in out


def test_eigen_tol_must_be_positive_before_any_work(capsys, monkeypatch):
    def refuse(matrix):
        raise AssertionError("the charpoly was built")

    monkeypatch.setattr(cli, "charpoly_top", refuse)
    for tol in ("0", "-1", "0.0"):
        code, out, err = run_cli(capsys, "eigen", "relation", "--n", "600", "--tol", tol)
        assert (code, out, err) == (2, "", "error: tol must be positive\n")


def test_eigen_tol_must_be_below_one(capsys):
    for tol in ("1", "1e400"):
        code, out, err = run_cli(capsys, "eigen", "geometric", "--n", "3", "--tol", tol)
        assert (code, out) == (2, "")
        assert "error: --tol must be < 1" in err
    code, out, _ = run_cli(capsys, "eigen", "geometric", "--n", "3", "--tol", "0.5", "--digits", "1")
    assert code == 0
    assert out.startswith("real roots found: 1")


@pytest.mark.parametrize("all_roots", [(), ("--all-roots",)])
def test_eigen_digits_beyond_tol_or_precision(capsys, all_roots):
    # 60 digits of a root known to 1e-40: digits 41 on would be wrong
    code, out, err = run_cli(capsys, "eigen", "geometric", "--n", "5", "--digits", "60", *all_roots)
    assert (code, out) == (2, "")
    assert "error: --digits 60 needs --tol <= |eigenvalue| * 1e-60" in err
    code, out, _ = run_cli(
        capsys, "eigen", "geometric", "--n", "5", "--digits", "60", "--tol", "1e-70", *all_roots
    )
    assert code == 0
    assert "eigenvalue 8.87821821370270852325456503830498487462030830631326000615311" in out
    code, _, _ = run_cli(capsys, "eigen", "geometric", "--n", "5", "--digits", "75", "--tol", "1e-80", *all_roots)
    assert code == 0
    # the digits are exact: 120 of them need only the tolerance
    code, out, _ = run_cli(
        capsys, "eigen", "geometric", "--n", "5", "--digits", "120", "--tol", "1e-125", *all_roots
    )
    assert code == 0 and "eigenvalue 8.8782182137027085232545650383049848746203083063132600061531" in out
    # MAX_DIGITS is the one cap, whatever the tolerance
    code, out, err = run_cli(
        capsys, "eigen", "geometric", "--n", "5", "--digits", "1001", "--tol", "1e-1010", *all_roots
    )
    assert (code, out, err) == (2, "", "error: --digits must be <= 1000\n")
    # an exact root prints at any supported number of digits
    for digits in ("70", "1000"):
        code, out, _ = run_cli(capsys, "eigen", "geometric", "--n", "1", "--digits", digits, *all_roots)
        assert code == 0 and "eigenvalue 2.0" in out


def test_verify_eigen_reads_n_max(capsys):
    code, out, _ = run_cli(capsys, "verify", "eigen", "--n-max", "0")
    assert code == 1
    assert out.startswith("FAIL eigen/residuals: empty range")


def test_verify_workers_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "oracle", "--workers", "2"])
    assert exc.value.code == 2


def test_verify_has_one_size_option(capsys):
    # --n-max sizes every suite, lemma1 included, and its help names the floors
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma1", "--max", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max 3" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "oracle/kangulation 22" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "argv, option",
    [
        (("charpoly", "geometric", "--n", "3", "--r", "5"), "--r"),
        (("eigen", "kangulation", "--k", "3", "--r", "3", "--n", "9"), "--n"),
        (("counts", "geometric", "--c-values", "1,2", "--n-max", "3"), "--c-values"),
        (("matrix", "partition", "--n", "3", "--k", "4"), "--k"),
        (("counts", "relation", "--k", "4", "--n-max", "3"), "--k"),
    ],
)
def test_option_of_another_class_rejected(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: {option} only applies to" in err


# No command loads mpmath: eigen prints its digits in integer arithmetic.
# Only json output loads json.
EXACT_ARGVS = [
    ["counts", "geometric", "--n-max", "20"],
    ["counts", "geometric", "--n-max", "20", "--bfile"],
    *(["charpoly", "connected", "--n", "10", "--method", m] for m in ("recurrence", "closed")),
    ["charpoly", "connected", "--n", "10", "--method", "determinant"],
    ["matrix", "partition", "--n", "5", "--format", "csv"],
    ["verify", "lemma1", "--n-max", "3"],
    ["verify", "vectors", "--n-max", "5"],
    ["verify", "charpoly", "--n-max", "5"],
    ["verify", "eigen", "--n-max", "5"],
    ["eigen", "geometric", "--n", "8", "--all-roots"],
]
LOADING_ARGVS = [
    ["counts", "geometric", "--n-max", "5", "--format", "json"],
]
STARTUP_SCRIPT = """
import contextlib, io, sys
from convexcount import cli
for argv in {exact!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in ("mpmath", "json") if m in sys.modules))
for argv in {loading!r}:
    assert cli.main(argv) == 0, argv
print(sorted(m for m in ("mpmath", "json") if m in sys.modules))
"""


def fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(convexcount.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this package."""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=fresh_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_exact_commands_load_neither_mpmath_nor_json(capsys):
    # The test process has imported mpmath already, so a fresh interpreter runs
    # the commands; the one that needs json must print the same there.
    proc = run_fresh(STARTUP_SCRIPT.format(exact=EXACT_ARGVS, loading=LOADING_ARGVS))
    expected = "".join(run_cli(capsys, *argv)[1] for argv in LOADING_ARGVS)
    assert proc.stdout == "[]\n" + expected + "['json']\n"


# Commands that need neither the spectral nor the oracle layer, nor the
# standard modules that only those layers (or dataclasses) bring in.
LIGHT_ARGVS = [
    ["counts", "geometric", "--n-max", "20"],
    ["counts", "relation", "--n-max", "8", "--format", "csv"],
    ["counts", "kangulation", "--k", "4", "--n-max", "6", "--bfile"],
    ["matrix", "partition", "--n", "5", "--format", "csv"],
    ["charpoly", "connected", "--n", "10", "--method", "determinant"],
]
CLOSED_CLASS_ARGS = [
    ["geometric", "--n", "10"],
    ["connected", "--n", "10"],
    ["partition", "--n", "10"],
    ["kangulation", "--k", "4", "--r", "10"],
]
# Every class by the recurrence, and every class that has one by its closed form.
CHARPOLY_ARGVS = [
    *(["charpoly", *args, "--method", "recurrence"] for args in CLOSED_CLASS_ARGS),
    ["charpoly", "relation", "--n", "10", "--method", "recurrence"],
    *(["charpoly", *args, "--method", "closed"] for args in CLOSED_CLASS_ARGS),
]
EIGEN_ARGVS = [
    ["eigen", "geometric", "--n", "8", "--all-roots"],
    ["eigen", "relation", "--n", "8"],
    ["eigen", "kangulation", "--k", "4", "--r", "8", "--format", "json"],
]
LIGHT_VERIFY_ARGVS = [
    ["verify", "vectors", "--n-max", "5"],
    ["verify", "lemma1", "--n-max", "3"],
    ["verify", "charpoly", "--n-max", "3"],
]
# Each group of commands runs in a fresh interpreter after `import
# convexcount.cli`, and none of them may load a module it watches.
LAYER_GROUPS = [
    ([], ("convexcount.verify", "convexcount.closedform", "convexcount.spectral", "fractions")),
    (LIGHT_ARGVS, (
        "convexcount.spectral", "convexcount.oracle", "convexcount.verify", "convexcount.closedform",
        "dataclasses", "inspect", "fractions",
    )),
    (CHARPOLY_ARGVS, ("convexcount.spectral", "convexcount.verify", "fractions")),
    (EIGEN_ARGVS, ("convexcount.verify", "convexcount.closedform", "convexcount.oracle")),
    (LIGHT_VERIFY_ARGVS, ("convexcount.spectral", "convexcount.oracle", "fractions")),
]
LAYERS_SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)
from convexcount import cli
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in {watched!r} if m in sys.modules and m not in before))
"""


def test_commands_load_only_their_layers():
    for argvs, watched in LAYER_GROUPS:
        proc = run_fresh(LAYERS_SCRIPT.format(argvs=argvs, watched=watched))
        assert proc.stdout == "[]\n", (argvs, proc.stdout)


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_closed_stdout_pipe_exits_without_traceback(fmt):
    # About 75 KB of output, more than a pipe holds: the command is still
    # writing when its reader closes the pipe after the first line.
    argv = ["counts", "geometric", "--n-max", "64", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "convexcount", *argv], env=fresh_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )
    assert proc.stdout.readline().startswith(b"level 2" if fmt == "table" else b"2,")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
