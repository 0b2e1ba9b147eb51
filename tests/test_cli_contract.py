"""The CLI's exit contract over generated argument lists: each run exits 0 with
empty stderr, or exits 2 with empty stdout and a message on stderr.  Two exits
of 1 are part of the contract: ``eigen`` with "no real eigenvalue found" on
stderr and nothing on stdout, and a ``verify`` whose PASS/FAIL report has a
failure.  So no command prints part of a result and then fails.
"""
import contextlib
import io

from hypothesis import given, settings, strategies as st

from convexcount import SUITE_NAMES
from convexcount.cli import main
from convexcount.production import CLASSES

SIZES = st.integers(-2, 6)
VALUES = {
    "--n": SIZES,
    "--r": SIZES,
    "--n-max": SIZES,
    "--k": st.integers(-1, 6),
    "--c-values": st.one_of(
        st.sampled_from(["", ",", " ", "1,two", "1;2", "1,,2", "0x3", "1.5"]),
        st.lists(st.integers(-50, 50), max_size=8).map(lambda xs: ",".join(map(str, xs))),
    ),
    "--tol": st.sampled_from(["1e-40", "0.5", "1/3", "1e-10", "0", "1", "abc", "-1"]),
    "--digits": st.sampled_from([30, 1, 0, 80, -1]),
    "--method": st.sampled_from(["recurrence", "closed", "determinant"]),
    "--format": st.sampled_from(["table", "csv", "json"]),
    "--all-roots": None,
    "--bfile": None,
    "--force": None,
}
COMMAND_OPTIONS = {
    "matrix": ("--n", "--r", "--k", "--c-values", "--format"),
    "counts": ("--n-max", "--k", "--c-values", "--format", "--bfile", "--force"),
    "charpoly": ("--n", "--r", "--k", "--c-values", "--method", "--format"),
    "eigen": ("--n", "--r", "--k", "--c-values", "--tol", "--digits", "--all-roots", "--format"),
}
CLASS_FLAGS = {"--n", "--r", "--k", "--c-values"}


@st.composite
def class_argvs(draw):
    """A command on one class.  The class's own options are usually given, an
    option of another class now and then, and the rest half the time."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    row = CLASSES[draw(st.sampled_from(sorted(CLASSES)))]
    own = {"--n-max", "--" + row.size_option, {"k": "--k", "weights": "--c-values"}.get(row.param)}
    argv = [command, row.name]
    for flag in COMMAND_OPTIONS[command]:
        if flag in own:
            odds = (True, True, True, False)
        elif flag in CLASS_FLAGS:
            odds = (False,) * 7 + (True,)
        else:
            odds = (False, True)
        if draw(st.sampled_from(odds)):
            values = VALUES[flag]
            argv += [flag] if values is None else [flag, str(draw(values))]
    return argv


VERIFY_ARGVS = st.builds(
    lambda suite, n_max: ["verify", suite, "--n-max", str(n_max)],
    st.sampled_from(SUITE_NAMES + ("all",)),
    st.integers(-1, 3),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run(argv)
    if code == 0:
        assert err == "", argv
    elif code == 2:
        assert out == "" and err.strip(), argv
    elif argv[0] == "eigen":
        assert (code, out, err) == (1, "", "no real eigenvalue found\n"), argv
    else:
        assert (argv[0], code, err) == ("verify", 1, ""), argv
        *report, summary = out.splitlines()
        assert all(line.startswith(("PASS ", "FAIL ")) for line in report), argv
        assert any(line.startswith("FAIL ") for line in report), argv
        assert summary.startswith("verify: ") and summary.endswith(" failure(s)"), argv


@settings(max_examples=400, deadline=None)
@given(st.one_of(class_argvs(), VERIFY_ARGVS))
def test_exit_contract(argv):
    check_contract(argv)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.integers(-50, 50), min_size=5, max_size=6),
    st.sampled_from([[], ["--bfile"], ["--format", "csv"], ["--format", "json"]]),
)
def test_exit_contract_of_count_sequences(n_max, counts, output):
    # Counts long enough for every level, some negative: a count sequence
    # that printed the levels before a bad one and then failed would break
    # the contract.
    check_contract(["counts", "relation", "--n-max", str(n_max), "--c-values", ",".join(map(str, counts)), *output])
