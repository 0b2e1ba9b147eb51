import pytest

from convexcount import cli, closedform, oracle, spectral, verify
from convexcount.exact import CountVector, IntPolynomial
from convexcount.verify import (
    FLOORS,
    SUITE_NAMES,
    SUITES,
    _check_levels,
    run_suite,
    suite_eigen,
    suite_lemma1,
    suite_oracle,
    suite_relation,
)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_pass(suite):
    # 8 reaches every range this test ran at when each suite had its own size
    results = run_suite(suite, 8)
    assert results
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense", 5)


def test_check_levels_reports_first_counterexample():
    result = _check_levels(
        "demo",
        [("n=2", (1, 2), (1, 2)), ("n=3", (4, 4), (4, 5)), ("n=4", (9,), (0,))],
        4,
    )
    assert not result.passed
    assert "n=3" in result.detail
    assert "(4, 4)" in result.detail
    ok = _check_levels("demo", [("n=2", (1,), (1,))], 2)
    assert ok.passed and ok.detail == ""


def test_empty_ranges_fail():
    empty = _check_levels("demo", [], 0)
    assert not empty.passed and "empty range" in empty.detail
    for results in (suite_lemma1(-1), suite_eigen(0), run_suite("vectors", 0)):
        assert results and not any(r.passed for r in results)


@pytest.mark.parametrize("n", [0, -2])
def test_brute_force_suites_fail_on_empty_ranges(n):
    oracle_checks = {r.name: r for r in suite_oracle(n)}
    for name in ("geometric", "connected", "relation"):
        result = oracle_checks[f"oracle/{name}"]
        assert not result.passed and result.detail.startswith("empty range"), result
    # connected-to-geometric runs to its floor at n = 0, and a negative size
    # is an empty range for every check; the spanning checks read n_max.
    relation_checks = {r.name: r for r in suite_relation(n)}
    assert relation_checks["relation/connected-to-geometric"].passed == (n >= 0)
    for name in ("trees-to-forests", "paths-to-path-forests"):
        result = relation_checks[f"relation/{name}"]
        assert not result.passed and result.detail.startswith("empty range"), result


@pytest.mark.parametrize("n", [-1, -5])
def test_negative_size_fails_every_check(n, capsys):
    for suite in SUITE_NAMES:
        for results in (run_suite(suite, n), SUITES[suite](n)):
            assert results
            for r in results:
                assert not r.passed and r.detail.startswith(f"empty range: n_max={n} < "), r
    assert cli.main(["verify", "all", "--n-max", str(n)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verify: 15 failure(s)"
    assert all(line.startswith("FAIL ") for line in lines[:-1])


def _spoil_geometric_level(vectors, level):
    return [
        CountVector(v.entries[:-1] + (v.entries[-1] + 1,), v.level) if v.level == level else v
        for v in vectors
    ]


# For each floored check: the suite, the function a fault is planted in, when
# the fault fires, what it does, the first --n-max that reaches it, and the
# FAIL line the suite then prints.  Each fault sits just above the floor.
FAULTS = {
    "charpoly": (
        "charpoly", spectral, "charpoly_closed_geometric",
        lambda n: n == 21, lambda poly: poly + IntPolynomial.one(), 21,
        "FAIL charpoly/geometric: closed form differs at n=21",
    ),
    "lemma1": (
        "lemma1", closedform, "lemma1_check",
        lambda t, m, n: t == 13, lambda ok: not ok, 13,
        "FAIL lemma1/exhaustive: fails at t=13 m=0 n=0",
    ),
    "oracle/partition": (
        "oracle", oracle, "partition_isolation_histogram",
        lambda n: n == 21, lambda hist: [hist[0] + 1, *hist[1:]], 21,
        "FAIL oracle/partition: first mismatch at partition n=21: ",
    ),
    "oracle/kangulation": (
        "oracle", oracle, "dissection_degree_histogram",
        lambda k, r: (k - 2) * r + 2 == 23, lambda hist: [hist[0] + 1, *hist[1:]], 23,
        "FAIL oracle/kangulation: first mismatch at kangulation(k=3) r=21: ",
    ),
    "relation/connected-to-geometric": (
        "relation", verify, "count_sequence",
        lambda spec, top: spec.name == "geometric",
        lambda vectors: _spoil_geometric_level(vectors, 11), 11,
        "FAIL relation/connected-to-geometric: first mismatch at n=11: ",
    ),
}


@pytest.mark.parametrize("check", FLOORS)
def test_floored_checks_read_n_max(check, monkeypatch, capsys):
    # a fault just above the floor passes the default range and fails once
    # --n-max reaches it
    suite, module, attr, fires, spoil, reach, fail_line = FAULTS[check]
    true = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a: spoil(true(*a)) if fires(*a) else true(*a))
    assert cli.main(["verify", suite, "--n-max", "6"]) == 0
    assert cli.main(["verify", suite, "--n-max", str(reach - 1)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", suite, "--n-max", str(reach)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == 1 and fails[0].startswith(fail_line), fails
