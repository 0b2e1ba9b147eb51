import pytest

from convexcount import cli, spectral
from convexcount.exact import IntPolynomial
from convexcount.verify import (
    SUITE_NAMES,
    _check_levels,
    run_suite,
    suite_charpoly,
    suite_eigen,
    suite_lemma1,
    suite_oracle,
    suite_relation,
)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_pass(suite):
    kwargs = {
        "vectors": {"n_max": 8},
        "charpoly": {"n_max": 12},
        "eigen": {"n_max": 4},
        "oracle": {"n_graphs": 5},
        "lemma1": {"limit": 8},
        "relation": {"n_oracle": 6},
    }[suite]
    results = run_suite(suite, **kwargs)
    assert results
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_check_levels_reports_first_counterexample():
    result = _check_levels(
        "demo",
        [("n=2", (1, 2), (1, 2)), ("n=3", (4, 4), (4, 5)), ("n=4", (9,), (0,))],
    )
    assert not result.passed
    assert "n=3" in result.detail
    assert "(4, 4)" in result.detail
    ok = _check_levels("demo", [("n=2", (1,), (1,))])
    assert ok.passed and ok.detail == ""


def test_empty_ranges_fail():
    empty = _check_levels("demo", [])
    assert not empty.passed and "empty range" in empty.detail
    for results in (suite_lemma1(-1), suite_eigen(0), run_suite("vectors", n_max=0)):
        assert results and not any(r.passed for r in results)


@pytest.mark.parametrize("n", [0, -2])
def test_brute_force_suites_fail_on_empty_ranges(n):
    oracle_checks = {r.name: r for r in suite_oracle(n_graphs=n)}
    for name in ("geometric", "connected", "relation"):
        result = oracle_checks[f"oracle/{name}"]
        assert not result.passed and result.detail.startswith("empty range"), result
    # connected-to-geometric runs at its fixed range; the spanning checks
    # read n_oracle.
    relation_checks = {r.name: r for r in suite_relation(n_oracle=n)}
    assert relation_checks["relation/connected-to-geometric"].passed
    for name in ("trees-to-forests", "paths-to-path-forests"):
        result = relation_checks[f"relation/{name}"]
        assert not result.passed and result.detail.startswith("empty range"), result


def test_charpoly_suite_reads_n_max(monkeypatch, capsys):
    # a closed form that is wrong only at n = 25 passes the default range
    # (0..20) and fails once n_max reaches it
    true = spectral.charpoly_closed_geometric
    monkeypatch.setattr(
        spectral,
        "charpoly_closed_geometric",
        lambda n: true(n) + IntPolynomial.one() if n == 25 else true(n),
    )
    results = {r.name: r for r in suite_charpoly(n_max=30)}
    assert not results["charpoly/geometric"].passed
    assert results["charpoly/geometric"].detail == "closed form differs at n=25"
    assert all(r.passed for name, r in results.items() if name != "charpoly/geometric")
    assert all(r.passed for r in suite_charpoly(n_max=7))
    assert cli.main(["verify", "charpoly", "--n-max", "30"]) == 1
    assert "FAIL charpoly/geometric: closed form differs at n=25\n" in capsys.readouterr().out
