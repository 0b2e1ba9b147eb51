import pytest

from convexcount import cli, closedform, oracle, production, verify
from convexcount.production import CLASSES
from convexcount.verify import (
    FLOORS,
    SUITE_NAMES,
    _check_levels,
    run_suite,
    suite_charpoly,
    suite_eigen,
    suite_lemma1,
    suite_oracle,
    suite_relation,
)
from polyring import add


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_pass(suite):
    # 8 reaches every range this test ran at when each suite had its own size
    results = run_suite(suite, 8)
    assert results
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_run_suite_runs_a_patched_suite(monkeypatch):
    # run_suite looks suite_<name> up at call time, so a tracer's wrapper runs
    stub = [verify.CheckResult("stub", True)]
    monkeypatch.setattr(verify, "suite_lemma1", lambda n_max: stub)
    assert run_suite("lemma1", 3) is stub


def test_eigen_suite_builds_each_class_once(monkeypatch):
    # the relation row computes its default counts once, at n_max, not once per size
    calls = []
    true = production.connected_totals
    monkeypatch.setattr(production, "connected_totals", lambda n: calls.append(n) or true(n))
    assert suite_eigen(12) == [verify.CheckResult(f"eigen/{name}", True) for name in ("residuals", "dominant")]
    assert calls == [12]


def test_eigen_suite_fails_on_a_large_residual(monkeypatch, capsys):
    # every root of a charpoly of degree 5 and up moved by 1/1000: the first
    # class row reports the first size it reaches, and the suite stops there;
    # dominant_root, which still gives the true root, no longer agrees
    from fractions import Fraction

    from convexcount import spectral

    true = spectral.real_roots

    def shifted(poly, tol):
        roots = true(poly, tol)
        return [r + Fraction(1, 1000) for r in roots] if len(poly) > 5 else roots

    monkeypatch.setattr(spectral, "real_roots", shifted)
    assert cli.main(["verify", "eigen", "--n-max", "6"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == 2 and fails[0].startswith("FAIL eigen/residuals: kangulation(k=3) n=5 root~"), fails
    assert fails[1].startswith("FAIL eigen/dominant: kangulation(k=3) n=5: (count, root) "), fails


def test_charpoly_suite_calls_each_closed_form_once(monkeypatch):
    # the closed form returns d_n alone, so the suite calls it once per n
    calls = []
    for name in ("kangulation", "geometric", "connected", "partition"):
        attr = f"charpoly_closed_{name}"
        true = getattr(closedform, attr)
        monkeypatch.setattr(
            closedform, attr, lambda *a, name=name, true=true: calls.append((name, *a)) or true(*a)
        )
    top = FLOORS["charpoly"] + 3
    results = suite_charpoly(top)
    assert results and all(r.passed for r in results), results
    assert calls == [
        *(("kangulation", 3, n) for n in range(top + 1)), *(("kangulation", 4, n) for n in range(top + 1)),
        *((name, n) for name in ("geometric", "connected", "partition") for n in range(top + 1)),
    ]


def test_oracle_suite_checks_every_class_row_in_table_order():
    assert [r.name for r in suite_oracle(8)] == [f"oracle/{name}" for name in CLASSES]


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


def test_check_levels_draws_no_pair_past_the_first_mismatch():
    def pairs():
        yield "n=2", (1,), (1,)
        yield "n=3", (4,), (5,)
        raise AssertionError("a pair past the first mismatch was drawn")

    assert _check_levels("demo", pairs(), 3) == verify.CheckResult("demo", False, "first mismatch at n=3: (4,) != (5,)")


def test_vectors_suite_holds_one_class_of_levels_at_a_time():
    # each pair is compared as it is drawn, so no list of every pair builds up
    import tracemalloc

    tracemalloc.start()
    try:
        results = verify.suite_vectors(100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results and all(r.passed for r in results), results
    assert peak < 1.5 * 2**20, peak


def test_oracle_suite_fills_once_per_class_and_parameter(monkeypatch):
    # every public oracle function counted: one fill gives every level
    import inspect

    calls = []
    for name, fn in vars(oracle).copy().items():
        if inspect.isfunction(fn) and fn.__module__ == oracle.__name__ and not name.startswith("_"):
            monkeypatch.setattr(oracle, name, lambda *a, name=name, fn=fn: calls.append((name, *a)) or fn(*a))
    results = suite_oracle(30)
    assert results and all(r.passed for r in results), results
    # k-angulations to 30 vertices: r = 28, 14 and 9 k-gons
    assert calls == [
        ("dissection_degree_histograms", 3, 28), ("dissection_degree_histograms", 4, 14),
        ("dissection_degree_histograms", 5, 9), ("visibility_histograms", 30),
        ("connected_visibility_histograms", 30), ("partition_isolation_histograms", 30),
        ("isolation_histograms", 30),
    ]


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


def test_relation_suite_compares_levels_with_their_totals(monkeypatch):
    # geometric's level 11 relabelled 12, its total kept: level 11 is missing
    true = verify.count_totals

    def relabel(spec, top):
        totals = true(spec, top)
        return [(n + (n == 11), t) for n, t in totals] if spec.name == "geometric" else totals

    monkeypatch.setattr(verify, "count_totals", relabel)
    result = {r.name: r for r in suite_relation(11)}["relation/connected-to-geometric"]
    assert result == verify.CheckResult("relation/connected-to-geometric", False, "geometric level 11 missing")


@pytest.mark.parametrize("n", [-1, -5])
def test_negative_size_fails_every_check(n, capsys):
    for suite in SUITE_NAMES:
        for results in (run_suite(suite, n), getattr(verify, f"suite_{suite}")(n)):
            assert results
            for r in results:
                assert not r.passed and r.detail.startswith(f"empty range: n_max={n} < "), r
    assert cli.main(["verify", "all", "--n-max", str(n)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verify: 17 failure(s)"
    assert all(line.startswith("FAIL ") for line in lines[:-1])


def _spoil_geometric_level(totals, level):
    return [(n, t + (n == level)) for n, t in totals]


def _spoil_fill_level(hists, level):
    hist = hists[level]
    return {**hists, level: [hist[0] + 1, *hist[1:]]}


# For each floored check: the suite, the function a fault is planted in, when
# the fault fires, what it does, the first --n-max that reaches it, and the
# FAIL line the suite then prints.  Each fault sits just above the floor.
FAULTS = {
    "charpoly": (
        "charpoly", closedform, "charpoly_closed_geometric",
        lambda n: n >= 21, lambda poly: add(poly, (1,)), 21,
        "FAIL charpoly/geometric: closed form differs at n=21",
    ),
    "lemma1": (
        "lemma1", closedform, "lemma1_check",
        lambda t, m, n: t == 13, lambda ok: not ok, 13,
        "FAIL lemma1/exhaustive: fails at t=13 m=0 n=0",
    ),
    "oracle/partition": (
        "oracle", oracle, "partition_isolation_histograms",
        lambda n: n >= 21, lambda hists: _spoil_fill_level(hists, 21), 21,
        "FAIL oracle/partition: first mismatch at partition n=21: ",
    ),
    "oracle/kangulation": (
        "oracle", oracle, "dissection_degree_histograms",
        lambda k, r: k == 3 and r >= 21, lambda hists: _spoil_fill_level(hists, 21), 23,
        "FAIL oracle/kangulation: first mismatch at kangulation(k=3) r=21: ",
    ),
    "relation/connected-to-geometric": (
        "relation", verify, "count_totals",
        lambda spec, top: spec.name == "geometric",
        lambda totals: _spoil_geometric_level(totals, 11), 11,
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


def _failures(results):
    return {r.name: r.detail for r in results if not r.passed}


def _plant_charpoly_top(monkeypatch, target):
    # coefficient 1 of the target matrix's d_n moved by 1
    true = verify.charpoly_top

    def spoiled(m):
        top = true(m)
        return (top[0], top[1] + 1, *top[2:]) if m == target else top

    monkeypatch.setattr(verify, "charpoly_top", spoiled)


@pytest.mark.parametrize(
    "name, param", [(row.name, param) for row in CLASSES.values() for param in verify._params(row, (3, 4))]
)
def test_a_wrong_charpoly_top_fails_its_check_alone(name, param, monkeypatch):
    row = CLASSES[name]
    top = FLOORS["charpoly"]
    _plant_charpoly_top(monkeypatch, row.build(top, param))
    label = verify._label(row, param)
    assert _failures(suite_charpoly(6)) == {f"charpoly-top/{label}": f"differs at n={top}"}


@pytest.mark.parametrize("counts", ["default", "spanning-tree"])
def test_a_wrong_relation_charpoly_top_fails_its_check_alone(counts, monkeypatch):
    n = 9
    weights = None if counts == "default" else oracle.spanning_counts(n, "tree")
    _plant_charpoly_top(monkeypatch, production.build_relation_matrix(n, weights))
    assert _failures(suite_relation(n)) == {"relation/charpoly-top": f"with the {counts} counts, differs at n={n}"}


def test_a_wrong_k9_total_fails_the_kangulation_vectors(monkeypatch):
    # the k-angulation check runs k = 9 and reads each level's total
    true = production.k_angulation_total
    monkeypatch.setattr(production, "k_angulation_total", lambda k, r: true(k, r) + (k == 9 and r == 5))
    want = true(9, 5)
    assert _failures(run_suite("vectors", 8)) == {
        "vectors/kangulation": f"first mismatch at total kangulation(k=9) r=5: ({want},) != ({want + 1},)"
    }


def test_a_short_count_totals_fails_every_check_that_reads_it(monkeypatch):
    # the last level dropped: zip would compare the levels left and pass
    true = verify.count_totals
    monkeypatch.setattr(verify, "count_totals", lambda spec, top: true(spec, top)[:-1])
    assert _failures(suite_relation(20)) == {
        f"relation/{name}": "relation level 20 missing"
        for name in ("connected-to-geometric", "trees-to-forests", "paths-to-path-forests")
    }


def test_an_extra_level_fails_too(monkeypatch):
    true = verify.count_totals
    monkeypatch.setattr(verify, "count_totals", lambda spec, top: [*true(spec, top), (top + 1, 0)])
    failures = _failures(suite_relation(12))
    assert failures["relation/connected-to-geometric"] == "relation level 13 past 12"


def test_a_short_count_sequence_fails_every_check_that_reads_it(monkeypatch):
    # the last three levels dropped
    true = verify.count_sequence
    monkeypatch.setattr(verify, "count_sequence", lambda spec, top: true(spec, top)[:-3])
    failures = _failures(run_suite("vectors", 8) + suite_oracle(8))
    assert set(failures) == {f"vectors/{name}" for name in ("kangulation", "geometric", "connected", "partition")} | {
        f"oracle/{name}" for name in CLASSES
    }
    assert failures["vectors/kangulation"] == "kangulation level 6 missing"
    assert failures["oracle/geometric"] == "geometric level 6 missing"


def test_a_wrong_dominant_root_fails_eigen_dominant_alone(monkeypatch):
    # the second-largest root by (|r|, r) where there are two or more
    from convexcount import spectral

    def second(poly, tol):
        roots = sorted(spectral.real_roots(poly, tol), key=lambda r: (abs(r), r))
        return len(roots), (roots[-2:] or [None])[0]

    monkeypatch.setattr(spectral, "dominant_root", second)
    failures = _failures(suite_eigen(6))
    assert list(failures) == ["eigen/dominant"] and " n=2: (count, root) (2, " in failures["eigen/dominant"], failures


@pytest.mark.parametrize("n", [0, -2])
def test_the_new_checks_fail_on_empty_ranges(n):
    for results, name in ((suite_eigen(n), "eigen/dominant"), (suite_relation(n), "relation/charpoly-top")):
        assert _failures(results)[name].startswith("empty range"), results
