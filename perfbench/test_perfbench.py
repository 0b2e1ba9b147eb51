"""Tests of the benchmark harness itself: seeded op lists, output checks,
failure accounting and the trace's self-time arithmetic."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads


def _ok(stdout: str) -> run.ProcResult:
    return run.ProcResult(0.1, 20.0, 0, False, stdout, "")


def _catalan_bfile(n_max: int) -> str:
    return "".join(f"{n} {math.comb(2 * n, n) // (n + 1)}\n" for n in range(1, n_max + 1))


def _op(workloads_ops, prefix):
    return next(op for op in workloads_ops if op.name.startswith(prefix))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [op.argv for op in workloads.make_ops(workload, 11)]
    again = [op.argv for op in workloads.make_ops(workload, 11)]
    assert first == again
    assert len({op.name for op in workloads.make_ops(workload, 11)}) == len(first)


def test_seed_moves_order_and_sizes():
    argvs = {tuple(op.argv for op in workloads.make_ops("bfile", seed)) for seed in range(5)}
    assert len(argvs) == 5
    for seed in range(5):
        for op in workloads.make_ops("bfile", seed):
            assert 196 <= op.size <= 200


def test_relation_ops_are_marked():
    names = {w: {op.name for op in workloads.make_ops(w, 1) if op.relation} for w in workloads.WORKLOADS}
    assert names == {
        "bfile": {"counts.relation", "counts.relation-forests"},
        "spectrum": {"eigen.relation", "charpoly.relation"},
        "verify": {"verify.relation"},
    }


def test_corrupted_output_counts_as_failed():
    op = _op(workloads.make_ops("bfile", 3), "counts.partition")
    good = _catalan_bfile(op.size)
    bad = good.replace("\n5 42\n", "\n5 43\n")
    assert bad != good
    tally = run.Tally()
    tally.add(op.name, _ok(good))
    tally.add(op.name, _ok(good))
    tally.add(op.name, _ok(bad))
    tally.check([op])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "Catalan" in tally.problems[0]


def test_nonzero_exit_and_timeout_count_as_failed():
    tally = run.Tally()
    tally.add("setup", run.ProcResult(0.1, 20.0, 1, False, "", "boom"))
    tally.add("setup", run.ProcResult(60.0, 20.0, -9, True, "", ""))
    tally.add("setup", _ok(""))
    tally.check([])
    assert (tally.attempted, tally.failed) == (3, 2)


def test_check_routes_reject_wrong_outputs():
    verify_op = workloads.Op("verify.oracle", (), "verify")
    assert workloads.check_output(verify_op, "PASS a\nverify: all checks passed\n", {}) is None
    assert workloads.check_output(verify_op, "PASS a\nFAIL b: x\nverify: all checks passed\n", {})
    assert workloads.check_output(verify_op, "verify: all checks passed\n", {})

    eigen_op = workloads.Op("eigen.geometric", (), "eigen", "geometric", 3)
    pair = "eigenvalue 5.0\n  vector (x_{n-1}..x_0): 1.0\n  residual RESIDUAL\n"
    assert workloads.check_output(eigen_op, "real roots found: 1\n" + pair.replace("RESIDUAL", "1.0e-40"), {}) is None
    assert workloads.check_output(eigen_op, "real roots found: 1\n" + pair.replace("RESIDUAL", "1.0e-20"), {})
    assert workloads.check_output(eigen_op, "real roots found: 2\n" + pair.replace("RESIDUAL", "1.0e-40"), {})

    # det(A - xI) for the 3x3 partition matrix is 2 + 2x + 0x^2 - x^3.
    closed = workloads.Op("charpoly.partition.closed", (), "charpoly", "partition", 3,
                          peer="charpoly.partition.recurrence")
    assert workloads.check_output(closed, "2 2 0 -1\n", {closed.peer: "2 2 0 -1\n"}) is None
    assert workloads.check_output(closed, "2 2 0 -1\n", {closed.peer: "1 2 0 -1\n"})
    assert workloads.check_output(closed, "2 3 0 -1\n", {closed.peer: "2 3 0 -1\n"})
    assert workloads.check_output(closed, "2 2 0 -1\n", {})


def test_relation_counts_checked_against_geometric_peer():
    op = workloads.Op("counts.relation", (), "bfile", "relation", 4, relation=True, peer="counts.geometric")
    geometric = "2 2\n3 8\n4 48\n"
    assert workloads.check_output(op, "1 1\n2 2\n3 8\n4 48\n", {op.peer: geometric}) is None
    assert workloads.check_output(op, "1 1\n2 2\n3 8\n4 49\n", {op.peer: geometric})


def test_self_times_subtract_children_union():
    spans = [
        [0, 0.0, 10.0, -1],
        [1, 1.0, 4.0, 0],
        [1, 3.0, 6.0, 0],  # overlaps its sibling: covered time is 1..6
        [2, 2.0, 3.0, 1],
        [1, 12.0, 13.0, 0],  # outside the parent: covers nothing of it
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])


def test_traced_layers_account_for_traced_wall():
    argv = ("counts", "relation", "--n-max", "12", "--bfile")
    result = run.run_process(run.op_argv(workloads.Op("x", argv, "bfile"), traced=True), run.child_env())
    plain = run.run_process(run.op_argv(workloads.Op("x", argv, "bfile"), traced=False), run.child_env())
    assert result.returncode == 0
    assert result.stdout == plain.stdout
    dump = tracer.parse_spans(result.stderr)
    metrics = tracer.summarize(dump, result.wall_s)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert metrics["cli.self_s"] > 0
    assert metrics["process.outside_main_s"] > 0
    assert layers + metrics["process.outside_main_s"] == pytest.approx(result.wall_s, abs=1e-9)
    main_span = next(s for s in dump["spans"] if s[3] < 0)
    assert layers == pytest.approx(main_span[2] - main_span[1], abs=1e-9)
    # Levels 1..12 of the relation class, and levels 2..14 of the connected
    # class whose totals are its default weights.
    assert metrics["production.count_sequence.calls"] == 2
    assert metrics["exact.mat_vec.calls"] == 11 + 12


def test_bare_directory_exits_without_result(tmp_path):
    root = run.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in json.loads((root / "BENCHMARK.json").read_text())["paths"]:
        shutil.copytree(root / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "relation_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
