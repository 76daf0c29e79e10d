"""Tests of the benchmark itself (not of mflow).

    python -m pytest -q bench/tests

Each test runs a small slice of a workload's items, so the file takes
seconds, not the length of a benchmark run.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402

harness.load_mflow(ROOT)

import mflow.cli  # noqa: E402
import mflow.flow  # noqa: E402
import mflow.verify  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SLICE = {"flow-oracle": 5, "tree-cg": 25, "gt-spectral": 120, "cli-session": None}


def _prepared(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name]()
    items = wl.build(seed)
    wl.prepare(items, str(tmp_path))
    return wl, items


@pytest.mark.parametrize("name", sorted(SLICE))
def test_same_seed_same_inputs_and_exact_counts(name, tmp_path):
    wl, items = _prepared(name, 11, tmp_path)
    again = workloads.WORKLOADS[name]().build(11)
    assert harness.digest(items) == harness.digest(again)
    part = items[:SLICE[name]]
    first = harness.run_pass(wl, part)
    second = harness.run_pass(wl, part)
    traced = harness.run_pass(wl, part, spans.Tracer())
    assert all(first.ok) or name == "cli-session"
    assert first.ok == second.ok == traced.ok
    assert first.facts == second.facts == traced.facts
    assert first.caches == second.caches == traced.caches
    assert harness.differences(first, traced, 1) == []


@pytest.mark.parametrize("name", sorted(SLICE))
def test_different_seed_different_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert harness.digest(wl.build(1)) != harness.digest(wl.build(2))


def _corrupt(name, item, result):
    if name == "flow-oracle":
        result.terminal = result.terminal + 1e-3
        return result
    if name == "tree-cg":
        return [result[0] + 1] + result[1:]
    if name == "gt-spectral":
        kind = item.data[0]
        if kind == "pattern":
            return result[0], [(1, 2, 0.5)]
        if kind == "orbit":
            return [1.0] + result[0], result[1], result[2]
        if kind == "fiber":
            return (not result[0], result[1])
        return result[0] + 1, result[1]
    code, stdout, stderr = result
    return code, stdout + "tampered\n", stderr


@pytest.mark.parametrize("name", sorted(SLICE))
def test_wrong_result_is_a_failed_item(name, tmp_path, monkeypatch):
    wl, items = _prepared(name, 5, tmp_path)
    part = [it for it in items if not it.known_defect][:SLICE[name] or len(items)]
    if name == "cli-session":   # every kind that checks printed output
        part = [it for it in part if it.data["kind"] not in ("hostile", "flow", "contract",
                                                              "gt-pattern", "polygon")]
    idx = len(part) // 2
    target = part[idx]
    run = wl.run

    def tampered(item):
        result = run(item)
        return _corrupt(name, item, result) if item is target else result

    monkeypatch.setattr(wl, "run", tampered)
    res = harness.run_pass(wl, part)
    assert res.ok.count(False) == 1
    assert not res.ok[idx]
    assert res.details[idx].startswith("CheckFailed")


def test_exception_escaping_cli_main_is_a_failed_item(tmp_path, monkeypatch):
    wl, items = _prepared("cli-session", 3, tmp_path)
    real_main = mflow.cli.main

    def broken(argv):
        if argv[0] == "gt-count":
            raise RuntimeError("boom")
        return real_main(argv)

    monkeypatch.setattr(mflow.cli, "main", broken)
    res = harness.run_pass(wl, items)
    failed = {it.label: d for it, ok, d in zip(items, res.ok, res.details) if not ok}
    gt_counts = {it.label for it in items if it.data["kind"] == "gt-count"}
    deep = [it.label for it in items if it.known_defect]
    assert set(failed) == gt_counts | set(deep)
    assert all(failed[label] == "RuntimeError: boom" for label in gt_counts)


def test_cli_hostile_inputs_exit_codes(tmp_path):
    wl, items = _prepared("cli-session", 3, tmp_path)
    hostile = [it for it in items if it.data["kind"] == "hostile" and not it.known_defect]
    assert len(hostile) == 3
    for it in hostile:
        code, _, stderr = wl.run(it)
        assert code in it.data["expect"], (it.label, code, stderr)


def test_tracer_wraps_every_importer_and_restores():
    originals = {"flow_adj": mflow.flow.adjugate, "cli_run_all": mflow.cli.run_all,
                 "at": mflow.flow.FlowTrajectory.__dict__["at"]}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert mflow.flow.adjugate is not originals["flow_adj"]
        assert mflow.cli.run_all is mflow.verify.run_all is not originals["cli_run_all"]
        rng = np.random.default_rng(0)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        traj = mflow.flow.integrate_flow(B / np.linalg.det(B) ** (1 / 3))
        traj.at(0.5)
    finally:
        tracer.uninstall()
    assert mflow.flow.adjugate is originals["flow_adj"]
    assert mflow.cli.run_all is originals["cli_run_all"]
    assert mflow.flow.FlowTrajectory.__dict__["at"] is originals["at"]
    stats = traj.step_stats
    # one field evaluation at the start, six per attempted step
    assert tracer.rhs_calls() == 1 + 6 * (stats.accepted + stats.rejected)
    assert tracer.accepted_steps == stats.accepted
    assert tracer.calls["flow.at"] == 1
    assert tracer.self_s["flow.integrate_flow"] > 0


def test_inconsistent_passes_are_reported(tmp_path):
    wl, items = _prepared("gt-spectral", 1, tmp_path)
    a = harness.run_pass(wl, items[:10])
    b = harness.run_pass(wl, items[:10])
    b.facts[0] = {"changed": True}
    assert harness.differences(a, b, 1) == ["pass 1 item results differ from pass 0"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
                           "tree-cg", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
