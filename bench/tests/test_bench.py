"""Tests of the benchmark itself, on tiny op lists."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from trigzeros import harness  # noqa: E402
from trigzeros.models import CoefficientModel, sample_coefficients  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TRIGZEROS_CACHE", str(tmp_path / "cache"))
    (tmp_path / "cache").mkdir()


def mc_ops():
    """Rows whose theory is exact: i.i.d. trig and periodic trig with r = 0."""
    cases = (("iid", None, 20, 1), ("iid", None, 20, 2), ("periodic", 3, 29, 3))
    return [wl.MCOp(harness.ExperimentConfig(dep=dep, ell=ell, degrees=(n,), trials=6,
                                             master_seed=seed))
            for dep, ell, n, seed in cases]


def analytic_ops():
    model = CoefficientModel(kind="trig", dep="periodic", ell=3)
    return [wl.KacRiceOp(sample_coefficients(model, 29, seed=1)),
            wl.KacRiceOp(sample_coefficients(CoefficientModel("cosine", "periodic", 3), 22, seed=2)),
            wl.ConstantOp("J", 2, 1)]


def roundtrip(payload):
    return json.loads(json.dumps(payload))  # the parent reads the worker's JSON


@pytest.mark.parametrize("ops", [mc_ops, analytic_ops])
def test_every_metric_in_benchmark_json_is_emitted_with_its_unit(ops):
    timed = roundtrip(run.measure(ops(), seed=1, mode="timed", passes=2))
    untraced = roundtrip(run.measure(ops(), seed=1, mode="untraced", passes=1))
    traced = roundtrip(run.measure(ops(), seed=1, mode="traced", passes=1))
    assert all(ok for _, ok, _ in timed["checks"] + untraced["checks"] + traced["checks"])

    e2e = run.end_to_end_metrics(timed, [0.2, 0.25, 0.3])
    layers = run.per_layer_metrics(untraced, traced)
    for emitted, declared in ((e2e, SPEC["end_to_end"]), (layers, SPEC["per_layer"])):
        assert list(emitted) == [m["name"] for m in declared]
        assert [m["unit"] for m in emitted.values()] == [m["unit"] for m in declared]
        assert all(math.isfinite(m["value"]) for m in emitted.values())
    assert all(e2e[name]["value"] > 0 for name in e2e)


def test_mc_checks_fail_on_corrupted_theory(monkeypatch):
    results, _ = wl.run_ops(mc_ops())
    assert all(check.ok for check in wl.check_mc(results))

    original = wl.theoretical_mean
    monkeypatch.setattr(wl, "theoretical_mean",
                        lambda model, n: (1.05 * original(model, n)[0], "exact"))
    assert not all(check.ok for check in wl.check_mc(results))


def test_kacrice_check_fails_on_corrupted_closed_form(monkeypatch):
    results, _ = wl.run_ops(analytic_ops()[:1])
    assert all(check.ok for check in wl.check_analytic(results, seed=1))

    original = wl.expected_zeros_exact_r0
    monkeypatch.setattr(wl, "expected_zeros_exact_r0",
                        lambda n, ell: original(n, ell) * (1 + 1e-6))
    checks = wl.check_analytic(results, seed=1)
    assert not all(check.ok for check in checks)
    assert wl.attempted_failed(results, {c.op.key for c in checks if not c.ok}) == (1, 1)


def test_replay_detects_a_row_that_disagrees_with_its_trials():
    results, _ = wl.run_ops(mc_ops()[:1])
    results[0].value = dataclasses.replace(results[0].value, empirical_mean=0.0)
    _, checks = wl.replay_trials(results)
    assert not checks[-1].ok


def test_trace_wrappers_leave_the_untraced_process_unpatched():
    tracer = tracing.Tracer()
    tracer.install()
    originals = {(owner, name): original for owner, name, original in tracer._patches}
    assert all(getattr(*key) is not fn for key, fn in originals.items())
    tracer.uninstall()

    def unpatched():
        return all(getattr(*key) is fn for key, fn in originals.items())

    assert unpatched()
    run.measure(mc_ops()[:1], seed=1, mode="timed", passes=2)
    assert unpatched()
    traced = run.measure(mc_ops()[:1], seed=1, mode="traced", passes=1)
    assert traced["trace"]["metrics"]["zeros.busy_s"] > 0
    assert unpatched()


def test_inputs_follow_the_seed():
    def seeds(seed):
        return [op.config.master_seed for op in wl.build_ops("mc-iid", seed, 2)]

    assert seeds(5) == seeds(5)
    assert seeds(5) != seeds(6)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-iid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_an_op_whose_result_changes_between_passes_fails():
    class Drifting:
        key = ("drifting",)
        calls = 0

        def run(self):
            Drifting.calls += 1
            return Drifting.calls

    results, _ = wl.run_ops([Drifting()], passes=2)
    assert results[0].error == "result differs between passes"
    assert wl.attempted_failed(results) == (1, 1)
