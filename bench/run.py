"""trigzeros benchmark: one workload per invocation, result as a JSON line.

    python3 bench/run.py --workload {mc-iid,mc-periodic,analytic} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` times the workload in a worker process and prints every
end-to-end metric; ``--trace 1`` runs the same op list untraced and then
traced, each in its own worker process, and prints every per-layer metric.
The last line of standard output is the JSON result; the lines before it
are a readable report.  Sidecar files go to
``bench/out/<workload>-seed<N>-trace<0|1>/``: ``results.jsonl`` lists every
row, Kac-Rice total and constant, ``trials.jsonl`` (traced runs) every
per-trial count, ``digest.json`` their SHA-256 and the run's environment, and
``trace.json`` the spans and counts of a traced run.
Any failed correctness check makes the exit code 1.

Every process gets one BLAS thread and a fresh, empty ``TRIGZEROS_CACHE``,
so each process pays for the limit constants once and never touches
``~/.cache/trigzeros``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # before the worker, and as many again after it
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "trigpoly.grid.busy_s": "s",
    "trigpoly.grid.calls": "count",
    "trigpoly.grid.nodes": "count",
    "trigpoly.grid.bytes_computed": "B",
    "trigpoly.reduced.busy_s": "s",
    "trigpoly.reduced.term_evals": "count",
    "zeros.busy_s": "s",
    "zeros.trial_ms_p50": "ms",
    "zeros.trial_ms_p90": "ms",
    "zeros.doublings": "count",
    "zeros.unstable": "count",
    "zeros.nodes_per_zero": "nodes/zero",
    "models.busy_s": "s",
    "models.calls": "count",
    "harness.busy_s": "s",
    "constants.busy_s": "s",
    "constants.calls": "count",
    "constants.integrand_points": "count",
    "kacrice.abc_closed.busy_s": "s",
    "kacrice.abc_closed.points": "count",
    "kacrice.abc_reduced.busy_s": "s",
    "kacrice.abc_reduced.points": "count",
    "kacrice.abc_direct.busy_s": "s",
    "kacrice.abc_direct.points": "count",
    "kacrice.quad.busy_s": "s",
    "kacrice.quad.err_est_rel": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "trigzeros_cache_empty_at_start": not any(Path(os.environ["TRIGZEROS_CACHE"]).iterdir()),
    }


# ---------------------------------------------------------------------------
# Child roles
# ---------------------------------------------------------------------------


def probe(args) -> int:
    """Set-up as a user pays it: import the package and build the inputs."""
    import workloads

    workloads.build_ops(args.workload, args.seed, workloads.rounds_for(args.workload, args.seconds))
    print("ready", flush=True)
    return 0


def measure(ops, seed: int, mode: str, passes: int) -> dict:
    """Time the op list, then check and list its results.

    timed: op times scaled to the reference host speed.  untraced and traced
    (the per-layer run) are not scaled, so that the traced spans cover the
    traced wall time and the two walls differ by the tracing alone; untraced
    also recounts every trial for the per-trial listing.
    """
    import workloads as wl

    env = _environment()
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        results, wall = wl.run_ops(ops, passes, wl.make_reference() if mode == "timed" else None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mc = [r for r in results if isinstance(r.op, wl.MCOp)]
    analytic = [r for r in results if not isinstance(r.op, wl.MCOp)]
    checks = wl.check_mc(mc) + wl.check_analytic(analytic, seed)
    trials = []
    if mode == "untraced" and mc:
        trials, replay_checks = wl.replay_trials(mc)
        checks += replay_checks
    failed_keys = {ch.op.key for ch in checks if not ch.ok and ch.op is not None}
    attempted, failed = wl.attempted_failed(results, failed_keys)
    errors = [f"{r.op.key}: {r.error}" for r in results if r.error]
    payload = {
        "env": env,
        "wall_s": wall,
        "op_seconds": [r.seconds for r in results],
        "raw_op_seconds": [r.raw_seconds for r in results],
        "passes": passes,
        "trials": sum(r.op.config.trials for r in mc),
        "attempted": attempted,
        "failed": failed,
        "rss_mb": rss_mb,
        "checks": [(ch.name, ch.ok, ch.detail) for ch in checks]
        + [(f"op {e}", False, "raised") for e in errors],
        "err_est_rel_max": wl.err_est_rel_max(results),
        "records": wl.records(results),
        "trial_records": trials,
    }
    if tracer is not None:
        payload["trace"] = tracer.summary()
        payload["spans"] = tracer.spans
    return payload


def worker(args) -> int:
    import workloads as wl

    ops = wl.build_ops(args.workload, args.seed, wl.rounds_for(args.workload, args.seconds))
    passes = wl.PASSES[args.workload] if args.mode == "timed" else 1
    payload = measure(ops, args.seed, args.mode, passes)
    Path(args.result).write_text(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------


def _child_cmd(args, role: str, *extra: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["TRIGZEROS_CACHE"] = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    return env


def measure_setup(args, tmp: Path, warm_up: bool, reference) -> list:
    """Fresh-interpreter set-up times at the reference host speed (the
    reference kernel runs before and after each probe); a warm-up probe only
    fills file caches."""
    from workloads import REFERENCE_S

    times = []
    for _ in range(SETUP_PROBES + warm_up):
        before = reference()
        t0 = perf_counter()
        with subprocess.Popen(_child_cmd(args, "probe"), stdout=subprocess.PIPE,
                              text=True, env=_child_env(tmp), cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = perf_counter() - t0
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed * 2 * REFERENCE_S / (before + reference()))
    return times[warm_up:]


def run_worker(args, tmp: Path, mode: str) -> dict:
    result = tmp / f"worker-{mode}.json"
    cmd = _child_cmd(args, "worker", "--result", str(result), "--mode", mode)
    proc = subprocess.run(cmd, stdout=sys.stderr, env=_child_env(tmp), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def percentile_summary(durations) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the largest op time with
    at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    idx = max(n - 1 - TAIL_BEYOND, 0)
    return statistics.median(ordered), ordered[idx], 100.0 * (idx + 1) / n


def end_to_end_metrics(res: dict, setup_times: list) -> dict:
    p50, tail, _ = percentile_summary(res["op_seconds"])
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(res["op_seconds"]) / sum(res["op_seconds"]),
        "op_s_p50": p50,
        "op_s_tail": tail,
        "peak_rss_mb": res["rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(untraced: dict, traced: dict) -> dict:
    values = dict(traced["trace"]["metrics"])
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    busy = sum(v for k, v in values.items() if k.endswith(".busy_s"))
    values["trace.unattributed_s"] = traced["wall_s"] - busy
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def _print_checks(res: dict) -> bool:
    ok = True
    for name, passed, detail in res["checks"]:
        ok &= passed
        if not passed:
            print(f"CHECK FAILED  {name}: {detail}")
    print(f"checks: {sum(c[1] for c in res['checks'])}/{len(res['checks'])} passed")
    return ok


def report_end_to_end(args, res: dict, setup_times: list, metrics: dict) -> None:
    n_ops = len(res["op_seconds"])
    _, _, pct = percentile_summary(res["op_seconds"])
    busy = sum(res["op_seconds"])
    raw = sum(res["raw_op_seconds"])
    print(f"workload {args.workload}  seed {args.seed}  env {json.dumps(res['env'])}")
    print(f"  setup_s       {metrics['setup_s']['value']:.4f} s   median of "
          + ", ".join(f"{t:.4f}" for t in setup_times))
    print(f"  ops_per_s     {metrics['ops_per_s']['value']:.4f} 1/s  = {n_ops} ops / {busy:.4f} s "
          f"(op time = median of {res['passes']} passes at reference host speed; "
          f"{raw:.4f} s as measured, {res['wall_s']:.3f} s wall)")
    if res["trials"]:
        print(f"  trials_per_s  {res['trials'] / busy:.4f} 1/s  = {res['trials']} trials / "
              f"{busy:.4f} s")
    print(f"  op_s_p50      {metrics['op_s_p50']['value']:.5f} s   over {n_ops} ops")
    print(f"  op_s_tail     {metrics['op_s_tail']['value']:.5f} s   p{pct:.1f} of {n_ops} ops "
          f"({TAIL_BEYOND} beyond)")
    print(f"  failed_frac   {res['failed'] / res['attempted']:.5f}     = {res['failed']} / "
          f"{res['attempted']} {'trials' if res['trials'] else 'ops'}")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb']['value']:.1f} MB")
    if res["err_est_rel_max"] is not None:
        print(f"  err_est_rel_max {res['err_est_rel_max']:.5f}  (max abs_error_estimate / total)")


def report_layers(metrics: dict, untraced: dict, traced: dict) -> None:
    wall = traced["wall_s"]
    bases = traced["trace"]["bases"]
    print(f"traced wall {wall:.4f} s, untraced wall {untraced['wall_s']:.4f} s, "
          f"{bases['spans']} spans, {bases['zeros.trials']} trials counted")
    for name, m in metrics.items():
        line = f"  {name:32s} {m['value']:.6g} {m['unit']}"
        if name.endswith(".busy_s") and wall > 0:
            line += f"   ({m['value'] / wall:.1%} of traced wall)"
        elif name == "zeros.nodes_per_zero":
            nodes, zeros = bases["zeros.nodes_per_zero"]
            line += f"   = {nodes} nodes / {zeros} zeros"
        elif name == "trace.unattributed_s":
            within = abs(m["value"]) <= abs(metrics["trace.overhead_s"]["value"])
            line += f"   = traced wall - sum of busy_s; within |trace.overhead_s|: {within}"
        print(line)


def write_sidecars(args, untraced: dict, traced: dict | None) -> None:
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    digest = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": untraced["env"]}
    listings = {"results.jsonl": untraced["records"]}
    if untraced["trial_records"]:
        listings["trials.jsonl"] = untraced["trial_records"]
    if traced is not None:
        trace = {"env": traced["env"], "wall_s": traced["wall_s"],
                 "untraced_wall_s": untraced["wall_s"], "counts": traced["trace"],
                 "span_fields": ["layer", "start", "end", "parent"],
                 "spans": traced["spans"]}
        (out / "trace.json").write_text(json.dumps(trace) + "\n")
    for name, rows in listings.items():
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        (out / name).write_text(text)
        digest[name] = {"lines": len(rows), "sha256": hashlib.sha256(text.encode()).hexdigest()}
        print(f"digest {name} {digest[name]['sha256']}  ({len(rows)} lines)")
    (out / "digest.json").write_text(json.dumps(digest, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "worker"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("timed", "untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "trigzeros" / "__init__.py").is_file():
        print(f"error: the trigzeros sources are not at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported by any role
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    if args.role == "probe":
        return probe(args)
    if args.role == "worker":
        return worker(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace == 0:
            # probes on both sides of the worker sample the host at two times
            reference = workloads.make_reference()
            setup_times = measure_setup(args, tmp, True, reference)
            res = run_worker(args, tmp, "timed")
            setup_times += measure_setup(args, tmp, False, reference)
            metrics = end_to_end_metrics(res, setup_times)
            report_end_to_end(args, res, setup_times, metrics)
            correct = _print_checks(res)
            write_sidecars(args, res, None)
        else:
            untraced = run_worker(args, tmp, "untraced")
            res = run_worker(args, tmp, "traced")
            metrics = per_layer_metrics(untraced, res)
            report_layers(metrics, untraced, res)
            same = untraced["records"] == res["records"]
            res["checks"].append(("traced results equal untraced", same, ""))
            correct = _print_checks(untraced) & _print_checks(res)
            write_sidecars(args, untraced, res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
