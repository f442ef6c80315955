"""A/B benchmark of two revisions: paired runs of each tree's own bench/run.py.

    python tools/ab.py --parent REV --change REV --workload W [--workload W2 ...] \
        --pairs K --seed S --tag T [--out DIR]

REV is any git tree-ish: a commit, a branch, or the tree of the staged
files (git write-tree).  Both revisions are exported with git archive into
a temporary directory, and each tree runs its own

    python3 bench/run.py --workload W --seed SEED --trace 0

from its root, one run at a time, with one BLAS thread; the run length
is each tree's own default.  Each workload
runs K pairs, one after the other; pair i runs both trees on the seed
S + i, in ABBA order: the parent first at even i, the change first at
odd i.  The end-to-end metrics, their directions and bounds are those
that the parent tree's BENCHMARK.json declares.  Nothing here needs the
network.

The result goes to DIR/BENCH_<tag>.json (DIR defaults to the current
directory), one JSON object:

    tag, pairs                         the arguments
    parent, change                     {"rev": REV, "id": the object git
                                       resolves REV to}
    command                            one run's command line, SEED in
                                       place
    order                              how the pairs are ordered, in words
    host                               {"machine", "system", "python",
                                       "cpus"} of the process that ran
    workloads                          {W: {"runs", "summary"}} a workload
      runs                             one entry a run, in the order run:
                                       {"pair", "seed", "side" ("parent" or
                                       "change"), "first" (ran first in its
                                       pair), "wall_s", "correct",
                                       "attempted", "failed", "metrics"
                                       ({name: value}), "op_time" ({"ops",
                                       "scaled_s", "measured_s"}: the op-time
                                       sums of its ops_per_s line, scaled
                                       to the reference host speed and as
                                       measured), "digests" ({sidecar file:
                                       sha256})}
      summary                          the output of summarize(runs, spec)
    extra                              {} for sections a change adds by hand

summarize gives, for each end-to-end metric: the parent's median and
interquartile range [q1, q3] (numpy's linear percentiles), the change's
median and range, the relative change of the medians, the wins (pairs
where the change reads better, "k/K"), the bound, the verdict ("worse
than bound" where the change's median is worse than the parent's by more
than the bound, as a fraction of it, else "within bound") and gain_met:
at least 9 of 10 pairs won, the medians apart by more than the parent's
interquartile range, in the better direction, and the change's failed
share no larger than the parent's.  Beside the metrics: the failed share
of each side (failed/attempted over its runs), whether every run passed
its checks, and whether the two runs of each pair wrote the same
digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GAIN_SHARE = 0.9
# bench/run.py's ops_per_s line: "= <ops> ops / <scaled> s (...; <measured> s as measured, ..."
_OP_TIME = re.compile(r"ops_per_s\s.*=\s*(\d+) ops / ([0-9.eE+-]+) s .*?; "
                      r"([0-9.eE+-]+) s as measured")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def export(rev: str, into: Path) -> Path:
    """The tree of rev, unpacked by git archive into a new directory."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def op_time_sums(lines: list) -> dict:
    """{"ops", "scaled_s", "measured_s"} from the ops_per_s line of a
    bench/run.py report: the op count, the op-time sum at reference host
    speed (what ops_per_s divides by) and the same sum as measured, whose
    ratio shows the host's drift; {} when no line matches."""
    for line in lines:
        match = _OP_TIME.search(line)
        if match:
            ops, scaled, measured = match.groups()
            return {"ops": int(ops), "scaled_s": float(scaled), "measured_s": float(measured)}
    return {}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One bench/run.py run in tree: its JSON result line, its digests and
    its wall time."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: bench/run.py printed nothing (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digests = {line.split()[1]: line.split()[2] for line in lines if line.startswith("digest ")}
    return {"wall_s": wall, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "op_time": op_time_sums(lines), "digests": digests}


def schedule(pairs: int, seed: int) -> list:
    """[(pair, seed, side)] in the order run: ABBA, one seed a pair."""
    order = []
    for pair in range(pairs):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        order += [(pair, seed + pair, side) for side in sides]
    return order


def summarize(runs: list, spec: list) -> dict:
    """The per-metric comparison of the runs (see the module docstring).

    runs: entries with "pair", "side", "correct", "attempted", "failed",
    "metrics" and "digests"; spec: BENCHMARK.json's end_to_end entries,
    each with "name", "better" ("lower" or "higher") and "bound"."""
    sides = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
             for side in ("parent", "change")}
    parent, change = sides["parent"], sides["change"]
    if [r["pair"] for r in parent] != [r["pair"] for r in change]:
        raise ValueError("every pair needs one parent run and one change run")
    pairs = len(parent)
    summary = {"pairs": pairs}
    failed = {}
    for side, side_runs in sides.items():
        attempted = sum(r["attempted"] for r in side_runs)
        failed[side] = sum(r["failed"] for r in side_runs) / attempted if attempted else None
    no_more_failures = (failed["change"] or 0.0) <= (failed["parent"] or 0.0)
    for entry in spec:
        name, sign = entry["name"], 1.0 if entry["better"] == "higher" else -1.0
        a = np.array([r["metrics"][name] for r in parent])
        b = np.array([r["metrics"][name] for r in change])
        a_mid, b_mid = float(np.median(a)), float(np.median(b))
        q1, q3 = (float(q) for q in np.percentile(a, [25, 75]))
        wins = int(np.count_nonzero(sign * (b - a) > 0))
        worse = sign * (a_mid - b_mid) > entry["bound"] * abs(a_mid)
        summary[name] = {
            "parent_median": a_mid,
            "parent_iqr": [q1, q3],
            "change_median": b_mid,
            "change_range": [float(b.min()), float(b.max())],
            "change": b_mid / a_mid - 1.0 if a_mid else None,
            "wins": f"{wins}/{pairs}",
            "bound": entry["bound"],
            "verdict": "worse than bound" if worse else "within bound",
            "gain_met": bool(wins >= GAIN_SHARE * pairs and sign * (b_mid - a_mid) > q3 - q1
                             and no_more_failures),
        }
    for side, share in failed.items():
        summary[f"failed_share_{side}"] = share
    summary["all_correct"] = all(r["correct"] for r in runs)
    summary["digests_equal_per_pair"] = all(p["digests"] == c["digests"]
                                            for p, c in zip(parent, change))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git tree-ish of the parent")
    parser.add_argument("--change", required=True, help="git tree-ish of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of bench/run.py; repeat for several")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="the seed of pair 0")
    parser.add_argument("--tag", required=True)
    parser.add_argument("--out", default=".", help="directory of BENCH_<tag>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    out = Path(args.out) / f"BENCH_{args.tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)  # before the runs, not after

    revs = {side: {"rev": rev, "id": _git("rev-parse", rev).strip()}
            for side, rev in (("parent", args.parent), ("change", args.change))}
    workloads = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: export(rev["rev"], Path(tmp) / side) for side, rev in revs.items()}
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        for workload in args.workload:
            runs, previous = [], None
            for pair, seed, side in schedule(args.pairs, args.seed):
                run = {"pair": pair, "seed": seed, "side": side, "first": previous != pair,
                       **run_once(trees[side], workload, seed)}
                previous = pair
                runs.append(run)
                print(f"{workload} pair {pair} seed {seed} {side:6s} "
                      + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()), flush=True)
            workloads[workload] = {"runs": runs, "summary": summarize(runs, spec)}
    result = {
        "tag": args.tag, "pairs": args.pairs, **revs,
        "command": "python3 bench/run.py --workload W --seed SEED --trace 0",
        "order": "ABBA: the parent first at even pairs, the change first at odd ones; "
                 "pair i uses the seed --seed + i for both runs",
        "host": {"machine": platform.machine(), "system": platform.platform(),
                 "python": platform.python_version(), "cpus": os.cpu_count()},
        "workloads": workloads,
        "extra": {},
    }
    out.write_text(json.dumps(result, indent=1) + "\n")
    for workload, part in workloads.items():
        for name, row in part["summary"].items():
            if isinstance(row, dict):
                print(f"{workload} {name:12s} parent {row['parent_median']:.6g} change "
                      f"{row['change_median']:.6g} wins {row['wins']} {row['verdict']} "
                      f"gain_met={row['gain_met']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
