"""Workloads, op execution and correctness checks of the trigzeros benchmark.

A workload is a fixed mix of ops repeated for a number of rounds.  Every
input (master seeds, coefficient draws, op order) comes from the benchmark
seed, so the same seed gives the same inputs and the program only ever sees
the generated configs and samples.

Ops call the program through module attributes (``harness.run_experiment``,
``kacrice.expected_zeros_quadrature``, ``constants.compute_C``...) so the
traced run's wrappers, installed on those modules, see every call.  The
references used by the checks are imported by name into this module: they
are never traced, and a test can corrupt one to show that the checks fail.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from trigzeros import constants, harness, kacrice
from trigzeros.constants import compute_C, monte_carlo_K, theoretical_mean
from trigzeros.kacrice import abc_direct, expected_zeros_exact_r0
from trigzeros.models import CoefficientModel, decompose_degree, mix64, sample_coefficients
from trigzeros.zeros import count_zeros

# z-bound for Monte Carlo means.  The acceptance battery uses 3 standard
# errors on fixed seeds; a benchmark run draws fresh seeds every time, so the
# statistical part of every Monte Carlo check uses 5 (false alarm ~6e-7).
Z_BOUND = 5.0

# Each op runs run_experiment on one degree.  Trial counts set clusters of op
# times on a 2-core box so that op_s_p50 and op_s_tail each fall inside one:
#   mc-iid: n = 199 rows (two per round, ~0.12 s), n = 499 trig rows (~0.14 s,
#   holds the median), n = 1999 single trials (0.2-0.45 s: the cost grows
#   fourfold with the grid doublings a trial needs) and 20-trial cosine rows
#   (~0.4 s, few doublings, holds the tail);
#   mc-periodic: rows of ~0.12 s (holds the median) and 12-trial cosine rows
#   (~0.25 s, always two doublings, holds the tail).
MC_MIXES = {
    "mc-iid": (
        ("trig", "iid", None, 199, 12),
        ("trig", "iid", None, 499, 4),
        ("trig", "iid", None, 1999, 1),
        ("cosine", "iid", None, 499, 20),
        ("trig", "iid", None, 199, 12),
    ),
    "mc-periodic": (
        ("trig", "periodic", 3, 400, 30),  # r = 2
        ("trig", "periodic", 3, 1600, 3),  # r = 2
        ("trig", "periodic", 5, 499, 5),  # r = 0
        ("cosine", "periodic", 3, 1199, 12),  # r = 0
    ),
}

# (kind, dep, ell, n) for expected_zeros_quadrature, grouped by the
# covariance route the program dispatches to.
KACRICE_CASES = (
    ("trig", "periodic", 3, 400),  # abc_closed, r = 2
    ("trig", "periodic", 3, 1000),  # abc_closed, r = 2
    ("trig", "periodic", 3, 299),  # abc_reduced, r = 0
    ("cosine", "periodic", 3, 1199),  # abc_reduced, r = 0
    ("cosine", "iid", None, 200),  # abc_direct
    ("cosine", "iid", None, 400),  # abc_direct
    ("cosine", "periodic", 3, 201),  # abc_direct, r = 1
)
CONSTANT_CASES = (
    [("C", ell, r) for ell in range(2, 6) for r in range(1, ell)]
    + [("K", ell, None) for ell in range(2, 5)]
    + [("J", ell, r) for ell in range(2, 6) for r in range(1, ell)]
)

# A run builds `rounds` rounds of distinct ops and times the whole list in
# PASSES[workload] passes; an op's time is the median of its passes.
#   Monte Carlo: one pass over many rounds.  The cost of one trial varies
#   about fourfold with the grid doublings it needs (most at n = 1999), so
#   run-to-run spread comes mostly from how many distinct trials a run
#   averages over.
#   analytic: the ops do not depend on the draws, so three passes of the same
#   30 ops, whose median keeps a host pause of a few seconds out of op times.
# The minimum rounds put op_s_tail (the op time with 10 ops beyond it) inside
# one cluster of op times: the cosine rows of mc-iid (p91.7 of 5 x 24 ops),
# the cosine rows of mc-periodic (p94.4 of 4 x 45), the C constants for
# analytic (p66.7 of 30).  Beyond the minimum, --seconds adds rounds at the
# nominal round time of a 2-core box.
PASSES = {"mc-iid": 1, "mc-periodic": 1, "analytic": 3}
MIN_ROUNDS = {"mc-iid": 24, "mc-periodic": 45, "analytic": 1}
NOMINAL_ROUND_S = {"mc-iid": 1.05, "mc-periodic": 0.6, "analytic": 9.5}
WORKLOADS = tuple(MIN_ROUNDS)


def rounds_for(workload: str, seconds: float) -> int:
    nominal = PASSES[workload] * NOMINAL_ROUND_S[workload]
    return max(MIN_ROUNDS[workload], math.ceil(seconds / nominal))


def family(kind: str, dep: str, ell) -> str:
    return f"{kind}/{dep}" + (f"/{ell}" if ell is not None else "")


@dataclass(frozen=True)
class MCOp:
    """One run_experiment row: `trials` seeded trials at degree n."""

    config: harness.ExperimentConfig

    @property
    def key(self):
        c = self.config
        return family(c.kind, c.dep, c.ell), c.degrees[0]

    def run(self):
        return harness.run_experiment(self.config).rows[0]


@dataclass(frozen=True)
class KacRiceOp:
    """One expected_zeros_quadrature call; the draw never enters the result."""

    sample: object

    @property
    def key(self):
        m = self.sample.model
        return "kacrice", family(m.kind, m.dep, m.ell), self.sample.n

    def run(self):
        return kacrice.expected_zeros_quadrature(self.sample)


@dataclass(frozen=True)
class ConstantOp:
    """One uncached limit constant: C[ell, r], K[ell] or J[ell, r]."""

    name: str
    ell: int
    r: int | None

    @property
    def key(self):
        return self.name, self.ell, self.r

    def run(self):
        if self.name == "C":
            return constants.compute_C(self.ell, self.r, use_cache=False)
        if self.name == "K":
            return constants.compute_K(self.ell, use_cache=False)
        return constants.compute_J(self.ell, self.r)


def build_ops(workload: str, seed: int, rounds: int) -> list:
    """The run's op list, deterministic in (workload, seed, rounds)."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(rounds):
        if workload in MC_MIXES:
            for kind, dep, ell, n, trials in MC_MIXES[workload]:
                config = harness.ExperimentConfig(
                    kind=kind, dep=dep, ell=ell, degrees=(n,), trials=trials,
                    master_seed=rng.getrandbits(63), workers=1,
                )
                ops.append(MCOp(config))
        elif workload == "analytic":
            batch = [
                KacRiceOp(sample_coefficients(
                    CoefficientModel(kind=kind, dep=dep, ell=ell), n,
                    seed=rng.getrandbits(63)))
                for kind, dep, ell, n in KACRICE_CASES
            ] + [ConstantOp(*case) for case in CONSTANT_CASES]
            rng.shuffle(batch)
            ops.extend(batch)
        else:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops


# Host speed.  The shared host of a 2-core box changes speed by up to +-20 %
# for tens of seconds at a time, which no statistic within one run removes.
# After every timed op the run times a fixed numpy and Python kernel that
# does not touch trigzeros; the rolling median of that time over HOST_WINDOW
# neighbouring ops, over REFERENCE_S (its time on a quiet box), is the host's
# slowdown at that moment.  Op times are reported at the reference speed,
# measured / slowdown: a trigzeros change moves the op times and not the
# kernel, while a slow host moves both.
REFERENCE_S = 0.003
HOST_WINDOW = 11


def make_reference():
    """The reference kernel: returns its own run time in seconds."""
    rng = np.random.default_rng(0)
    spectrum = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
    matrix = rng.standard_normal((100, 1000))

    def reference() -> float:
        t0 = perf_counter()
        np.fft.ifft(spectrum)
        np.cos(matrix) @ matrix[0]
        total = 0
        for k in range(5000):
            total += k
        return perf_counter() - t0

    return reference


def host_slowdown(reference_times) -> list:
    half = HOST_WINDOW // 2
    return [statistics.median(reference_times[max(0, j - half): j + half + 1]) / REFERENCE_S
            for j in range(len(reference_times))]


@dataclass
class OpResult:
    op: object
    seconds: float  # median over the passes, at the reference host speed
    raw_seconds: float  # median over the passes, as measured
    value: object = None
    error: str | None = None


def run_ops(ops, passes: int = 1, reference=None) -> tuple[list, float]:
    """Time every op in each pass; an op that raises, or whose result differs
    between passes, is recorded as failed, not propagated.  With a reference
    kernel, op times are also scaled to the reference host speed."""
    order, raw, ref = [], [], []
    values = [[] for _ in ops]
    errors = [None] * len(ops)
    start = perf_counter()
    for _ in range(passes):
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                values[i].append(op.run())
            except Exception as exc:  # a failing op is a result the run reports
                errors[i] = errors[i] or f"{type(exc).__name__}: {exc}"
            raw.append(perf_counter() - t0)
            order.append(i)
            if reference is not None:
                ref.append(reference())
    wall = perf_counter() - start
    slowdown = host_slowdown(ref) if reference is not None else [1.0] * len(raw)
    measured = [[] for _ in ops]
    scaled = [[] for _ in ops]
    for i, t, s in zip(order, raw, slowdown):
        measured[i].append(t)
        scaled[i].append(t / s)
    results = []
    for op, m, t, v, err in zip(ops, measured, scaled, values, errors):
        if err is None and any(x != v[0] for x in v):
            err = "result differs between passes"
        results.append(OpResult(op, statistics.median(t), statistics.median(m),
                                v[0] if err is None else None, err))
    return results, wall


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------


def attempted_failed(results, failed_keys=frozenset()) -> tuple[int, int]:
    """Monte Carlo: trials, and unstable trials plus trials of raising rows.
    Analytic: ops, and raising ops plus ops whose key fails a check."""
    attempted = failed = 0
    for res in results:
        if isinstance(res.op, MCOp):
            attempted += res.op.config.trials
            failed += res.op.config.trials if res.error else res.value.unstable
        else:
            attempted += 1
            failed += bool(res.error) or res.op.key in failed_keys
    return attempted, failed


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    op: object = None


def _pooled(rows):
    """Mean and standard error of the stable counts of several rows."""
    rows = [row for row in rows if row.empirical_mean is not None]
    sizes = [row.trials - row.unstable for row in rows]
    k = sum(sizes)
    mean = sum(row.empirical_mean * size for row, size in zip(rows, sizes)) / k
    ss = sum((size - 1) * (row.stddev or 0.0) ** 2 + size * (row.empirical_mean - mean) ** 2
             for row, size in zip(rows, sizes))
    return mean, math.sqrt(ss / (k - 1) / k) if k > 1 else math.inf, k


def check_mc(results) -> list:
    """Pool each (family, n) over the run's rows and compare with theory.

    Exact tags: within Z_BOUND standard errors.  Asymptotic tags: the
    acceptance battery's allowance for the family plus Z_BOUND standard
    errors.  Every mean respects the 2n ceiling.
    """
    groups = {}
    for res in results:
        if res.error is None:
            groups.setdefault(res.op.key, (res.op.config.model(), []))[1].append(res.value)
    checks = []
    for (fam, n), (model, rows) in sorted(groups.items()):
        mean, se, k = _pooled(rows)
        theory, order = theoretical_mean(model, n)
        if order == "exact":
            allowance = 0.0
        elif order == "o(n)":  # iid-baseline: Monte Carlo within 2 %
            allowance = 0.02 * theory
        elif order == "O(n^(4/5))":  # linear-growth-constant: |mean/n - C| <= 0.01
            allowance = 0.01 * n
        elif order == "O(n^(2/3))":  # cosine-gap-order: |mean - 2n| <= 5 n^(2/3)
            allowance = 5.0 * n ** (2.0 / 3.0)
        else:
            raise ValueError(f"no tolerance for order tag {order!r}")
        tol = allowance + Z_BOUND * se
        ok = abs(mean - theory) <= tol and mean <= 2 * n + Z_BOUND * se
        checks.append(Check(
            f"mc {fam} n={n}", ok,
            f"mean {mean:.3f} over {k} stable trials vs theory {theory:.3f} ({order}): "
            f"|diff| {abs(mean - theory):.3f} <= {tol:.3f}"))
    return checks


def full_circle_reference(sample, panels_per_degree: int = 40, nodes: int = 16,
                          chunk: int = 20_000) -> float:
    """Composite Gauss-Legendre of abc_direct over the whole circle, no windows."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    panels = panels_per_degree * sample.n
    edges = np.linspace(0.0, 2.0 * math.pi, panels + 1)
    half = 0.5 * np.diff(edges)
    xs = ((edges[:-1] + half)[:, None] + half[:, None] * z[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return sum(float(abc_direct(sample, xs[i:i + chunk]).integrand() @ ws[i:i + chunk])
               for i in range(0, xs.size, chunk))


def kacrice_reference(sample):
    """(reference total, extra allowance, label) for one Kac-Rice case."""
    model, n = sample.model, sample.n
    if model.dep == "iid":
        ref = 2.0 * math.sqrt(n * (2 * n + 1) / 6.0)  # i.i.d.-trig closed form
        return ref, 0.005 * ref, "iid-trig closed form (+0.5 %, iid-baseline)"
    dec = decompose_degree(n, model.ell)
    if model.kind == "trig" and dec.r == 0:
        ref = expected_zeros_exact_r0(n, model.ell)
        return ref, 1e-9 * ref, "expected_zeros_exact_r0 (1e-9 rel)"
    if model.kind == "trig":
        return n * compute_C(model.ell, dec.r), 0.0, "n*C"
    if dec.r == 0:
        return 2.0 * n, 0.0, "2n"
    # no formula exists for periodic cosine with r != 0
    return full_circle_reference(sample), 0.0, "full-circle direct quadrature"


def check_kacrice(op: KacRiceOp, result) -> Check:
    sample = op.sample
    total = result.total()
    ref, extra, label = kacrice_reference(sample)
    tol = result.abs_error_estimate + extra
    ok = math.isfinite(total) and abs(total - ref) <= tol and total <= 2 * sample.n + 0.5
    m = sample.model
    return Check(
        f"kacrice {family(m.kind, m.dep, m.ell)} n={sample.n}", ok,
        f"total {total:.4f} +- {result.abs_error_estimate:.4g} vs {label} {ref:.4f}", op)


def check_constant(op: ConstantOp, value: float, values: dict, seed: int) -> Check:
    name = f"{op.name}[{op.ell}{'' if op.r is None else f',{op.r}'}]"
    if op.name == "J":
        ok = abs(value - 1.0) <= 1e-9
        detail = f"|J - 1| = {abs(value - 1.0):.2e} <= 1e-9"
    elif op.name == "C":
        twin = values.get(("C", op.ell, op.ell - op.r), value)
        ok = math.sqrt(2.0) < value <= 2.0 and abs(value - twin) <= 1e-9
        detail = f"C = {value:.12f} in (sqrt2, 2], |C - C[ell,ell-r]| = {abs(value - twin):.1e}"
    else:
        mc, se = monte_carlo_K(op.ell, n_points=200_000, seed=seed)
        ok = abs(value - mc) <= 4.0 * se + 1e-3
        detail = f"K = {value:.9f} vs Monte Carlo {mc:.6f} +- {se:.1e}"
    return Check(f"constant {name}", ok, detail, op)


def check_analytic(results, seed: int) -> list:
    """Check each distinct op once."""
    values = {res.op.key: res.value for res in results if res.error is None}
    checks = []
    seen = set()
    for res in results:
        if res.error is not None or res.op.key in seen:
            continue
        seen.add(res.op.key)
        if isinstance(res.op, KacRiceOp):
            checks.append(check_kacrice(res.op, res.value))
        else:
            checks.append(check_constant(res.op, res.value, values, seed))
    return checks


def err_est_rel_max(results) -> float | None:
    rels = [r.value.abs_error_estimate / r.value.total() for r in results
            if isinstance(r.op, KacRiceOp) and r.error is None]
    return max(rels) if rels else None


# ---------------------------------------------------------------------------
# Result listing (digest sidecar)
# ---------------------------------------------------------------------------


def replay_trials(results) -> tuple[list, list]:
    """Recount every trial of every row with the harness's seeding contract.

    Returns the per-trial records and checks that each row's aggregates are
    exactly those of its trials and that every count respects 2n.
    """
    records, checks = [], []
    for res in results:
        if not isinstance(res.op, MCOp) or res.error is not None:
            continue
        c = res.op.config
        n = c.degrees[0]
        model = c.model()
        counts, unstable, over = [], 0, 0
        for t in range(c.trials):
            sample = sample_coefficients(model, n, seed=mix64(c.master_seed, n, t))
            rep = count_zeros(sample, grid_per_degree=c.grid_per_degree,
                              max_doublings=c.max_doublings)
            records.append({
                "family": family(c.kind, c.dep, c.ell), "n": n,
                "master_seed": c.master_seed, "trial": t, "count": rep.count,
                "grid_size": rep.grid_size, "doublings_used": rep.doublings_used,
                "stable": rep.stable,
            })
            over += rep.count > 2 * n
            if rep.stable:
                counts.append(rep.count)
            else:
                unstable += 1
        row = res.value
        mean = sum(counts) / len(counts) if counts else None
        ok = over == 0 and unstable == row.unstable and mean == row.empirical_mean
        if not ok:
            checks.append(Check(
                f"replay {family(c.kind, c.dep, c.ell)} n={n} seed={c.master_seed}", False,
                f"row mean {row.empirical_mean} unstable {row.unstable}; trials give "
                f"{mean} and {unstable}; {over} counts above 2n"))
    checks.append(Check("replay", all(ch.ok for ch in checks),
                        f"{len(records)} trials recounted"))
    return records, checks


def records(results) -> list:
    """Timing-free listing of every row, Kac-Rice total and constant."""
    out = []
    seen = set()
    for res in results:
        op = res.op
        if isinstance(op, MCOp):
            c, row = op.config, res.value
            out.append({
                "row": family(c.kind, c.dep, c.ell), "n": c.degrees[0],
                "master_seed": c.master_seed, "trials": c.trials,
                "error": res.error,
                "unstable": None if res.error else row.unstable,
                "empirical_mean": None if res.error else row.empirical_mean,
            })
            continue
        if op.key in seen:
            continue
        seen.add(op.key)
        if isinstance(op, KacRiceOp):
            m = op.sample.model
            v = res.value
            out.append({
                "kacrice": family(m.kind, m.dep, m.ell), "n": op.sample.n,
                "error": res.error,
                "total": None if res.error else v.total(),
                "abs_error_estimate": None if res.error else v.abs_error_estimate,
            })
        else:
            out.append({"constant": op.name, "ell": op.ell, "r": op.r,
                        "error": res.error, "value": res.value})
    return sorted(out, key=lambda rec: repr(sorted(rec.items())))

