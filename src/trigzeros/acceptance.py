"""Acceptance battery: every quantitative claim the package stands behind.

Each criterion is a function returning a CriterionResult; run_all executes
the lot and is what `trigzeros verify` prints.  The checks pin down:

  1. the closed-form mean for full-block periodic (r = 0) trig ensembles,
     by Monte Carlo and by quadrature;
  2. the fully deterministic count 2n when the period is 1;
  3. the mean in [2n+1-ell, 2n] for full-block periodic cosine ensembles;
  4. linear growth n*C[ell,r] for partial-block (r != 0) trig ensembles,
     with C confirmed by an independent Monte Carlo double integral;
  5. identities and bounds for the limit constants themselves;
  6. the i.i.d. baseline 2n/sqrt(3), and the exact i.i.d. law;
  7. the factorization T_n = phi_m * T* behind the deterministic zeros,
     the carrier phase that the r = 0 counts run through, and the
     lattice numerator W = 2 sin(ell x/2) T_n that the r != 0 counts run
     through;
  8. micro-identities the closed forms rely on, checked on the kernel
     and the covariance routes that every Kac-Rice total uses.

A criterion records every check on one _Gate and returns once: it passes
with a one-line summary when no check failed, and a failing one lists
every failed check, in order, before that summary.  A failed Monte Carlo
row is a failed check that skips only the arithmetic on its mean.

All seeds are fixed, so the battery is deterministic; quick=True shrinks
trial counts for a fast smoke run (seconds instead of minutes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    compute_C,
    compute_I_alpha,
    compute_J,
    grading_gap,
    monte_carlo_C,
)
from .harness import ExperimentConfig, run_experiment
from .kacrice import (
    abc_closed,
    abc_reduced,
    expected_zeros_exact_r0,
    expected_zeros_quadrature,
)
from .models import CoefficientModel, sample_coefficients
from .trigpoly import dirichlet_pair, evaluate, numerator_jet, reduce_periodic
from .zeros import carrier_phase, deterministic_zero_set


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


class _Gate:
    """The checks of one criterion, each recorded, none returning early."""

    def __init__(self, name: str):
        self.name = name
        self.failures: list[str] = []

    def check(self, ok, detail: str) -> bool:
        """Record one check; detail names it in the report if it fails."""
        if not ok:
            self.failures.append(detail)
        return bool(ok)

    def row(self, label: str, trials: int, **config):
        """The one row of a Monte Carlo run, or None (a failed check) when
        the row failed, so that no arithmetic runs on its missing mean."""
        (row,) = run_experiment(ExperimentConfig(trials=trials, **config)).rows
        ok = self.check(not row.failed, f"{label}: {row.unstable} unstable trials")
        return row if ok else None

    def result(self, summary: str) -> CriterionResult:
        return CriterionResult(self.name, not self.failures,
                               "; ".join(filter(None, [*self.failures, summary])))


# ---------------------------------------------------------------------------
# 1. exact mean for full-block periodic trig ensembles
# ---------------------------------------------------------------------------


def exact_mean_full_blocks(quick: bool = False) -> CriterionResult:
    """Mean zero count of r = 0 trig ensembles equals the closed form.

    Checked two ways per (ell, n): the Monte Carlo mean must sit within
    3 standard errors of (n+1-ell) + sqrt(n^2 + (ell^2-1)/3), and the
    Kac-Rice quadrature must reproduce the same number to 1e-9 relative.
    """
    gate = _Gate("exact-mean-full-blocks")
    trials = 200 if quick else 2000
    worst_z = worst_quad = 0.0
    for ell, n in ((2, 199), (3, 299), (5, 499)):
        family = f"(ell={ell}, n={n})"
        exact = expected_zeros_exact_r0(n, ell)

        row = gate.row(family, trials, dep="periodic", ell=ell, degrees=(n,),
                       master_seed=2026)
        if row and gate.check(row.stderr, f"{family}: zero standard error"):
            z = abs(row.empirical_mean - exact) / row.stderr
            gate.check(z <= 3.0, f"{family}: mean {row.empirical_mean:.3f} vs closed "
                                 f"form {exact:.3f}, |z| {z:.2f} > 3")
            worst_z = max(worst_z, z)

        model = CoefficientModel(kind="trig", dep="periodic", ell=ell)
        quad = expected_zeros_quadrature(sample_coefficients(model, n, seed=0)).total()
        rel = abs(quad - exact) / exact
        gate.check(rel <= 1e-9, f"{family}: quadrature {quad:.6f} vs closed form "
                                f"{exact:.6f}, rel {rel:.2e} > 1e-9")
        worst_quad = max(worst_quad, rel)

    return gate.result(
        f"max |z| {worst_z:.2f} (<= 3) over {trials} trials x 3 families; "
        f"quadrature vs closed form rel {worst_quad:.2e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# 2. period 1: every sample has exactly 2n zeros
# ---------------------------------------------------------------------------


def full_period_degeneracy(quick: bool = False) -> CriterionResult:
    """With ell = 1 all coefficients coincide and the count is always 2n."""
    gate = _Gate("full-period-degeneracy")
    trials = 50 if quick else 200
    for n in (20, 50, 100):
        row = gate.row(f"n={n}", trials, dep="periodic", ell=1, degrees=(n,),
                       master_seed=2027)
        if row:
            gate.check(not row.unstable and row.empirical_mean == 2 * n and row.stddev == 0.0,
                       f"n={n}: mean {row.empirical_mean}, stddev {row.stddev}, "
                       f"{row.unstable} unstable")
    return gate.result(f"exactly 2n zeros with zero variance, {trials} trials at "
                       f"n in (20, 50, 100)")


# ---------------------------------------------------------------------------
# 3. cosine full blocks: the mean lies in [2n+1-ell, 2n]
# ---------------------------------------------------------------------------


def cosine_gap_order(quick: bool = False) -> CriterionResult:
    """The mean lies in [2n+1-ell, 2n], each end widened by 3 stderr.

    Every r = 0 sample has at least 2(n+1-ell) zeros: the phase of the
    reduced factor advances by 2 pi (f0 + w) around the circle (f0 =
    (m-1) ell/2, w the number of roots of P in the unit disk), which
    forces 2(f0 + w) >= n+1-ell crossings besides the n+1-ell
    deterministic zeros.  Reversing the i.i.d. coefficients of P leaves
    their law unchanged and maps each root alpha to 1/alpha, so
    E[w] = (ell-1)/2 and the mean is at least 2n+1-ell; the ceiling 2n
    holds sample by sample.  The gap to 2n is therefore O(1), inside the
    O(n^(2/3)) order that the theory table states.
    """
    gate = _Gate("cosine-gap-order")
    trials = 100 if quick else 800
    ell = 3
    details = []
    for n in (299, 599, 1199):
        row = gate.row(f"n={n}", trials, kind="cosine", dep="periodic", ell=ell,
                       degrees=(n,), master_seed=2028)
        if row:
            lo = 2 * n + 1 - ell - 3 * row.stderr
            hi = 2 * n + 3 * row.stderr
            details.append(f"n={n}: mean {row.empirical_mean:.3f} in "
                           f"[{2 * n + 1 - ell}, {2 * n}] +- {3 * row.stderr:.3f}")
            gate.check(lo <= row.empirical_mean <= hi,
                       f"n={n}: mean {row.empirical_mean:.3f} outside [{lo:.3f}, {hi:.3f}]")
    return gate.result("; ".join(details))


# ---------------------------------------------------------------------------
# 4. partial blocks: linear growth with slope C[ell, r]
# ---------------------------------------------------------------------------


def linear_growth_constant(quick: bool = False) -> CriterionResult:
    """mean/n matches compute_C(ell, r) within max(3 stderr/n, 0.01).

    compute_C itself is cross-checked against the Monte Carlo double
    integral before being trusted as the reference.
    """
    gate = _Gate("linear-growth-constant")
    trials = 200 if quick else 2000
    mc_points = 100_000 if quick else 400_000
    worst_dev = 0.0
    for ell, r, n in ((2, 1, 400), (3, 1, 399), (3, 2, 400)):
        c_quad = compute_C(ell, r)
        c_mc, c_se = monte_carlo_C(ell, r, n_points=mc_points, seed=2029)
        gate.check(abs(c_mc - c_quad) <= 4.0 * c_se + 1e-3,
                   f"C[{ell},{r}]: quadrature {c_quad:.6f} vs Monte Carlo "
                   f"{c_mc:.6f} +- {c_se:.1e} disagree")

        family = f"(ell={ell}, r={r}, n={n})"
        row = gate.row(family, trials, dep="periodic", ell=ell, degrees=(n,),
                       master_seed=2026)
        if row:
            dev = abs(row.empirical_mean / n - c_quad)
            allowed = max(3.0 * row.stderr / n, 0.01)
            gate.check(dev <= allowed,
                       f"{family}: mean/n {row.empirical_mean / n:.5f} vs C "
                       f"{c_quad:.5f}, |dev| {dev:.5f} > {allowed:.5f}")
            worst_dev = max(worst_dev, dev)
    return gate.result(
        f"max |mean/n - C| {worst_dev:.4f} within tolerance over 3 families, "
        f"{trials} trials each; C confirmed by Monte Carlo oracle")


# ---------------------------------------------------------------------------
# 5. limit-constant identities and bounds
# ---------------------------------------------------------------------------


def constant_identities(quick: bool = False) -> CriterionResult:
    """J = 1, the alpha-integral closed form, the range of C, and C and K
    within 1e-12 of their rules one grading level deeper (K also of its
    rule on twice the panels)."""
    gate = _Gate("constant-identities")
    ell_max_c = 5 if quick else 8
    ell_max_j = 4 if quick else 6
    n_angles = 8 if quick else 20

    worst_j = max(abs(compute_J(ell, r) - 1.0)
                  for ell in range(2, ell_max_j + 1) for r in range(1, ell))
    gate.check(worst_j <= 1e-12, f"max |J - 1| = {worst_j:.2e}")

    worst_i = 0.0
    for alpha in np.linspace(0.1, math.pi / 2 - 0.1, n_angles):
        closed = math.pi**2 / (math.sin(alpha) * math.cos(alpha))
        worst_i = max(worst_i, abs(compute_I_alpha(alpha) - closed) / closed)
    gate.check(worst_i <= 1e-12, f"max I rel err = {worst_i:.2e}")

    lo, hi = math.sqrt(2.0) + 1e-6, 2.0 + 1e-9
    worst_gap = 0.0
    for ell in range(2, ell_max_c + 1):
        gate.check(compute_C(ell, 0) == 1.0, f"C[{ell},0] != 1")
        for r in range(1, ell):
            c = compute_C(ell, r)
            gate.check(lo < c <= hi, f"C[{ell},{r}] = {c:.8f} outside (sqrt2, 2]")
            gate.check(ell > ell_max_j or c >= math.hypot(1.0, compute_J(ell, r)) - 1e-6,
                       f"C[{ell},{r}] = {c:.8f} below the Jensen bound")
            gate.check(abs(c - compute_C(ell, ell - r)) <= 1e-9,
                       f"C[{ell},{r}] != C[{ell},{ell - r}]")
            gap = grading_gap("C", ell, r)
            gate.check(gap <= 1e-12, f"C[{ell},{r}] grading gap {gap:.2e}")
            worst_gap = max(worst_gap, gap)
        gap = grading_gap("K", ell)
        gate.check(gap <= 1e-12, f"K[{ell}] grading gap {gap:.2e}")
        worst_gap = max(worst_gap, gap)
    return gate.result(
        f"|J-1| <= {worst_j:.1e} (ell <= {ell_max_j}); I identity rel "
        f"{worst_i:.1e} on {n_angles} angles; all C in (sqrt2, 2] with "
        f"complement symmetry (ell <= {ell_max_c}); C and K move by <= "
        f"{worst_gap:.1e} one grading level deeper, K also on twice the panels "
        "(gate 1e-12)")


# ---------------------------------------------------------------------------
# 6. i.i.d. baseline 2n/sqrt(3)
# ---------------------------------------------------------------------------


def iid_baseline(quick: bool = False) -> CriterionResult:
    """Quadrature at n=200 within 1e-9 relative of the exact i.i.d. law
    2 sqrt(n (2n+1)/6); Monte Carlo at n=100 within 2% of 2n/sqrt(3)."""
    gate = _Gate("iid-baseline")
    trials = 200 if quick else 2000
    n_quad = 200
    sample = sample_coefficients(CoefficientModel(kind="trig", dep="iid"), n_quad, seed=0)
    quad = expected_zeros_quadrature(sample).total()
    exact = expected_zeros_exact_r0(n_quad, n_quad + 1)
    quad_rel = abs(quad - exact) / exact
    gate.check(quad_rel <= 1e-9, f"quadrature {quad:.6f} vs exact law {exact:.6f}: "
                                 f"rel {quad_rel:.2e} > 1e-9")

    n_mc = 100
    target = 2.0 * n_mc / math.sqrt(3.0)
    mc_rel = math.nan
    row = gate.row(f"n={n_mc}", trials, degrees=(n_mc,), master_seed=2030)
    if row:
        mc_rel = abs(row.empirical_mean - target) / target
        gate.check(mc_rel <= 0.02, f"Monte Carlo mean {row.empirical_mean:.3f} vs "
                                   f"2n/sqrt3 {target:.3f}: rel {mc_rel:.5f} > 0.02")
    return gate.result(
        f"quadrature vs exact law rel {quad_rel:.2e} (<= 1e-9) at n={n_quad}; Monte "
        f"Carlo rel {mc_rel:.5f} (<= 0.02) over {trials} trials at n={n_mc}")


# ---------------------------------------------------------------------------
# 7. the factorization T_n = phi_m * T* of r = 0 samples
# ---------------------------------------------------------------------------


def _numerator_residual(sample, x) -> float:
    """The largest relative residual of the lattice numerator
    W = 2 sin(ell x/2) T (trigpoly.numerator_jet, 2 ell sinusoids) against
    dense evaluate times 2 sin(ell x/2) at x, relative to max(|W|, 1)."""
    dense = 2.0 * np.sin(0.5 * sample.split.ell * x) * evaluate(sample, x)
    return float(np.max(np.abs(numerator_jet(sample, x, order=0)[0] - dense)
                        / np.maximum(np.abs(dense), 1.0)))


def factorization_residuals(quick: bool = False) -> CriterionResult:
    """T_n = phi_m * T*, T* from the r = 0 counts' carrier phase and
    W = 2 sin(ell x/2) T_n, to 1e-10.

    On each periodic sample (ell in 1..6, m in 2..40, both kinds), dense
    evaluate must match dirichlet_pair's phi_m times reduce_periodic's T*
    at random points, beside every lattice point 2 pi k/ell (inside the
    series window) and at some of the deterministic zeros, relative to
    max(|T|, 1); deterministic_zero_set must hold n+1-ell points; and
    carrier_phase(sample) must give back T* as 2^e |P(e^{ix})| cos theta(x).
    A sample whose zero set has the wrong size skips its residuals.  The
    lattice numerator W of the r != 0 counts (trigpoly.numerator_jet)
    must match 2 sin(ell x/2) times dense evaluate, relative to
    max(|W|, 1), at the same points on these samples and, on as many
    samples with r != 0 (ell in 2..6, m in 1..40, both kinds), at random
    points and beside every lattice point.
    """
    gate = _Gate("factorization-residuals")
    n_samples = 25 if quick else 100
    rng = np.random.default_rng(np.random.Philox(key=2031))
    worst_split = worst_phase = worst_numerator = 0.0
    for _ in range(n_samples):
        ell = int(rng.integers(1, 7))
        m = int(rng.integers(2, 41))
        kind = ("trig", "cosine")[int(rng.integers(0, 2))]
        model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
        sample = sample_coefficients(model, ell * m - 1, seed=int(rng.integers(2**32)))
        red = reduce_periodic(sample)
        zs = deterministic_zero_set(m, ell)
        family = f"{kind} ell={ell}, m={m}"
        if not gate.check(zs.size == sample.n + 1 - ell,
                          f"{family}: {zs.size} deterministic zeros, "
                          f"expected {sample.n + 1 - ell}"):
            continue
        x = np.concatenate([
            rng.uniform(0.0, 2.0 * math.pi, 50),
            2.0 * math.pi * np.arange(ell + 1) / ell + 1e-9,
            rng.choice(zs, 5),
        ])
        dense = evaluate(sample, x)
        reduced = red.evaluate(x)
        split = dirichlet_pair(m, ell, x)[0] * reduced
        res_split = float(np.max(np.abs(dense - split) / np.maximum(np.abs(dense), 1.0)))
        phase = carrier_phase(sample)
        carrier = np.ldexp(np.abs(np.polyval(phase.coeffs[::-1], np.exp(1j * x)))
                           * np.cos(phase(x)), phase.exponent)
        res_phase = float(np.max(np.abs(reduced - carrier) / np.maximum(np.abs(reduced), 1.0)))
        res_numerator = _numerator_residual(sample, x)
        gate.check(res_split <= 1e-10, f"{family}: phi_m T* residual {res_split:.2e}")
        gate.check(res_phase <= 1e-10, f"{family}: carrier phase residual {res_phase:.2e}")
        gate.check(res_numerator <= 1e-10, f"{family}: W residual {res_numerator:.2e}")
        worst_split = max(worst_split, res_split)
        worst_phase = max(worst_phase, res_phase)
        worst_numerator = max(worst_numerator, res_numerator)
    # r != 0 samples from a stream of their own, so that the draws above
    # stay those of the phi_m T* checks
    rng = np.random.default_rng(np.random.Philox(key=2032))
    for _ in range(n_samples):
        ell = int(rng.integers(2, 7))
        m = int(rng.integers(1, 41))
        r = int(rng.integers(1, ell))
        kind = ("trig", "cosine")[int(rng.integers(0, 2))]
        model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
        sample = sample_coefficients(model, ell * m - 1 + r, seed=int(rng.integers(2**32)))
        lattice = 2.0 * math.pi * np.arange(ell + 1) / ell
        x = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 50), lattice + 1e-9, lattice - 1e-9])
        res_numerator = _numerator_residual(sample, x)
        gate.check(res_numerator <= 1e-10,
                   f"{kind} ell={ell}, m={m}, r={r}: W residual {res_numerator:.2e}")
        worst_numerator = max(worst_numerator, res_numerator)
    return gate.result(
        f"max relative residual of phi_m T* {worst_split:.2e}, of the carrier "
        f"phase {worst_phase:.2e}, of W {worst_numerator:.2e} (<= 1e-10) over "
        f"{n_samples} samples and {n_samples} with r != 0; "
        f"deterministic zero counts all n+1-ell")


# ---------------------------------------------------------------------------
# 8. micro-identities behind the closed forms
# ---------------------------------------------------------------------------


def micro_identities(quick: bool = False) -> CriterionResult:
    """The Dirichlet kernel against literal sums, the shifted sin^2
    identity, Cauchy-Schwarz for the covariance triple of the Kac-Rice
    routes, sigma-invariance, and the forced-zero count of the Dirichlet
    ratio."""
    gate = _Gate("micro-identities")
    cases = 60 if quick else 300
    rng = np.random.default_rng(np.random.Philox(key=2032))

    # dirichlet_pair at ell = 2p against phi_r = sum_t cos((t - (r-1)/2) ell x)
    # and its termwise derivative, at random points and the zeros of sin(px);
    # the errors are in units of r and r^3 ell
    worst_val = worst_der = 0.0
    for _ in range(cases):
        r = int(rng.integers(1, 9))
        p = int(rng.integers(1, 7))
        x = np.concatenate([
            rng.uniform(0.0, 2.0 * math.pi, 40),
            math.pi * rng.integers(0, 2 * p + 1, 8) / p,  # sin(px) zeros
        ])
        freqs = 2.0 * p * (np.arange(r) - 0.5 * (r - 1))
        angles = x[:, None] * freqs[None, :]
        phi, phid = dirichlet_pair(r, 2 * p, x)
        lit, lit_d = np.cos(angles).sum(axis=1), -(freqs * np.sin(angles)).sum(axis=1)
        worst_val = max(worst_val, float(np.max(np.abs(phi - lit))) / r)
        worst_der = max(worst_der, float(np.max(np.abs(phid - lit_d))) / (r**3 * 2 * p))
    gate.check(worst_val <= 1e-11, f"dirichlet_pair off by {worst_val:.2e} r")
    gate.check(worst_der <= 1e-9, f"dirichlet_pair's derivative off by {worst_der:.2e} r^3 ell")

    # sin^2 a + sin^2 b + 2 sin a sin b cos(a+b) = sin^2(a+b)
    a = rng.uniform(-10.0, 10.0, 500)
    b = rng.uniform(-10.0, 10.0, 500)
    lhs = np.sin(a) ** 2 + np.sin(b) ** 2 + 2 * np.sin(a) * np.sin(b) * np.cos(a + b)
    worst_pair = float(np.max(np.abs(lhs - np.sin(a + b) ** 2)))
    gate.check(worst_pair <= 1e-12, f"sin^2 identity off by {worst_pair:.2e}")

    # Cauchy-Schwarz: AC - B^2 >= 0 up to roundoff on the Kac-Rice routes,
    # abc_closed on every model and abc_reduced on the r = 0 one
    x = np.linspace(1e-3, 2.0 * math.pi - 1e-3, 400)
    worst_cs = 0.0
    for model, n, routes in (
        (CoefficientModel(kind="trig", dep="iid"), 40, (abc_closed,)),
        (CoefficientModel(kind="cosine", dep="iid"), 40, (abc_closed,)),
        (CoefficientModel(kind="trig", dep="periodic", ell=3), 100, (abc_closed,)),
        (CoefficientModel(kind="cosine", dep="periodic", ell=4), 99,
         (abc_closed, abc_reduced)),
    ):
        sample = sample_coefficients(model, n, seed=5)
        for route in routes:
            t = route(sample, x)
            disc = t.A * t.C - t.B * t.B
            rel = disc / np.maximum(t.A * t.C, 1.0)
            worst_cs = min(worst_cs, float(np.min(rel)))
    gate.check(worst_cs >= -1e-12, f"AC - B^2 dips to {worst_cs:.2e} of scale")

    # the expected count cannot depend on the coefficient scale
    v1, v4, vo = (
        expected_zeros_quadrature(sample_coefficients(
            CoefficientModel(kind="trig", dep="periodic", ell=3, sigma=sigma), 100, seed=1
        )).value
        for sigma in (1.0, 4.0, 1.7)
    )
    gate.check(v1 == v4 and abs(vo - v1) <= 1e-12 * v1,
               f"sigma leaks into the expected count: {v1!r} vs {v4!r} vs {vo!r}")

    # forced zeros of the Dirichlet ratio: exactly ell(m-1) per period
    for _ in range(20):
        ell = int(rng.integers(1, 7))
        m = int(rng.integers(2, 30))
        zs = deterministic_zero_set(m, ell)
        gate.check(zs.size == ell * (m - 1),
                   f"ell={ell}, m={m}: {zs.size} forced zeros, expected {ell * (m - 1)}")
        gate.check(not zs.size or np.max(np.abs(dirichlet_pair(m, ell, zs)[0])) <= 1e-9 * m,
                   f"ell={ell}, m={m}: forced zeros do not kill the ratio")

    return gate.result(
        f"dirichlet_pair {worst_val:.1e} r, derivative {worst_der:.1e} r^3 ell; "
        f"paired-angle identity {worst_pair:.1e}; "
        f"min(AC-B^2)/AC {worst_cs:.1e}; sigma-invariance bit-exact at "
        f"sigma=4; forced-zero counts all ell(m-1)")


# ---------------------------------------------------------------------------


_CRITERIA = (
    exact_mean_full_blocks,
    full_period_degeneracy,
    cosine_gap_order,
    linear_growth_constant,
    constant_identities,
    iid_baseline,
    factorization_residuals,
    micro_identities,
)


def run_all(quick: bool = False) -> list:
    """Run every criterion; exceptions become failed results, so one broken
    criterion cannot hide the rest."""
    results = []
    for criterion in _CRITERIA:
        try:
            results.append(criterion(quick))
        except Exception as exc:  # noqa: BLE001 - report, don't abort the battery
            name = criterion.__name__.replace("_", "-")
            results.append(CriterionResult(name, False, f"raised {exc!r}"))
    return results
