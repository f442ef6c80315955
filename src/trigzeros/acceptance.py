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
  6. the i.i.d. baseline 2n/sqrt(3);
  7. the factorization T_n = phi_m * T* behind the deterministic zeros,
     on the functions the r = 0 counts run through;
  8. micro-identities the closed forms rely on, checked on the kernel
     and the covariance routes that every Kac-Rice total uses.

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
from .trigpoly import dirichlet_pair, evaluate, reduce_periodic
from .zeros import carrier_phase, deterministic_zero_set


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _experiment(trials, **kwargs):
    return run_experiment(ExperimentConfig(trials=trials, **kwargs))


# ---------------------------------------------------------------------------
# 1. exact mean for full-block periodic trig ensembles
# ---------------------------------------------------------------------------


def exact_mean_full_blocks(quick: bool = False) -> CriterionResult:
    """Mean zero count of r = 0 trig ensembles equals the closed form.

    Checked two ways per (ell, n): the Monte Carlo mean must sit within
    3 standard errors of (n+1-ell) + sqrt(n^2 + (ell^2-1)/3), and the
    Kac-Rice quadrature must reproduce the same number to 1e-9 relative.
    """
    trials = 200 if quick else 2000
    worst_z = 0.0
    worst_quad = 0.0
    for ell, n in ((2, 199), (3, 299), (5, 499)):
        exact = expected_zeros_exact_r0(n, ell)

        report = _experiment(trials, dep="periodic", ell=ell, degrees=(n,),
                             master_seed=2026)
        (row,) = report.rows
        if row.failed or row.stderr is None or row.stderr == 0.0:
            return CriterionResult(
                "exact-mean-full-blocks", False,
                f"(ell={ell}, n={n}): {row.unstable} unstable trials",
            )
        z = abs(row.empirical_mean - exact) / row.stderr
        worst_z = max(worst_z, z)

        sample = sample_coefficients(
            CoefficientModel(kind="trig", dep="periodic", ell=ell), n, seed=0
        )
        quad = expected_zeros_quadrature(sample).total()
        worst_quad = max(worst_quad, abs(quad - exact) / exact)

    passed = worst_z <= 3.0 and worst_quad <= 1e-9
    return CriterionResult(
        "exact-mean-full-blocks", passed,
        f"max |z| {worst_z:.2f} (<= 3) over {trials} trials x 3 families; "
        f"quadrature vs closed form rel {worst_quad:.2e} (<= 1e-9)",
    )


# ---------------------------------------------------------------------------
# 2. period 1: every sample has exactly 2n zeros
# ---------------------------------------------------------------------------


def full_period_degeneracy(quick: bool = False) -> CriterionResult:
    """With ell = 1 all coefficients coincide and the count is always 2n."""
    trials = 50 if quick else 200
    for n in (20, 50, 100):
        report = _experiment(trials, dep="periodic", ell=1, degrees=(n,),
                             master_seed=2027)
        (row,) = report.rows
        if row.unstable or row.empirical_mean != 2 * n or row.stddev != 0.0:
            return CriterionResult(
                "full-period-degeneracy", False,
                f"n={n}: mean {row.empirical_mean}, stddev {row.stddev}, "
                f"{row.unstable} unstable",
            )
    return CriterionResult(
        "full-period-degeneracy", True,
        f"exactly 2n zeros with zero variance, {trials} trials at "
        f"n in (20, 50, 100)",
    )


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
    trials = 100 if quick else 800
    ell = 3
    details = []
    for n in (299, 599, 1199):
        report = _experiment(trials, kind="cosine", dep="periodic", ell=ell,
                             degrees=(n,), master_seed=2028)
        (row,) = report.rows
        if row.failed:
            return CriterionResult(
                "cosine-gap-order", False,
                f"n={n}: {row.unstable} unstable trials",
            )
        lo = 2 * n + 1 - ell - 3 * row.stderr
        hi = 2 * n + 3 * row.stderr
        details.append(f"n={n}: mean {row.empirical_mean:.3f} in "
                       f"[{2 * n + 1 - ell}, {2 * n}] +- {3 * row.stderr:.3f}")
        if not lo <= row.empirical_mean <= hi:
            return CriterionResult(
                "cosine-gap-order", False,
                f"n={n}: mean {row.empirical_mean:.3f} outside "
                f"[{lo:.3f}, {hi:.3f}]",
            )
    return CriterionResult("cosine-gap-order", True, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. partial blocks: linear growth with slope C[ell, r]
# ---------------------------------------------------------------------------


def linear_growth_constant(quick: bool = False) -> CriterionResult:
    """mean/n matches compute_C(ell, r) within max(3 stderr/n, 0.01).

    compute_C itself is cross-checked against the Monte Carlo double
    integral before being trusted as the reference.
    """
    trials = 200 if quick else 2000
    mc_points = 100_000 if quick else 400_000
    worst_dev = 0.0
    for ell, r, n in ((2, 1, 400), (3, 1, 399), (3, 2, 400)):
        c_quad = compute_C(ell, r)
        c_mc, c_se = monte_carlo_C(ell, r, n_points=mc_points, seed=2029)
        if abs(c_mc - c_quad) > 4.0 * c_se + 1e-3:
            return CriterionResult(
                "linear-growth-constant", False,
                f"C[{ell},{r}]: quadrature {c_quad:.6f} vs Monte Carlo "
                f"{c_mc:.6f} +- {c_se:.1e} disagree",
            )

        report = _experiment(trials, dep="periodic", ell=ell, degrees=(n,),
                             master_seed=2026)
        (row,) = report.rows
        if row.failed:
            return CriterionResult(
                "linear-growth-constant", False,
                f"(ell={ell}, r={r}, n={n}): {row.unstable} unstable trials",
            )
        dev = abs(row.empirical_mean / n - c_quad)
        allowed = max(3.0 * row.stderr / n, 0.01)
        if dev > allowed:
            return CriterionResult(
                "linear-growth-constant", False,
                f"(ell={ell}, r={r}, n={n}): mean/n {row.empirical_mean / n:.5f} "
                f"vs C {c_quad:.5f}, |dev| {dev:.5f} > {allowed:.5f}",
            )
        worst_dev = max(worst_dev, dev)
    return CriterionResult(
        "linear-growth-constant", True,
        f"max |mean/n - C| {worst_dev:.4f} within tolerance over 3 families, "
        f"{trials} trials each; C confirmed by Monte Carlo oracle",
    )


# ---------------------------------------------------------------------------
# 5. limit-constant identities and bounds
# ---------------------------------------------------------------------------


def constant_identities(quick: bool = False) -> CriterionResult:
    """J = 1, the alpha-integral closed form, the range of C, and C and K
    within 1e-12 of their rules one grading level deeper."""
    ell_max_c = 5 if quick else 8
    ell_max_j = 4 if quick else 6
    n_angles = 8 if quick else 20

    def fail(detail):
        return CriterionResult("constant-identities", False, detail)

    worst_j = max(abs(compute_J(ell, r) - 1.0)
                  for ell in range(2, ell_max_j + 1) for r in range(1, ell))
    if worst_j > 1e-12:
        return fail(f"max |J - 1| = {worst_j:.2e}")

    worst_i = 0.0
    for alpha in np.linspace(0.1, math.pi / 2 - 0.1, n_angles):
        closed = math.pi**2 / (math.sin(alpha) * math.cos(alpha))
        worst_i = max(worst_i, abs(compute_I_alpha(alpha) - closed) / closed)
    if worst_i > 1e-12:
        return fail(f"max I rel err = {worst_i:.2e}")

    lo, hi = math.sqrt(2.0) + 1e-6, 2.0 + 1e-9
    worst_gap = 0.0
    for ell in range(2, ell_max_c + 1):
        if compute_C(ell, 0) != 1.0:
            return fail(f"C[{ell},0] != 1")
        for r in range(1, ell):
            c = compute_C(ell, r)
            if not lo < c <= hi:
                return fail(f"C[{ell},{r}] = {c:.8f} outside (sqrt2, 2]")
            if ell <= ell_max_j and c < math.hypot(1.0, compute_J(ell, r)) - 1e-6:
                return fail(f"C[{ell},{r}] = {c:.8f} below the Jensen bound")
            if abs(c - compute_C(ell, ell - r)) > 1e-9:
                return fail(f"C[{ell},{r}] != C[{ell},{ell - r}]")
            worst_gap = max(worst_gap, grading_gap("C", ell, r))
        worst_gap = max(worst_gap, grading_gap("K", ell))
    return CriterionResult(
        "constant-identities", worst_gap <= 1e-12,
        f"|J-1| <= {worst_j:.1e} (ell <= {ell_max_j}); I identity rel "
        f"{worst_i:.1e} on {n_angles} angles; all C in (sqrt2, 2] with "
        f"complement symmetry (ell <= {ell_max_c}); C and K move by <= "
        f"{worst_gap:.1e} one grading level deeper (gate 1e-12)",
    )


# ---------------------------------------------------------------------------
# 6. i.i.d. baseline 2n/sqrt(3)
# ---------------------------------------------------------------------------


def iid_baseline(quick: bool = False) -> CriterionResult:
    """Quadrature at n=200 within 0.5% of 2n/sqrt(3); Monte Carlo at
    n=100 within 2%."""
    trials = 200 if quick else 2000
    n_quad = 200
    sample = sample_coefficients(
        CoefficientModel(kind="trig", dep="iid"), n_quad, seed=0
    )
    quad = expected_zeros_quadrature(sample).total()
    target = 2.0 * n_quad / math.sqrt(3.0)
    quad_rel = abs(quad - target) / target
    if quad_rel > 0.005:
        return CriterionResult(
            "iid-baseline", False,
            f"quadrature {quad:.3f} vs 2n/sqrt3 {target:.3f}: rel "
            f"{quad_rel:.4f} > 0.005",
        )

    n_mc = 100
    report = _experiment(trials, degrees=(n_mc,), master_seed=2030)
    (row,) = report.rows
    target_mc = 2.0 * n_mc / math.sqrt(3.0)
    mc_rel = abs(row.empirical_mean - target_mc) / target_mc
    passed = not row.failed and mc_rel <= 0.02
    return CriterionResult(
        "iid-baseline", passed,
        f"quadrature rel {quad_rel:.5f} (<= 0.005) at n={n_quad}; Monte "
        f"Carlo rel {mc_rel:.5f} (<= 0.02) over {trials} trials at n={n_mc}",
    )


# ---------------------------------------------------------------------------
# 7. the factorization T_n = phi_m * T* of r = 0 samples
# ---------------------------------------------------------------------------


def factorization_residuals(quick: bool = False) -> CriterionResult:
    """T_n = phi_m * T* to 1e-10 relative on the r = 0 counting path.

    On each periodic sample (ell in 1..6, m in 2..40, both kinds), dense
    evaluate must match dirichlet_pair's phi_m times reduce_periodic's T*
    at random points, beside every lattice point 2 pi k/ell (inside the
    series window) and at some of the deterministic zeros, relative to
    max(|T|, 1); deterministic_zero_set must hold n+1-ell points; and
    carrier_phase must give back T* as 2^e |P(e^{ix})| cos theta(x).
    """
    n_samples = 25 if quick else 100
    rng = np.random.default_rng(np.random.Philox(key=2031))
    worst_split = worst_phase = 0.0
    for _ in range(n_samples):
        ell = int(rng.integers(1, 7))
        m = int(rng.integers(2, 41))
        kind = ("trig", "cosine")[int(rng.integers(0, 2))]
        model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
        sample = sample_coefficients(model, ell * m - 1, seed=int(rng.integers(2**32)))
        red = reduce_periodic(sample)
        zs = deterministic_zero_set(m, ell)
        if zs.size != sample.n + 1 - ell:
            return CriterionResult(
                "factorization-residuals", False,
                f"{kind} ell={ell}, m={m}: {zs.size} deterministic zeros, "
                f"expected {sample.n + 1 - ell}",
            )
        x = np.concatenate([
            rng.uniform(0.0, 2.0 * math.pi, 50),
            2.0 * math.pi * np.arange(ell + 1) / ell + 1e-9,
            rng.choice(zs, 5),
        ])
        dense = evaluate(sample, x)
        reduced = red.evaluate(x)
        split = dirichlet_pair(m, ell, x)[0] * reduced
        worst_split = max(worst_split, float(np.max(
            np.abs(dense - split) / np.maximum(np.abs(dense), 1.0))))
        phase = carrier_phase(red)
        carrier = np.ldexp(np.abs(np.polyval(phase.coeffs[::-1], np.exp(1j * x)))
                           * np.cos(phase(x)), phase.exponent)
        worst_phase = max(worst_phase, float(np.max(
            np.abs(reduced - carrier) / np.maximum(np.abs(reduced), 1.0))))
    return CriterionResult(
        "factorization-residuals", max(worst_split, worst_phase) <= 1e-10,
        f"max relative residual of phi_m T* {worst_split:.2e}, of the carrier "
        f"phase {worst_phase:.2e} (<= 1e-10) over {n_samples} samples; "
        f"deterministic zero counts all n+1-ell",
    )


# ---------------------------------------------------------------------------
# 8. micro-identities behind the closed forms
# ---------------------------------------------------------------------------


def micro_identities(quick: bool = False) -> CriterionResult:
    """The Dirichlet kernel against literal sums, the shifted sin^2
    identity, Cauchy-Schwarz for the covariance triple of the Kac-Rice
    routes, sigma-invariance, and the forced-zero count of the Dirichlet
    ratio."""
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
    if worst_val > 1e-11 or worst_der > 1e-9:
        return CriterionResult(
            "micro-identities", False,
            f"dirichlet_pair off by {worst_val:.2e} r, its derivative by "
            f"{worst_der:.2e} r^3 ell",
        )

    # sin^2 a + sin^2 b + 2 sin a sin b cos(a+b) = sin^2(a+b)
    a = rng.uniform(-10.0, 10.0, 500)
    b = rng.uniform(-10.0, 10.0, 500)
    lhs = np.sin(a) ** 2 + np.sin(b) ** 2 + 2 * np.sin(a) * np.sin(b) * np.cos(a + b)
    worst_pair = float(np.max(np.abs(lhs - np.sin(a + b) ** 2)))
    if worst_pair > 1e-12:
        return CriterionResult(
            "micro-identities", False, f"sin^2 identity off by {worst_pair:.2e}"
        )

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
    if worst_cs < -1e-12:
        return CriterionResult(
            "micro-identities", False,
            f"AC - B^2 dips to {worst_cs:.2e} of scale",
        )

    # the expected count cannot depend on the coefficient scale
    base = CoefficientModel(kind="trig", dep="periodic", ell=3, sigma=1.0)
    wide = CoefficientModel(kind="trig", dep="periodic", ell=3, sigma=4.0)
    odd = CoefficientModel(kind="trig", dep="periodic", ell=3, sigma=1.7)
    v1 = expected_zeros_quadrature(sample_coefficients(base, 100, seed=1)).value
    v4 = expected_zeros_quadrature(sample_coefficients(wide, 100, seed=1)).value
    vo = expected_zeros_quadrature(sample_coefficients(odd, 100, seed=1)).value
    if v1 != v4 or abs(vo - v1) > 1e-12 * v1:
        return CriterionResult(
            "micro-identities", False,
            f"sigma leaks into the expected count: {v1!r} vs {v4!r} vs {vo!r}",
        )

    # forced zeros of the Dirichlet ratio: exactly ell(m-1) per period
    for _ in range(20):
        ell = int(rng.integers(1, 7))
        m = int(rng.integers(2, 30))
        zs = deterministic_zero_set(m, ell)
        if zs.size != ell * (m - 1):
            return CriterionResult(
                "micro-identities", False,
                f"ell={ell}, m={m}: {zs.size} forced zeros, "
                f"expected {ell * (m - 1)}",
            )
        if zs.size and np.max(np.abs(dirichlet_pair(m, ell, zs)[0])) > 1e-9 * m:
            return CriterionResult(
                "micro-identities", False,
                f"ell={ell}, m={m}: forced zeros do not kill the ratio",
            )

    return CriterionResult(
        "micro-identities", True,
        f"dirichlet_pair {worst_val:.1e} r, derivative {worst_der:.1e} r^3 ell; "
        f"paired-angle identity {worst_pair:.1e}; "
        f"min(AC-B^2)/AC {worst_cs:.1e}; sigma-invariance bit-exact at "
        f"sigma=4; forced-zero counts all ell(m-1)",
    )


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
