"""Limit constants of the expected-zero asymptotics, and the theory table.

The two families of constants are double integrals over a period square:

* ``compute_C(ell, r)`` -- the slope of E[zeros]/n for the block-periodic
  trig model whose degree leaves remainder r != 0:

      C = (1/pi^2) * int_0^pi int_0^pi sqrt(1 + r(ell-r) sin^2 s /
              [(ell-r) sin^2 t + r sin^2(s+t)]^2) ds dt.

  For r = 0 the square root collapses to 1 and C = 1 exactly.

* ``compute_K(ell)`` -- the analogous slope (relative to 2n/sqrt(3)) for
  cosine polynomials with palindromically identified blocks of length ell:

      K = (1/pi^2) * int_{t=0}^{pi} int_{s=0}^{pi/2}
              sqrt(1 + 3(1 - u(s)^2) / (1 + u(s) cos t)^2) ds dt,

  with u(s) = sin(ell s)/(ell sin s).  K_1 = 1/2 exactly.

``compute_J`` and ``compute_I_alpha`` evaluate the companion identities
(J = 1 and I_alpha = pi^2/(sin a cos a)) that pin down C's bounds and
double as end-to-end checks of the quadrature.

Each integrand grows like 1/distance at one corner of the region that
is integrated (see _ridge_split_integral and _tensor_integral) and is
analytic elsewhere.  Duffy triangles with their apex there (M. G. Duffy,
SIAM J. Numer. Anal. 19, 1982) cancel the growth, and Gauss-Legendre
panels graded geometrically toward the apex resolve the bounded cone
that is left (see _graded_rule).  Sines and cosines are most of the
cost, so the sheared integrands of C, J and I_alpha take the phases
e^{is}, e^{ix} of their node rather than its angles, and the four
triangles of the ridge split share one sine and cosine per node.
``grading_gap``, the move of a constant one grading level deeper (for K
also on twice the panels), is at most 7e-15 for C (ell <= 8) and K
(ell = 2..8).  With use_cache (the default) C and K are memoized for
the life of the process.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .models import CoefficientModel
from .kacrice import _NODES, composite_gauss_legendre, expected_zeros_exact_r0

# Grading levels (toward xi = 0, toward eta = 0) of each corner rule; at
# these each rule agrees with an independent reference to about 1e-14
_C_GRADING = (9, 6)
_J_GRADING = (3, 3)
_K_GRADING = (6, 9)
# Integrand values per block of rows: 64 KB arrays that malloc reuses
_ROW_BLOCK = 1 << 13
# Monte Carlo points per block of u, v draws.  The block size sets the order
# in which the stream is consumed, so it is part of the estimate, not a knob.
_MC_CHUNK = 1_000_000
_H = math.pi / 2


# ---------------------------------------------------------------------------
# Duffy corner rules
# ---------------------------------------------------------------------------


def _graded_rule(grading, panels: int = 1):
    """Nodes and weights of the Duffy coordinates xi, eta in [0, 1], each
    axis graded geometrically toward 0 to the levels in `grading` (the
    error falls about eightfold per level) and split into at least
    `panels` equal panels; the xi weights carry the Jacobian factor xi."""
    def rule(levels):
        edges = {0.5**k for k in range(levels + 1)} | {k / panels for k in range(panels + 1)}
        return composite_gauss_legendre(np.array(sorted(edges)), _NODES)

    (xi, xi_w), (eta, eta_w) = rule(grading[0]), rule(grading[1])
    return xi, xi_w * xi, eta, eta_w


def _phase(theta):
    """e^{i theta}, its parts from np.cos and np.sin: np.exp of an
    imaginary argument need not round the same way."""
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


def _corner_triangles(func, grading, panels: int) -> float:
    """integral of func(s, t) over the square [0, h] x [pi - h, pi].

    The square is split into two Duffy triangles with apex (0, pi),
    (s, t) = (h xi, pi - h xi eta) and (h xi eta, pi - h xi) for (xi, eta)
    in the unit square, whose Jacobian h^2 xi cancels a 1/distance growth
    at the apex; _graded_rule resolves the cone left at xi = eta = 0.
    """
    xi, xi_w, eta, eta_w = _graded_rule(grading, panels)
    total = _row_blocks(lambda c: func(_H * c, math.pi - _H * c * eta), xi, xi_w, eta_w)
    total += _row_blocks(lambda c: func(_H * c * eta, math.pi - _H * c), xi, xi_w, eta_w)
    return _H * _H * total


def _ridge_split_integral(func, grading, ratio: float) -> float:
    """integral over (0, pi)^2 of a sheared integrand func(e^{is}, e^{ix}).

    func takes the phases of its node, not the angles: it is the integrand
    at (s, t) with x = t or x = s + t (mod pi), a shear that preserves
    measure on columns of a pi-periodic integrand.  Precondition:
    func(s, x) == func(pi - s, pi - x), and func is singular only at
    s = 0, x = 0 (mod pi).  So the half-square [0, pi/2] x [-pi/2, pi/2]
    is integrated on the four Duffy triangles at its one singular point,

        A+-: (s, x) = (h xi, +-h xi eta),   B+-: (s, x) = (h xi eta, +-h xi),

    and doubled.  Their angles are h xi per row and h xi eta per node, so
    one sine and cosine per node, u = e^{i h xi} and y = e^{i h xi eta},
    feed all four: A+- gets (u, y or conj y) and B+- gets (y, u or conj u).
    Each triangle keeps its own sum, so the value is the one of four
    separate passes to the last bit.  The ridge of p sin^2 t +
    q sin^2(s + t) has angular width ratio^(-1/2), ratio = max(p, q)/min(p,
    q), so ratios beyond 64 get one more angular level per factor 4.  The
    benchmark tracer replaces this function by name with a wrapper that
    counts the integrand's nodes, calling it as (func, grading, ratio) and
    forwarding func's two arguments, so the name and both call forms stay.
    """
    levels = (grading[0], grading[1] + max(0, math.ceil(math.log2(ratio) / 2) - 3))
    xi, xi_w, eta, eta_w = _graded_rule(levels)
    rows = max(1, _ROW_BLOCK // eta.size)
    sums = [0.0, 0.0, 0.0, 0.0]  # A+, B+, A-, B-
    for lo in range(0, xi.size, rows):
        hc = _H * xi[lo:lo + rows, None]
        u, y = _phase(hc), _phase(hc * eta)
        w = xi_w[lo:lo + rows]
        for k, vals in enumerate((func(u, y), func(y, u), func(u, y.conj()), func(y, u.conj()))):
            sums[k] += float(w @ (vals @ eta_w))
    return 2.0 * (_H * _H * (((sums[0] + sums[1]) + sums[2]) + sums[3]))


def _tensor_integral(func, grading, panels: int) -> float:
    """integral of func(s, t) over [0, pi/2] x [0, pi], singular only at (0, pi):
    Duffy triangles above t = pi/2, a tensor rule below, at least `panels`
    equal panels per axis.  The benchmark tracer wraps it by name."""
    x, w = composite_gauss_legendre(np.linspace(0.0, _H, panels + 1), _NODES)
    smooth = _row_blocks(lambda s: func(s, x), x, w, w)
    return smooth + _corner_triangles(func, grading, panels)


def _row_blocks(row_values, sx, sw, tw) -> float:
    """sw @ V @ tw for V = row_values(sx[:, None]), one block of rows at a
    time; per-row factors of the integrand are computed once per row."""
    rows = max(1, _ROW_BLOCK // tw.size)
    total = 0.0
    for lo in range(0, sx.size, rows):
        vals = row_values(sx[lo:lo + rows, None])
        total += float(sw[lo:lo + rows] @ (vals @ tw))
    return total


# ---------------------------------------------------------------------------
# The constants
# ---------------------------------------------------------------------------


def compute_C(ell: int, r: int, use_cache: bool = True) -> float:
    """Limit of E[zeros]/n for the ell-periodic trig model with remainder r."""
    if ell < 1 or not 0 <= r < ell:
        raise ValueError(f"need 0 <= r < ell, got ell={ell}, r={r}")
    if r == 0:
        return 1.0  # integrand is identically 1
    return _c_value(ell, r) if use_cache else _c_value.__wrapped__(ell, r)


@functools.cache
def _c_value(ell: int, r: int, grading=_C_GRADING) -> float:
    ratio = max(r, ell - r) / min(r, ell - r)
    value = _ridge_split_integral(lambda s, x: _sheared_g(ell, r, s, x), grading, ratio)
    return value / math.pi**2


def limit_integrand_g(ell: int, r: int, s, t) -> np.ndarray:
    """Integrand of the r != 0 trig limit constant on (0, pi)^2.

    g(s, t) = sqrt(1 + r (ell - r) sin^2 s / [(ell - r) sin^2 t
                                              + r sin^2(s + t)]^2).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    den = (ell - r) * np.sin(t) ** 2 + r * np.sin(s + t) ** 2
    den = np.maximum(den * den, 1e-300)
    return np.sqrt(1.0 + r * (ell - r) * np.sin(s) ** 2 / den)


def _sheared_den(p: float, q: float, es, ex):
    """p sin^2 t + q sin^2(s + t) on the sheared square, from the phases
    es = e^{is} and ex = e^{ix}.  x = t when q < p, else x = s + t (mod
    pi), so the zero line of the sharper term runs along x = 0; the other
    sine is

        sin(s + t) = cos s (sin x + cos x tan s)    (x = t),
        sin t      = cos s (sin x - cos x tan s)    (x = s + t, up to sign),

    computed in place in one node-sized array.
    """
    ss, cs, sx, cx = es.imag, es.real, ex.imag, ex.real
    if q < p:
        a, b, tan_s = q, p, ss / cs
    else:
        a, b, tan_s = p, q, -ss / cs
    den = cx * tan_s
    den += sx
    den *= math.sqrt(a) * cs  # sqrt(a) times the other sine
    den *= den
    den += b * (sx * sx)
    return den


def _sheared_g(ell: int, r: int, es, ex):
    """limit_integrand_g on the sheared square, at the phases es = e^{is}
    and ex = e^{ix} (see _sheared_den)."""
    ss = es.imag
    v = _sheared_den(ell - r, r, es, ex)
    v *= v
    np.divide(r * (ell - r) * (ss * ss), v, out=v)
    v += 1.0
    return np.sqrt(v, out=v)


def _sheared_sine_ratio(p: float, q: float, es, ex):
    """sin s / (p sin^2 t + q sin^2(s + t)), the integrand of J and
    I_alpha, on the sheared square at the phases es = e^{is} and
    ex = e^{ix} (see _sheared_den)."""
    den = _sheared_den(p, q, es, ex)
    return np.divide(es.imag, den, out=den)


def compute_J(ell: int, r: int) -> float:
    """Companion integral of compute_C; equals 1 for every 0 < r < ell."""
    if not 0 < r < ell:
        raise ValueError(f"need 0 < r < ell, got ell={ell}, r={r}")
    return _j_value(ell, r)


def _j_value(ell: int, r: int, grading=_J_GRADING) -> float:
    value = _ridge_split_integral(lambda s, x: _sheared_sine_ratio(ell - r, r, s, x), grading,
                                  max(r, ell - r) / min(r, ell - r))
    return math.sqrt(r * (ell - r)) * value / math.pi**2


def compute_I_alpha(alpha: float) -> float:
    """int_0^pi int_0^pi sin s / (sin^2 a sin^2 t + cos^2 a sin^2(s+t)) ds dt.

    Equals pi^2 / (sin alpha cos alpha) for alpha in (0, pi/2).
    """
    if not 0.0 < alpha < math.pi / 2:
        raise ValueError("alpha must lie strictly inside (0, pi/2)")
    p, q = math.sin(alpha) ** 2, math.cos(alpha) ** 2
    return _ridge_split_integral(lambda s, x: _sheared_sine_ratio(p, q, s, x), _J_GRADING,
                                 max(p, q) / min(p, q))


def compute_K(ell: int, use_cache: bool = True) -> float:
    """Palindromic-block cosine slope relative to 2n/sqrt(3); K_1 = 1/2."""
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if ell == 1:
        return 0.5  # u_1 == 1 makes the integrand identically 1
    return _k_value(ell) if use_cache else _k_value.__wrapped__(ell)


@functools.cache
def _k_value(ell: int, grading=_K_GRADING, panel_factor: int = 1) -> float:
    # 1 + ell // 3 panels keep the smooth square at rounding up to ell = 20
    value = _tensor_integral(lambda s, t: _limit_integrand_k(ell, s, t), grading,
                             panel_factor * (1 + ell // 3))
    return value / math.pi**2


def _limit_integrand_k(ell: int, s, t):
    """Integrand of K: sqrt(1 + 3(1 - u^2) / (1 + u cos t)^2) with
    u = u(s) = sin(ell s)/(ell sin s), on arrays s in [0, pi/2] and t.
    Near the corner (0, pi) both 1 - u^2 and 1 + u cos t cancel, so they
    come from d = 1 - u, as d (2 - d) and d + 2 u cos^2(t/2); where
    ell s < 1, d is summed from

        1 - u(s) = (2/ell) sum_{k=0}^{ell-1} sin^2((ell - 1 - 2k) s/2),

    whose terms pair up (k and ell - 1 - k).  Elsewhere d >= 0.12, and
    only there is the quotient formed.
    """
    near = ell * s < 1.0
    d = np.empty(s.shape)
    s_far = s[~near]
    d[~near] = 1.0 - np.sin(ell * s_far) / (ell * np.sin(s_far))
    s_near = s[near]
    acc = sum(np.sin((0.5 * (ell - 1) - k) * s_near) ** 2 for k in range(ell // 2))
    d[near] = (4.0 / ell) * acc
    v = (2.0 - 2.0 * d) * np.cos(0.5 * t) ** 2
    v += d
    v *= v
    np.maximum(v, 1e-300, out=v)
    np.divide(3.0 * d * (2.0 - d), v, out=v)
    v += 1.0
    return np.sqrt(v, out=v)


def grading_gap(what: str, ell: int, r: int = 0) -> float:
    """Stated error of C[ell, r], K[ell] or J[ell, r] (what = "C", "K" or
    "J", with 0 < r < ell and ell >= 2): its move when the corner rule is
    graded one level deeper on both axes, or for K, the larger of that
    and its move when its panels are doubled."""
    rule, (lr, la), args = {
        "C": (_c_value, _C_GRADING, (ell, r)),
        "K": (_k_value, _K_GRADING, (ell,)),
        "J": (_j_value, _J_GRADING, (ell, r)),
    }[what]
    value = rule(*args)
    gap = abs(value - rule(*args, (lr + 1, la + 1)))
    if what == "K":
        gap = max(gap, abs(value - rule(*args, _K_GRADING, 2)))
    return gap


def monte_carlo_C(ell: int, r: int, n_points: int = 10_000_000, seed: int = 0):
    """Monte Carlo estimate of compute_C with a trustworthy standard error.

    The integrand's 1/distance spikes at the corners make its second
    moment diverge, so a uniform average would understate its stderr.
    Sampling in smoothstep coordinates, s = pi (3u^2 - 2u^3) with
    ds = 6 pi u (1 - u) du (same for t), cancels the spike with a Jacobian
    that vanishes linearly at the ends: the sample variance is finite.
    Refuses n_points < 2, where the standard error would read 0.
    """
    if not 0 < r < ell:
        raise ValueError(f"need 0 < r < ell, got ell={ell}, r={r}")
    return _mc_smoothstep_square(
        lambda s, t: limit_integrand_g(ell, r, s, t), math.pi, math.pi, n_points, seed
    )


def monte_carlo_K(ell: int, n_points: int = 10_000_000, seed: int = 0):
    """Monte Carlo estimate of compute_K, same variance taming as above."""
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    return _mc_smoothstep_square(
        lambda s, t: _limit_integrand_k(ell, s, t), math.pi / 2, math.pi, n_points, seed
    )


def _mc_smoothstep_square(func, s_hi, t_hi, n_points, seed):
    if n_points < 2:  # one point carries no spread, so no stated error
        raise ValueError(f"need n_points >= 2, got {n_points}")
    rng = np.random.default_rng(np.random.Philox(key=seed & (2**64 - 1)))
    norm = s_hi * t_hi / math.pi**2
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_points:
        take = min(_MC_CHUNK, n_points - done)
        u = rng.uniform(0.0, 1.0, take)
        v = rng.uniform(0.0, 1.0, take)
        s = s_hi * (3.0 * u * u - 2.0 * u**3)
        t = t_hi * (3.0 * v * v - 2.0 * v**3)
        jac = 36.0 * u * (1.0 - u) * v * (1.0 - v)  # (6 u (1-u)) (6 v (1-v))
        vals = func(s, t) * (jac * norm)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += take
    mean = total / n_points
    var = max(total_sq / n_points - mean * mean, 0.0)
    stderr = math.sqrt(var / n_points)
    return mean, stderr


# ---------------------------------------------------------------------------
# Theory table
# ---------------------------------------------------------------------------


def theoretical_mean(model: CoefficientModel, n: int):
    """(expected zero count on (0, 2 pi), order tag of the approximation).

    Reads the split model.period(n), where i.i.d. is the vacuous period
    ell = n + 1.  Trig with r = 0, m = 1 (and so i.i.d.) included: the
    exact law expected_zeros_exact_r0.  Trig with r != 0: n C[ell, r].
    Cosine with ell = n + 1: the universal 2n/sqrt 3; with r = 0 and
    m >= 2: 2n, exact for ell = 1.

    Tags: "exact" marks a closed form valid at every degree; the O tags give
    the error order of the asymptotic approximation returned.
    """
    dec = model.period(n)
    if model.kind == "trig":
        if dec.r == 0:
            return expected_zeros_exact_r0(n, dec.ell), "exact"
        return n * compute_C(dec.ell, dec.r), "O(n^(4/5))"
    if dec.ell == n + 1:
        return 2.0 * n / math.sqrt(3.0), "o(n)"
    if dec.factors:
        return 2.0 * n, "exact" if dec.ell == 1 else "O(n^(2/3))"
    raise ValueError(
        "no closed asymptotic is available for cosine polynomials with "
        f"partial trailing blocks (ell={dec.ell}, n={n} leaves r={dec.r})"
    )
