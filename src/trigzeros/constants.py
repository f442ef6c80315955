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
              sqrt(1 + 3(1 - u_ell^2(s)) / (1 + u_ell(s) cos t)^2) ds dt,

  with u_ell(s) = sin(ell s)/(ell sin s).  K_1 = 1/2 exactly.

Both integrands are analytic except at isolated boundary corners where the
denominators vanish, where they behave like 1/distance.  Panels graded
dyadically toward every edge resolve them, but the error falls only like
2^-L in the grading depth L, not geometrically: relative to the L = 40
used here, C(3,1) is off by 2.6e-9 at L = 20 and by 2.5e-12 at L = 30.
``compute_J`` and ``compute_I_alpha`` evaluate the companion identities
(J = 1 and I_alpha = pi^2/(sin a cos a)) that pin down C's bounds and
double as end-to-end checks of the quadrature machinery: on the same
rule as C they land within 1e-14 relative of their exact values.

The quadrature is ``kacrice.composite_gauss_legendre`` with _NODES points
on graded panel edges, 2L + 1 panels per axis that mirror each other
about the midpoint.  The integrands of C, J and I_alpha are pi-periodic
in t, so the column shear x = t or x = s + t (mod pi) preserves measure
and turns the square into another square; the shear is chosen so that
the sharper zero line of the denominator lies on the panel edge x = 0,
and each integral is a plain tensor product.  The other sine comes from
the addition rule, so a node costs a few products and at most one square
root.  The sheared integrands keep the central symmetry (s, x) ->
(pi - s, pi - x), which the mirrored grid shares, so only the rows
s < pi/2 are summed.  K is integrated on the unsheared (s, t) grid.
Nodes are walked in row blocks of about _BLOCK_POINTS values, with s
passed as a column: s-only factors are computed once per row, and
memory stays at a few MB whatever the node count.  With use_cache (the
default) C and K are memoized for the life of the process; nothing is
written to disk.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .models import CoefficientModel, decompose_degree
from .kacrice import (
    _BLOCK_POINTS, _NODES, composite_gauss_legendre, expected_zeros_exact_r0,
)
from .trigpoly import u_ell

_GRADE_LEVELS = 40
# Monte Carlo points per block of u, v draws.  The block size sets the order
# in which the stream is consumed, so it is part of the estimate, not a knob.
_MC_CHUNK = 1_000_000


# ---------------------------------------------------------------------------
# Graded composite Gauss-Legendre grids
# ---------------------------------------------------------------------------


def _graded_edges(lo: float, hi: float, levels: int) -> np.ndarray:
    """Panel edges on [lo, hi], dyadically refined toward both endpoints:
    lo + width 2^-(levels+1), ..., lo + width/4 and their mirror images,
    so that the grid is symmetric about the midpoint."""
    left = lo + (hi - lo) * 0.5 ** np.arange(levels + 1, 1, -1)
    return np.concatenate([[lo], left, (lo + hi) - left[::-1], [hi]])


def _tensor_integral(func, s_range, t_range, levels: int, nodes: int) -> float:
    """integral of func(s, t) over s_range x t_range on the graded grid."""
    sx, sw = composite_gauss_legendre(_graded_edges(*s_range, levels), nodes)
    tx, tw = composite_gauss_legendre(_graded_edges(*t_range, levels), nodes)
    return _row_blocks(lambda s: func(s, tx), sx, sw, tw)


def _ridge_split_integral(func, levels: int, nodes: int) -> float:
    """integral over (0, pi)^2 of a sheared integrand func(s, x).

    func(s, x) is the integrand at (s, t) with x = t or x = s + t (mod pi),
    whichever column shear the integrand chose; both preserve measure on
    columns of a pi-periodic integrand, so the sheared square is a plain
    tensor product.  Precondition: func(s, x) == func(pi - s, pi - x).
    The mirror-symmetric graded grid shares that central symmetry, and an
    even node count puts no node on s = pi/2, so the rows s < pi/2 are
    summed and doubled.  The name is kept for the benchmark tracer, which
    wraps this function by name.
    """
    x, w = composite_gauss_legendre(_graded_edges(0.0, math.pi, levels), nodes)
    half = x.size // 2
    return 2.0 * _row_blocks(lambda s: func(s, x), x[:half], w[:half], w)


def _row_blocks(row_values, sx, sw, tw) -> float:
    """sw @ V @ tw for V = row_values(sx[:, None]), one block of rows at a time.

    row_values maps a column of s nodes to their rows of integrand values,
    so s-only factors are computed once per row and no block holds more
    than about _BLOCK_POINTS values.
    """
    rows = max(1, _BLOCK_POINTS // tw.size)
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
def _c_value(ell: int, r: int) -> float:
    value = _ridge_split_integral(
        lambda s, x: _sheared_g(ell, r, s, x), _GRADE_LEVELS, _NODES
    )
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


def _sheared_den(p: float, q: float, s, x):
    """p sin^2 t + q sin^2(s + t) on the sheared square, s a column.

    x = t when q < p, else x = s + t (mod pi): the zero line of the term
    with the smaller coefficient, the sharper of the two, lands on the
    panel edge x = 0.  The other sine follows from the addition rule,

        sin(s + t) = cos s (sin x + cos x tan s)    (x = t),
        sin t      = cos s (sin x - cos x tan s)    (x = s + t, up to sign),

    so a node costs three products and two sums, done in place in the one
    node-sized array allocated per call: a fresh temporary per product
    would cost more in page faults than the products.  Multiplying back
    by cos s leaves the rounding of the two-product form, even near
    s = pi/2.
    """
    ss, cs, sx, cx = np.sin(s), np.cos(s), np.sin(x), np.cos(x)
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


def _sheared_g(ell: int, r: int, s, x):
    """limit_integrand_g on the sheared square (see _sheared_den)."""
    v = _sheared_den(ell - r, r, s, x)
    v *= v
    np.divide(r * (ell - r) * np.sin(s) ** 2, v, out=v)
    v += 1.0
    return np.sqrt(v, out=v)


def _sheared_sine_ratio(p: float, q: float, s, x):
    """_sine_ratio_integrand on the sheared square (see _sheared_den)."""
    den = _sheared_den(p, q, s, x)
    return np.divide(np.sin(s), den, out=den)


def compute_J(ell: int, r: int) -> float:
    """Companion integral of compute_C; equals 1 for every 0 < r < ell."""
    if not 0 < r < ell:
        raise ValueError(f"need 0 < r < ell, got ell={ell}, r={r}")
    return math.sqrt(r * (ell - r)) * _sine_ratio_integral(ell - r, r) / math.pi**2


def compute_I_alpha(alpha: float) -> float:
    """int_0^pi int_0^pi sin s / (sin^2 a sin^2 t + cos^2 a sin^2(s+t)) ds dt.

    Equals pi^2 / (sin alpha cos alpha) for alpha in (0, pi/2).
    """
    if not 0.0 < alpha < math.pi / 2:
        raise ValueError("alpha must lie strictly inside (0, pi/2)")
    return _sine_ratio_integral(math.sin(alpha) ** 2, math.cos(alpha) ** 2)


def _sine_ratio_integral(p: float, q: float) -> float:
    """int_0^pi int_0^pi sin s / (p sin^2 t + q sin^2(s+t)) ds dt."""
    return _ridge_split_integral(
        lambda s, x: _sheared_sine_ratio(p, q, s, x), _GRADE_LEVELS, _NODES
    )


def _sine_ratio_integrand(p: float, q: float, s, t):
    """Integrand of J and I_alpha: sin s / (p sin^2 t + q sin^2(s+t))."""
    den = p * np.sin(t) ** 2 + q * np.sin(s + t) ** 2
    return np.sin(s) / np.maximum(den, 1e-300)


def compute_K(ell: int, use_cache: bool = True) -> float:
    """Palindromic-block cosine slope relative to 2n/sqrt(3); K_1 = 1/2."""
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if ell == 1:
        return 0.5  # u_1 == 1 makes the integrand identically 1
    return _k_value(ell) if use_cache else _k_value.__wrapped__(ell)


@functools.cache
def _k_value(ell: int) -> float:
    value = _tensor_integral(
        lambda s, t: _limit_integrand_k(ell, s, t),
        (0.0, math.pi / 2), (0.0, math.pi), _GRADE_LEVELS, _NODES,
    )
    return value / math.pi**2


def _limit_integrand_k(ell: int, s, t):
    """Integrand of K: sqrt(1 + 3(1 - u^2) / (1 + u cos t)^2), u = u_ell(s).

    Computed in place in one node-sized array, as the sheared integrands
    are: a temporary per operation costs more in page faults than the
    arithmetic.
    """
    u = u_ell(ell, s)
    v = u * np.cos(t)
    v += 1.0
    v *= v
    np.maximum(v, 1e-300, out=v)
    np.divide(3.0 * (1.0 - u * u), v, out=v)
    v += 1.0
    return np.sqrt(v, out=v)


def monte_carlo_C(ell: int, r: int, n_points: int = 10_000_000, seed: int = 0):
    """Monte Carlo estimate of compute_C with a trustworthy standard error.

    The raw integrand spikes like 1/distance at the square's corners, which
    makes its *second* moment diverge -- a plain uniform average would report
    an understated stderr.  Sampling instead in smoothstep coordinates

        s = pi (3u^2 - 2u^3),   ds = 6 pi u (1 - u) du,

    (same for t) compresses the corners; the Jacobian vanishes linearly at
    the ends and cancels the spike, leaving a bounded integrand whose sample
    variance is finite and the reported mean +/- stderr honest.
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

    Tags: "exact" marks a closed form valid at every degree; the O tags give
    the error order of the asymptotic approximation returned.
    """
    if model.dep == "iid":
        if model.kind == "trig":
            return 2.0 * math.sqrt(n * (2 * n + 1) / 6.0), "exact"
        return 2.0 * n / math.sqrt(3.0), "o(n)"

    dec = decompose_degree(n, model.ell)
    if dec.factors:
        if model.kind == "trig":
            return expected_zeros_exact_r0(n, dec.ell), "exact"
        return 2.0 * n, "exact" if dec.ell == 1 else "O(n^(2/3))"
    if dec.r == 0:
        # n + 1 = ell: the period exceeds the coefficient count, i.i.d. in disguise
        return theoretical_mean(
            CoefficientModel(kind=model.kind, dep="iid", sigma=model.sigma), n
        )
    if model.kind == "trig":
        return n * compute_C(dec.ell, dec.r), "O(n^(4/5))"
    raise ValueError(
        "no closed asymptotic is available for cosine polynomials with "
        f"partial trailing blocks (ell={model.ell}, n={n} leaves r={dec.r})"
    )
