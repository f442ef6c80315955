"""Zero counting: sign-change scans with grid-doubling stability, and an
exact phase count for the reduced factor of r = 0 samples.

Grid route (i.i.d. and r != 0)
------------------------------
A uniform open grid x_i = 2 pi (i + 1/2)/N is scanned for strict sign
changes; each change brackets one root.  The scan is circular: the wrap
cell (x_{N-1}, x_0 + 2 pi) is included so zeros beside the endpoints are
not lost.  The grid starts at N = smooth_size(max(256, grid_per_degree
* n)), the smallest 5-smooth size (no prime factor above 5) with at
least grid_per_degree nodes per degree, so the real FFT never meets an
awkward length; it doubles (staying 5-smooth) until the count is
unchanged across two consecutive doublings (stable=True) or a doubling
cap is hit (stable=False).  A node where the function is exactly 0.0
counts once by itself and joins no bracket (tie-break: attributed to
the cell on its left).  Each grid is counted in one pass over the sign
bits unless some node is exactly +-0.0; bracket indices are built only
for the final grid, and only when roots are requested.  The grid values
come from the spectral evaluator trigpoly.evaluate_on_grid; dense
summation at arbitrary points serves only root refinement.

Phase route (periodic, r = 0)
-----------------------------
Periodic r = 0 samples factor exactly as T_n = phi_m * T^*
(trigpoly.reduce_periodic).  They are not scanned raw: the deterministic
zeros of phi_m and the random zeros of T^* form two interleaved combs
with no repulsion between the families, so near-coincident pairs arise
that no affordable grid resolves.  The n+1-ell deterministic zeros are
known in closed form, and no grid is needed for T^* either.  With c_k = a_k - i b_k, P(z) = sum_{k<ell} c_k z^k and
f0 = (m-1) ell/2,

    T^*(x) = Re(e^{i f0 x} P(e^{ix})) = |P(e^{ix})| cos theta(x),

so the zeros of T^* are the solutions of theta = pi/2 (mod pi).  The
phase theta is continuous and is written from the roots of P without
unwrapping (CarrierPhase); it is monotone between the unit-circle roots
of one polynomial of degree 2 ell - 2 (z^(ell-1) times the numerator of
theta'), so the count is the number of levels pi/2 + k pi crossed on
each monotone piece: the argument principle (P. Henrici, Applied and
Computational Complex Analysis, vol. 1, 1974) made piecewise.  With no
breakpoint the count is 2(f0 + w), w the number of roots of P inside
the unit disk.  The count is exact unless a root of P lies within
delta = PHASE_MARGIN = 1e-9 of the unit circle, or a phase value at a
piece end lies within delta * max(1, |theta|) of a level (a relative
margin, since theta grows like n); only then is stable=False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import PolySample, decompose_degree
from .trigpoly import (
    ReducedSample,
    evaluate,
    evaluate_on_grid,
    grid_nodes,
    normalized_coefficients,
    reduce_periodic,
)

TWO_PI = 2.0 * np.pi

# phase route: a root of P within PHASE_MARGIN of the unit circle, or a
# phase value within PHASE_MARGIN * max(1, |theta|) of a level, marks the
# count unstable; roots of the breakpoint polynomial within
# BREAKPOINT_CUT of the unit circle split the phase into pieces (an
# extra breakpoint never changes the count)
PHASE_MARGIN = 1e-9
BREAKPOINT_CUT = 1e-6


@dataclass(frozen=True)
class ZeroCountReport:
    """Outcome of one counting run.

    count           zeros attributed to (0, 2 pi)
    grid_size       grid route: nodes in the final scan; phase route: 0
    doublings_used  grid route: grid doublings consumed by the stability
                    protocol; phase route: 0
    stable          grid route: count repeated across two consecutive
                    doublings; phase route: no root of P and no phase
                    value at a piece end within PHASE_MARGIN of the unit
                    circle or of a level, so the count is exact
    roots           refined abscissae, only when requested
    pieces          phase route: monotone pieces of the carrier phase
                    (>= 1); grid route: 0
    """

    count: int
    grid_size: int
    doublings_used: int
    stable: bool
    roots: Optional[np.ndarray] = None
    pieces: int = 0


def deterministic_zero_set(m: int, ell: int) -> np.ndarray:
    """Zeros of phi_m = sin(m ell x/2)/sin(ell x/2) in (0, 2 pi).

    These are 2 pi j/(m ell) for j = 1..m ell - 1 with m not dividing j
    (multiples of m are the lattice points where phi_m = +-m), giving
    ell(m-1) points.  Empty for m = 1.
    """
    if m < 1 or ell < 1:
        raise ValueError(f"need m >= 1 and ell >= 1, got m={m}, ell={ell}")
    j = np.arange(1, m * ell)
    j = j[(j % m) != 0]
    return TWO_PI * j / (m * ell)


def smooth_size(n: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) that is >= n."""
    n = max(int(n), 1)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _sign_changes(vals: np.ndarray) -> int:
    """Count strict sign changes on the circular grid, plus exact zeros.

    Without an exact-zero node this is one pass over the sign bits;
    otherwise the count is that of _brackets.
    """
    if np.isnan(vals).any():
        raise FloatingPointError("NaN encountered during grid evaluation")
    if not vals.all():
        brackets, zero_idx = _brackets(vals)
        return brackets.size + zero_idx.size
    neg = np.signbit(vals)
    return int(np.count_nonzero(neg[1:] != neg[:-1])) + int(neg[-1] != neg[0])


def _brackets(vals: np.ndarray):
    """(bracket_start_indices, exact_zero_indices) of _sign_changes.

    A node that is exactly +-0.0 counts once by itself and joins no
    bracket.
    """
    s = np.sign(vals)
    zero_idx = np.flatnonzero(s == 0.0)
    s_next = np.empty_like(s)
    s_next[:-1] = s[1:]
    s_next[-1] = s[0]
    return np.flatnonzero(s * s_next < 0), zero_idx


def _bisect_brackets(f: Callable, lo: np.ndarray, hi: np.ndarray, tol: float,
                     max_iter: int = 200) -> np.ndarray:
    """Vectorized bisection; each (lo_i, hi_i) must bracket a sign change."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    if lo.size == 0:
        return lo
    flo_sign = np.sign(np.atleast_1d(f(lo)))
    for _ in range(max_iter):
        if np.max(hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid_sign = np.sign(np.atleast_1d(f(mid)))
        exact = fmid_sign == 0.0
        left = flo_sign * fmid_sign < 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo_sign = np.where(left, flo_sign, fmid_sign)
        lo = np.where(exact, mid, lo)
        hi = np.where(exact, mid, hi)
    return 0.5 * (lo + hi)


def refine_root(sample: PolySample, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Bisection refinement of one bracketed root of the raw sample."""
    flo = evaluate(sample, lo)
    fhi = evaluate(sample, hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if np.sign(flo) == np.sign(fhi):
        raise ValueError(f"interval ({lo}, {hi}) does not bracket a sign change")
    root = _bisect_brackets(lambda x: evaluate(sample, x), np.array([lo]), np.array([hi]), tol)
    return float(root[0])


def _stabilized_scan(values_at: Callable, base_nodes: int, max_doublings: int):
    """Run the doubling protocol; returns (count, N, doublings, stable,
    final-grid values)."""
    N = int(base_nodes)
    vals = values_at(N)
    counts = [_sign_changes(vals)]
    doublings = 0
    stable = False
    while doublings < max_doublings:
        N *= 2
        vals = values_at(N)
        counts.append(_sign_changes(vals))
        doublings += 1
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            stable = True
            break
    return counts[-1], N, doublings, stable, vals


def _refine_on_grid(f: Callable, vals: np.ndarray, tol: float) -> np.ndarray:
    """Bisect the brackets of the final grid values; exact-zero nodes pass
    through as-is."""
    N = vals.size
    brackets, zero_idx = _brackets(vals)
    nodes = grid_nodes(N)
    lo = nodes[brackets]
    hi = np.where(brackets + 1 < N, nodes[(brackets + 1) % N], nodes[0] + TWO_PI)
    roots = _bisect_brackets(f, lo, hi, tol)
    roots = np.mod(roots, TWO_PI)
    if zero_idx.size:
        roots = np.concatenate([roots, nodes[zero_idx]])
    return np.sort(roots)


@dataclass(frozen=True)
class CarrierPhase:
    """The continuous phase theta of the reduced factor of an r = 0 sample.

    With c the normalized coefficients (trigpoly.normalized_coefficients,
    exponent e), P(z) = sum_k c_k z^k and f0 = (m-1) ell/2,

        T^*(x) = 2^e Re(e^{i f0 x} P(e^{ix})) = 2^e |P(e^{ix})| cos theta(x).

    Writing P = c_d prod (z - alpha) and w = #{|alpha| < 1},

        theta(x) = (f0 + w) x + arg c_d + sum_{|alpha|>1} arg(-alpha)
                   + sum_{|alpha|<1} Arg(1 - alpha e^{-ix})
                   + sum_{|alpha|>1} Arg(1 - e^{ix}/alpha);

    every Arg has its argument in the right half plane, so theta is
    continuous without unwrapping and theta(2 pi) = theta(0) + 2 pi (f0 + w).
    Fields: the roots of P split into inside and outside, and constant =
    arg c_d + sum_{|alpha|>1} arg(-alpha).
    """

    f0: float
    coeffs: np.ndarray
    exponent: int
    inside: np.ndarray
    outside: np.ndarray
    constant: float

    @property
    def slope(self) -> float:
        return self.f0 + self.inside.size

    @property
    def roots(self) -> np.ndarray:
        return np.concatenate([self.inside, self.outside])

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        theta = self.slope * x + self.constant
        if self.inside.size:
            theta += np.angle(1.0 - self.inside[:, None] * np.exp(-1j * x)).sum(axis=0)
        if self.outside.size:
            theta += np.angle(1.0 - np.exp(1j * x) / self.outside[:, None]).sum(axis=0)
        return theta

    def derivative(self, x) -> np.ndarray:
        """theta'(x) = f0 + Re(z P'(z) / P(z)) at z = e^{ix}."""
        z = np.exp(1j * np.asarray(x, dtype=float))
        c = self.coeffs
        p = np.polyval(c[::-1], z)
        zdp = np.polyval((np.arange(c.size) * c)[::-1], z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.f0 + (zdp / p).real

    def breakpoints(self) -> np.ndarray:
        """Sorted abscissae in [0, 2 pi) where theta' may change sign.

        theta' = f0 + Re(z P'/P) on z = e^{ix}; z^(ell-1) |P|^2 theta' is
        Q(z) = sum_{j,k} (f0 + (j+k)/2) c_j conj(c_k) z^(j-k+ell-1), so the
        breakpoints are the arguments of Q's roots within BREAKPOINT_CUT
        of the unit circle.
        """
        c = self.coeffs
        j = np.arange(c.size)
        c_rev = np.conj(c)[::-1]
        q = (self.f0 * np.convolve(c, c_rev) + 0.5 * np.convolve(j * c, c_rev)
             + 0.5 * np.convolve(c, (j * np.conj(c))[::-1]))
        z = np.roots(q[::-1])
        z = z[np.abs(np.abs(z) - 1.0) < BREAKPOINT_CUT]
        return np.sort(np.mod(np.angle(z), TWO_PI))


def carrier_phase(red: ReducedSample) -> CarrierPhase:
    """The CarrierPhase of a reduced factor, from the roots of P."""
    if not (np.isfinite(red.a).all() and np.isfinite(red.b).all()):
        raise FloatingPointError("non-finite coefficient in the reduced factor")
    c, e = normalized_coefficients(red.a, red.b)
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        raise RuntimeError(
            f"the reduced factor vanishes identically (every x is a zero); "
            f"model={red.model}, n={red.n}"
        )
    alpha = np.roots(c[::-1])
    inside = np.abs(alpha) < 1.0
    outside = alpha[~inside]
    constant = float(np.angle(c[nonzero[-1]]) + np.angle(-outside).sum())
    return CarrierPhase(f0=red.freq_twice[0] / 2.0, coeffs=c, exponent=e,
                        inside=alpha[inside], outside=outside, constant=constant)


def _phase_count(red: ReducedSample, want_roots: bool, tol: float):
    """(count, pieces, stable, roots) of the zeros of T^* on the circle.

    The pieces of [0, 2 pi] end at the breakpoints; on each, theta is
    monotone and the zeros are the levels pi/2 + k pi it crosses:
    |floor(theta_end/pi - 1/2) - floor(theta_start/pi - 1/2)| of them.
    Roots come from _newton_in_pieces on theta minus their level.
    """
    phase = carrier_phase(red)
    starts = np.concatenate([[0.0], phase.breakpoints()])
    theta = phase(starts)
    theta = np.append(theta, theta[0] + TWO_PI * phase.slope)
    levels = theta / np.pi - 0.5
    k = np.floor(levels)
    crossed = np.abs(np.diff(k)).astype(np.int64)
    count = int(crossed.sum())
    margin = PHASE_MARGIN * np.maximum(1.0, np.abs(theta))
    near_level = np.pi * np.abs(levels - np.rint(levels)) < margin
    near_circle = np.abs(np.abs(phase.roots) - 1.0) < PHASE_MARGIN
    stable = not (near_level.any() or near_circle.any())
    roots = None
    if want_roots:
        ends = np.append(starts, TWO_PI)
        piece = np.repeat(np.arange(crossed.size), crossed)
        # the i-th crossing of a piece is level floor(min) + 1 + i
        rank = np.arange(count) - np.repeat(np.cumsum(crossed) - crossed, crossed)
        target = np.pi * (np.minimum(k[:-1], k[1:])[piece] + 1.5 + rank)
        roots = _newton_in_pieces(phase, target, ends[piece], ends[piece + 1],
                                  theta[piece], theta[piece + 1], tol)
        roots = np.mod(roots, TWO_PI)
    return count, starts.size, stable, roots


def _newton_in_pieces(phase: CarrierPhase, target, lo, hi, theta_lo, theta_hi,
                      tol: float, max_iter: int = 200) -> np.ndarray:
    """Solve phase(x) = target inside each monotone piece (lo, hi).

    Safeguarded Newton (rtsafe): the start is the linear interpolation of
    the phase across the piece and every iterate shrinks the bracket; a
    step that would leave the bracket, or that is not under half the
    previous one, is replaced by bisection.  A root is final once its
    step is within tol, and only unfinished roots are iterated further.
    """
    rising = theta_hi > theta_lo
    x = lo + (target - theta_lo) / (theta_hi - theta_lo) * (hi - lo)
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    last = hi - lo
    out = np.empty_like(x)
    idx = np.arange(x.size)
    for _ in range(max_iter):
        g = phase(x) - target
        past = (g > 0.0) == rising
        hi = np.where(past | (g == 0.0), x, hi)
        lo = np.where(past & (g != 0.0), lo, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / phase.derivative(x)
        newton = (step >= lo) & (step <= hi) & (np.abs(step - x) <= 0.5 * last)
        step = np.where(newton, step, 0.5 * (lo + hi))
        last = np.abs(step - x)
        x = step
        done = last <= tol
        out[idx[done]] = x[done]
        keep = ~done
        if not keep.any():
            return out
        idx, x, lo, hi, last, target, rising = (
            a[keep] for a in (idx, x, lo, hi, last, target, rising))
    out[idx] = x
    return out


def count_zeros(sample: PolySample, grid_per_degree: int = 32, tol: float = 1e-10,
                want_roots: bool = False, max_doublings: int = 4) -> ZeroCountReport:
    """Count the real zeros of one sample in (0, 2 pi).

    Dispatch: periodic samples with r = 0 take the phase route (the
    deterministic zero set plus the exact phase count of the reduced
    factor T^*; grid_per_degree and max_doublings do not enter);
    everything else takes the grid route, a scan of FFT grid values
    under the doubling protocol.  The returned count satisfies the hard
    ceiling 2n.
    """
    if grid_per_degree < 1:
        raise ValueError(f"grid_per_degree must be >= 1, got {grid_per_degree}")
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be >= 0, got {max_doublings}")
    n = sample.n
    model = sample.model
    if model.dep == "periodic" and decompose_degree(n, int(model.ell)).r == 0:
        red = reduce_periodic(sample)
        count, pieces, stable, roots = _phase_count(red, want_roots, tol)
        det = deterministic_zero_set(red.m, red.ell)
        _enforce_ceiling(count + det.size, n, sample)
        if want_roots:
            roots = np.sort(np.concatenate([roots, det]))
        return ZeroCountReport(count=count + det.size, grid_size=0, doublings_used=0,
                               stable=stable, roots=roots, pieces=pieces)

    base_nodes = smooth_size(max(256, grid_per_degree * n))
    count, N, doublings, stable, vals = _stabilized_scan(
        lambda k: evaluate_on_grid(sample, k), base_nodes, max_doublings
    )
    _enforce_ceiling(count, n, sample)
    roots = None
    if want_roots:
        roots = _refine_on_grid(lambda x: evaluate(sample, x), vals, tol)
    return ZeroCountReport(count=count, grid_size=N, doublings_used=doublings,
                           stable=stable, roots=roots)


def _enforce_ceiling(count: int, n: int, sample: PolySample) -> None:
    # a degree-n trigonometric polynomial has at most 2n real zeros
    if count > 2 * n:
        raise RuntimeError(
            f"counted {count} zeros for degree n={n} (ceiling 2n={2 * n}); "
            f"model={sample.model}, seed={sample.seed}"
        )
