"""Zero counting: a certified cell-by-cell count on one spectral grid,
and an exact phase count for the reduced factor of periodic samples
that factor (r = 0, m >= 2).

Grid route (i.i.d., r != 0 and m = 1)
-------------------------------------
The circle is cut into the N cells [x_i, x_{i+1}] of the uniform open
grid x_i = 2 pi (i + g)/N, wrap cell (x_{N-1}, x_0 + 2 pi) included,
with g = GRID_OFFSET the golden section.
N = smooth_size(max(256, grid_per_degree * n)) is the smallest 5-smooth
size (no prime factor above 5) with at least grid_per_degree nodes per
degree, so the real FFT never meets an awkward length.  T and T' are
read once on this grid (trigpoly.evaluate_on_grid with order 0 and 1:
two transforms of N nodes, whatever the sample), after the coefficients
are scaled by a power of two so that the largest is O(1).

Each cell of width w is then proved to hold 0, 1 or 2 zeros, or left
undecided.  The proof rests on

  M >= max |T|, the smaller of sum_j |c_j| and (max_i |T(x_i)| +
      delta_0)/(1 - (nh)^2/8) with h = 2 pi/N (at the maximizer T' = 0,
      and a node lies within h/2 of it);
  Bernstein's inequality max |T^(k)| <= n^k M;
  the cubic Hermite interpolant p_k of T^(k) from its values and slopes
      at the cell ends, which misses T^(k) by at most w^4 n^(k+4) M/384
      and lies in the hull of its Bezier control points f_0, f_0 +
      w f_0'/3, f_1 - w f_1'/3, f_1;
  the slope p_0', which misses T' by at most sqrt(3)/216 w^3 n^4 M (G.
      Birkhoff and A. Priver, Hermite interpolation errors for
      derivatives, J. Math. Phys. 46, 1967) and lies in the hull of its
      quadratic Bezier control points f_0', 3 (f_1 - f_0)/w - f_0' -
      f_1', f_1'.

A cell holds no zero when the control points of p_0 clear
w^4 n^4 M/384 plus rounding with one sign.  On the base grid it holds
exactly its change of sign bit when those of p_0' clear
sqrt(3)/216 w^3 n^4 M plus rounding, so that T is monotone; a node value
within rounding of 0 between two monotone cells may move a zero to the
neighbouring cell but not change the total.  This leaves a few cells
per trial beside close zero pairs, more on periodic samples, whose M
the lattice spike sets.  Those are bisected locally, at most
max_doublings times, with T', T'' and the third derivative summed
pointwise through the two-level power table of trigpoly.evaluate_jet,
and T too except at the grid nodes, which keep their grid values so
that each node has one sign.  A sub-cell is certified only with both
end values beyond rounding: as zero-free by the test above, as
monotone where the control points of p_1 clear w^4 n^5 M/384, or, where
those of p_2 clear w^4 n^6 M/384, as convex or concave: with a sign
change it holds one zero, and with none it holds 0 or 2, which the
value and tangent of T at the secant estimate of its critical point
decide.  The rounding bounds are

  delta_k = 8 u log2(N) sqrt(N) ||j^k c_j||_2 + 16 u n^(k+1) sum_j |c_j|
      for grid values (the transform, normwise, plus the float nodes);
  delta_k = 10 u (n+1) sum_j j^k (|a_j| + |b_j|)
      for pointwise values (evaluate_jet), and at least the grid bound,

with u the unit roundoff; each constant is several times the textbook
one.  The pointwise bound covers the power table, by the rules for
products of rounded factors and for inner products (N. J. Higham,
Accuracy and Stability of Numerical Algorithms, 2002, ch. 3; a complex
product adds sqrt(2) gamma_2).  Write j = B p + q with B = ceil(sqrt(n+1))
and P = ceil((n+1)/B).  The arguments q x and B p x are rounded once, and
cos and sin are good to an ulp, so the table phases lie within
u (q |x| + 2 sqrt 2) and u (B p |x| + 2 sqrt 2) of e^{iqx} and e^{iBpx}:
together u (j |x| + 4 sqrt 2).  The rows q^i e^{iqx}, the product with
e^{iBpx} and the exact weights i^k binom(k, i) (B p)^(k-i) add a rounding
each, and the two complex inner products, of lengths B and at most 4P,
add sqrt(2) (B + 4P + 3) u.  The magnitudes binom(k, i) (B p)^(k-i) q^i
sum to j^k with no cancellation, so every error is relative to
sum_j j^k |c_j|, and T^(k) is off by at most
u sum_j j^k |c_j| (j |x| + sqrt(2) (B + 4P) + 15).  Every point the grid
route evaluates lies in [0, 2 pi (1 + g/N)], so |x| < 6.3, and
B + 4P <= 5 sqrt(n+1) + 5; the sum is then below the pointwise delta_k
for n >= 10, and below the grid bound (N >= 256) for n <= 9.

The count is stable (certified) when every cell is.  A cell left
undecided counts its change of sign bit and makes the report unstable;
a double zero, such as that of 1 + cos x at pi, is never certified.
Roots are refined inside the certified brackets by safeguarded Newton
on T and T' (evaluate_jet), starting from the end values that the
certificate already read: the cell of a single zero, or the two halves
of a two-zero cell split where T has the sign opposite to its ends; a
grid node whose value is within rounding of 0 is itself the root.

Phase route (periodic, r = 0, m >= 2)
-------------------------------------
Periodic samples with r = 0 and m >= 2 factor exactly as T_n = phi_m * T^*
(PeriodDecomposition.factors, trigpoly.reduce_periodic).  They are not
scanned raw: the deterministic zeros of phi_m and the random zeros of
T^* form two interleaved combs with no repulsion between the families,
so near-coincident pairs arise that no affordable grid resolves.  The
n+1-ell deterministic zeros are known in closed form, and no grid is
needed for T^* either.  With c_k = a_k - i b_k, P(z) = sum_{k<ell}
c_k z^k and f0 = (m-1) ell/2,

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
margin, since theta grows like n); only then is stable=False.  Roots
are refined by the same safeguarded Newton, on theta minus its level
across the monotone piece that crosses it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import PolySample, decompose_degree, normalized_coefficients
from .trigpoly import (
    ReducedSample,
    evaluate_jet,
    evaluate_on_grid,
    frequency_powers,
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

# grid route: nodes sit at 2 pi (i + GRID_OFFSET)/N.  Structured samples
# (periodic cosine with r != 0, rigged tones) have deterministic zeros at
# rational multiples of 2 pi; a half-cell offset puts nodes and bisection
# midpoints (2 pi k/N) on such points, where no sign is certain, and the
# golden section keeps every node and midpoint off them
GRID_OFFSET = (np.sqrt(5.0) - 1.0) / 2.0

# grid route: the unit roundoff and the constants of the rounding bounds
# delta_k (see _certificate), each several times the textbook constant;
# _WIDTH_SLACK covers the rounding of cell widths in the w^4 and w^3 terms
_U = 0.5 * np.finfo(float).eps
_FFT_ROUNDING = 8.0
_SUM_ROUNDING = 10.0
_WIDTH_SLACK = 1e-9

# the slope of the cubic Hermite interpolant of f on a cell of width w
# misses f' by at most _SLOPE_HERMITE w^3 max |f^(4)| (Birkhoff and Priver)
_SLOPE_HERMITE = np.sqrt(3.0) / 216.0

# root refinement: Newton steps and bisections per root at most; bisection
# alone takes about 55 from a bracket of 2 pi to the spacing of doubles
_REFINE_MAX_ITER = 100


@dataclass(frozen=True)
class ZeroCountReport:
    """Outcome of one counting run.

    count           zeros attributed to (0, 2 pi); the certified count
                    when stable
    grid_size       grid route: nodes of the base grid, the only one
                    transformed; phase route: 0
    doublings_used  grid route: the deepest local halving of an
                    undecided cell (0 when no cell needed one); phase
                    route: 0
    stable          grid route: every cell certified (no zero, exactly
                    its sign change, or 0 or 2 in a convex or concave
                    sub-cell), so the count is proved up to the stated
                    rounding bounds; phase route: no root of P and no
                    phase value at a piece end within PHASE_MARGIN of
                    the unit circle or of a level, so the count is exact
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


@functools.lru_cache(maxsize=256)
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


def _refine_roots(jet: Callable, lo, hi, g_lo, g_hi, tol: float) -> np.ndarray:
    """Roots of g in the brackets (lo_i, hi_i) by safeguarded Newton
    (rtsafe), all brackets at once.

    g_lo and g_hi are the values of g at the bracket ends, which every
    caller already holds; jet(x, idx) returns (g, g') at the points x for
    the brackets idx.  Each root starts at the secant of g across its
    bracket, and every iterate shrinks the bracket; a step that would
    leave it, or that is not under half the previous one, is replaced by
    bisection, so a root never leaves its bracket.  A root is final once
    its step is within tol, and only unfinished roots are iterated
    further.  A zero-width bracket is returned as it is.
    """
    out = np.asarray(lo, dtype=float).copy()
    idx = np.flatnonzero(np.asarray(hi) > out)
    lo, hi = out[idx], np.asarray(hi, dtype=float)[idx]
    g_lo, g_hi = np.asarray(g_lo)[idx], np.asarray(g_hi)[idx]
    rising = g_hi > g_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + g_lo / (g_lo - g_hi) * (hi - lo)
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    last = hi - lo
    for _ in range(_REFINE_MAX_ITER):
        if not idx.size:
            break
        g, dg = jet(x, idx)
        past = (g > 0.0) == rising
        hi = np.where(past | (g == 0.0), x, hi)
        lo = np.where(past & (g != 0.0), lo, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / dg
        newton = (step >= lo) & (step <= hi) & (np.abs(step - x) <= 0.5 * last)
        step = np.where(newton, step, 0.5 * (lo + hi))
        last = np.abs(step - x)
        x = step
        done = last <= tol
        out[idx[done]] = x[done]
        keep = ~done
        idx, x, lo, hi, last, rising = (a[keep] for a in (idx, x, lo, hi, last, rising))
    out[idx] = x
    return out


def _one_sign(v0, d0, v1, d1, w, clearance) -> np.ndarray:
    """+1 (-1) where the four Bezier control points v0, v0 + w d0/3,
    v1 - w d1/3, v1 of the cubic Hermite interpolant of a function with
    values v and slopes d at the ends of a cell of width w all exceed
    clearance (all lie below -clearance); 0 elsewhere."""
    b1 = v0 + (w / 3.0) * d0
    b2 = v1 - (w / 3.0) * d1
    lo = np.minimum(np.minimum(v0, b1), np.minimum(b2, v1))
    hi = np.maximum(np.maximum(v0, b1), np.maximum(b2, v1))
    return (lo > clearance).astype(np.int8) - (hi < -clearance)


@dataclass(frozen=True)
class _Certificate:
    """The bounds of the cell tests for one sample of degree n.

    bound is M >= max |T|; delta_grid[k] and delta_point[k] bound the
    rounding error of T^(k) read from the spectral grid and from
    evaluate_jet's power table.
    """

    n: int
    bound: float
    delta_grid: np.ndarray
    delta_point: np.ndarray

    def clearance(self, k: int, w, delta) -> np.ndarray:
        """What the control points of the Hermite cubic of T^(k) on a cell
        of width w must clear: the interpolation error w^4 n^(k+4) M/384
        (Bernstein) plus the rounding of the end values and slopes."""
        interp = w ** 4 * (self.n ** (k + 4) * self.bound / 384.0 * (1.0 + _WIDTH_SLACK))
        return interp + delta[k] + (w / 3.0) * delta[k + 1]

    def slope_clearance(self, w: float, delta) -> tuple[float, float]:
        """What the control points of p' must clear, p the cubic Hermite
        interpolant of T on a cell of width w: (the two end points, the
        middle one).  Both take the interpolation error
        sqrt(3)/216 w^3 n^4 M; the ends add the rounding delta_1 of a
        slope, and the middle 3 (f_1 - f_0)/w - f_0' - f_1' adds
        6 delta_0/w + 2 delta_1 and the rounding of its own five
        operations, relative to |f| <= M + delta_0 and |f'| <= n M + delta_1."""
        interp = w ** 3 * (self.n ** 4 * self.bound * _SLOPE_HERMITE * (1.0 + _WIDTH_SLACK))
        own = _SUM_ROUNDING * _U * (6.0 * (self.bound + delta[0]) / w
                                    + 2.0 * (self.n * self.bound + delta[1]))
        return interp + delta[1], interp + 6.0 * delta[0] / w + 2.0 * delta[1] + own


def _certificate(a: np.ndarray, b: np.ndarray, N: int, grid_max: float) -> _Certificate:
    """Bounds for the coefficients a, b (largest entry O(1)) on the N-node
    grid whose largest |T| value is grid_max."""
    n = a.size - 1
    mag = np.hypot(a, b)
    total = float(mag.sum())
    powers = frequency_powers(n, 3)
    # the transform, normwise (N. J. Higham, Accuracy and Stability of
    # Numerical Algorithms, ch. 24), plus the float grid nodes, which sit
    # within 16u of the exact ones
    delta_grid = (_FFT_ROUNDING * _U * np.log2(N) * np.sqrt(N)
                  * np.sqrt(((powers * mag) ** 2).sum(axis=1))
                  + 16.0 * _U * float(n) ** np.arange(1, 5) * total)
    # the power table of evaluate_jet at |x| < 6.3, argument rounding
    # included (module docstring); the local cells also read T at grid
    # nodes, hence at least delta_grid
    delta_point = np.maximum(
        _SUM_ROUNDING * _U * (n + 1) * (powers @ (np.abs(a) + np.abs(b))), delta_grid)
    bound = total
    nh2 = (n * TWO_PI / N) ** 2
    if nh2 < 8.0:
        # at the maximizer T' = 0 and a node lies within h/2, so
        # max |T| <= grid max + (h/2)^2/2 * n^2 max |T|
        bound = min(bound, (grid_max + delta_grid[0]) / (1.0 - nh2 / 8.0))
    return _Certificate(n, bound, delta_grid, delta_point)


def _local_cells(cert: _Certificate, lo, hi, jet_lo, jet_hi, unit: PolySample):
    """Test sub-cells (lo, hi) from pointwise T, T', T'', T''' at their ends.

    Returns (count, brackets, decided): the certified count of each cell,
    a list of (lo, hi, T(lo), T(hi)) array tuples that bracket one
    certified zero each, and the mask of certified cells.  A cell is
    certified when
      - the Hermite control points of T clear their bound (no zero), or
      - those of T' do and both end signs are certain (its sign change), or
      - those of T'' do and both end signs are certain.  T is then convex
        or concave: a sign change is one zero, ends on the side the curve
        bends away from mean none, and otherwise the tangent at the
        secant estimate y of the critical point decides between none (the
        tangent stays clear of 0 on the cell) and two (T(y) has the other
        sign).
    """
    delta = cert.delta_point
    w = hi - lo
    f0, f1 = jet_lo[0], jet_hi[0]
    certain = (np.abs(f0) > delta[0]) & (np.abs(f1) > delta[0])
    change = certain & (np.signbit(f0) != np.signbit(f1))
    none = _one_sign(f0, jet_lo[1], f1, jet_hi[1], w, cert.clearance(0, w, delta)) != 0
    mono = ~none & certain & (_one_sign(jet_lo[1], jet_lo[2], jet_hi[1], jet_hi[2], w,
                                        cert.clearance(1, w, delta)) != 0)
    bend = _one_sign(jet_lo[2], jet_lo[3], jet_hi[2], jet_hi[3], w,
                     cert.clearance(2, w, delta))
    curved = certain & ~none & ~mono & (bend != 0)
    count = (change & (mono | curved)).astype(np.int64)
    decided = none | mono | (curved & change)
    # equal end signs s: with s T'' < 0 the curve stays on the side of its ends
    side = np.where(np.signbit(f0), -1, 1)
    decided |= curved & ~change & (side * bend < 0)
    cup = np.flatnonzero(curved & ~change & (side * bend > 0))
    ones = np.flatnonzero(count)
    brackets = [(lo[ones], hi[ones], f0[ones], f1[ones])]
    if cup.size:
        # g = s T is convex with positive ends on these cells
        s = side[cup]
        a, b, cw = lo[cup], hi[cup], w[cup]
        g0, g1 = s * jet_lo[1, cup], s * jet_hi[1, cup]
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(g0 >= 0.0, a, np.where(g1 <= 0.0, b, a + cw * g0 / (g0 - g1)))
        y = np.clip(y, a, b)
        jet_y = evaluate_jet(unit, y, order=1)
        gy, dgy = s * jet_y[0], s * jet_y[1]
        tangent_min = gy + np.minimum(dgy * (a - y), dgy * (b - y))
        empty = tangent_min > delta[0] + cw * delta[1]
        two = ~empty & (gy < -delta[0])
        decided[cup[empty | two]] = True
        count[cup[two]] = 2
        f0_two, fy, f1_two = f0[cup][two], jet_y[0][two], f1[cup][two]
        brackets += [(a[two], y[two], f0_two, fy), (y[two], b[two], fy, f1_two)]
    return count, brackets, decided


def _certified_count(unit: PolySample, N: int, max_doublings: int,
                     want_roots: bool, tol: float):
    """(count, doublings, stable, roots) of the grid route on N nodes.

    unit is the sample scaled by a power of two so that its largest
    coefficient is O(1): the bounds never overflow, and the signs are
    those of the sample itself.
    """
    f, d1 = (evaluate_on_grid(unit, N, GRID_OFFSET, order=k) for k in range(2))
    cert = _certificate(unit.a, unit.b, N, float(np.abs(f).max()))
    h = TWO_PI / N
    delta = cert.delta_grid
    clear0 = cert.clearance(0, h, delta)
    # |f| - h |f'|/3 bounds the two control points beside a node on the
    # side of f: cells whose ends both pass with one sign are zero-free,
    # and only the others take the full hull test
    neg = np.signbit(f)
    sure = np.abs(f) - (h / 3.0) * np.abs(d1) > clear0
    sure &= np.append(sure[1:], sure[0]) & (neg == np.append(neg[1:], neg[0]))
    idx = np.flatnonzero(~sure)
    nxt = (idx + 1) % N
    hull = _one_sign(f[idx], d1[idx], f[nxt], d1[nxt], h, clear0) == 0
    idx, nxt = idx[hull], nxt[hull]
    # T is monotone where the control points of p' clear their bound with
    # one sign.  A monotone cell counts its computed sign change: along a
    # run of them T is monotone, so the changes telescope even across a
    # node value within rounding of 0, and a run ends at nodes whose sign
    # is certain (zero-free cells) or at a cell that stays undecided (the
    # local tests demand certain end signs)
    clear_end, clear_mid = cert.slope_clearance(h, delta)
    s0, s1 = d1[idx], d1[nxt]
    mid = (f[nxt] - f[idx]) * (3.0 / h) - s0 - s1
    mono = (((np.minimum(s0, s1) > clear_end) & (mid > clear_mid))
            | ((np.maximum(s0, s1) < -clear_end) & (mid < -clear_mid)))
    change = idx[mono & (np.signbit(f[idx]) != np.signbit(f[nxt]))]
    count = change.size
    # cell i spans the nodes (i + g) h and (i + 1 + g) h; i = N - 1 wraps.
    # An end value within rounding of 0 is the root itself (to ~delta_0/|T'|)
    lo, hi = h * (change + GRID_OFFSET), h * (change + 1 + GRID_OFFSET)
    f_lo, f_hi = f[change], f[(change + 1) % N]
    at_lo = np.abs(f_lo) <= delta[0]
    at_hi = np.abs(f_hi) <= delta[0]
    brackets = [(np.where(at_hi, hi, lo), np.where(at_lo, lo, hi), f_lo, f_hi)]

    # local bisection of the cells that passed neither test.  T at their
    # grid nodes keeps its grid value, so that every node has one sign
    # for the cells on both sides of it
    rest = idx[~mono]
    lo, hi = h * (rest + GRID_OFFSET), h * (rest + 1 + GRID_OFFSET)
    jet = evaluate_jet(unit, np.concatenate([lo, hi])) if rest.size else np.empty((4, 0))
    jet[0] = np.concatenate([f[rest], f[(rest + 1) % N]])
    jet_lo, jet_hi = jet[:, :rest.size], jet[:, rest.size:]
    depth = 0
    while lo.size:
        counts, found, decided = _local_cells(cert, lo, hi, jet_lo, jet_hi, unit)
        count += int(counts.sum())
        brackets += found
        keep = ~decided
        lo, hi, jet_lo, jet_hi = lo[keep], hi[keep], jet_lo[:, keep], jet_hi[:, keep]
        if not lo.size or depth == max_doublings:
            break
        mid = 0.5 * (lo + hi)
        jet_mid = evaluate_jet(unit, mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        jet_lo = np.concatenate([jet_lo, jet_mid], axis=1)
        jet_hi = np.concatenate([jet_mid, jet_hi], axis=1)
        depth += 1

    # a cell left undecided counts the change of sign bit across it, as
    # the monotone cells do
    stable = lo.size == 0
    change = np.signbit(jet_lo[0]) != np.signbit(jet_hi[0])
    count += int(np.count_nonzero(change))
    roots = None
    if want_roots:
        brackets.append((lo[change], hi[change], jet_lo[0, change], jet_hi[0, change]))
        found = _refine_roots(lambda x, _: evaluate_jet(unit, x, order=1),
                              *(np.concatenate(ends) for ends in zip(*brackets)), tol)
        roots = np.sort(np.mod(found, TWO_PI))
    return count, depth, stable, roots


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
    Each root is refined on its whole piece, as a zero of theta minus
    its level.
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
        roots = _refine_roots(
            lambda x, i: (phase(x) - target[i], phase.derivative(x)),
            ends[piece], ends[piece + 1], theta[piece] - target,
            theta[piece + 1] - target, tol)
        roots = np.mod(roots, TWO_PI)
    return count, starts.size, stable, roots


def count_zeros(sample: PolySample, grid_per_degree: int = 32, tol: float = 1e-10,
                want_roots: bool = False, max_doublings: int = 4) -> ZeroCountReport:
    """Count the real zeros of one sample in (0, 2 pi).

    Dispatch: periodic samples that factor (r = 0, m >= 2) take the
    phase route (the deterministic zero set plus the exact phase count of
    the reduced factor T^*; grid_per_degree and max_doublings do not
    enter); everything else, m = 1 included, takes the grid route, the
    cell certificate on one grid of smooth_size(max(256, grid_per_degree
    * n)) nodes with at most max_doublings local halvings of an undecided
    cell (finest spacing 2 pi/N 2^-max_doublings).  The returned count
    satisfies the hard ceiling 2n.

    With want_roots, every zero is refined by safeguarded Newton inside
    its certified bracket (a cell, a sub-cell or a monotone piece of the
    phase), and tol bounds the last step of each root; the deterministic
    zeros of the phase route are exact.
    """
    if grid_per_degree < 1:
        raise ValueError(f"grid_per_degree must be >= 1, got {grid_per_degree}")
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be >= 0, got {max_doublings}")
    n = sample.n
    model = sample.model
    if model.dep == "periodic" and decompose_degree(n, model.ell).factors:
        red = reduce_periodic(sample)
        count, pieces, stable, roots = _phase_count(red, want_roots, tol)
        det = deterministic_zero_set(red.m, red.ell)
        _enforce_ceiling(count + det.size, n, sample)
        if want_roots:
            roots = np.sort(np.concatenate([roots, det]))
        return ZeroCountReport(count=count + det.size, grid_size=0, doublings_used=0,
                               stable=stable, roots=roots, pieces=pieces)

    if not (np.isfinite(sample.a).all() and np.isfinite(sample.b).all()):
        raise FloatingPointError("non-finite coefficient in the sample")
    if not (sample.a.any() or sample.b.any()):
        raise RuntimeError(
            f"the sample vanishes identically (every x is a zero); "
            f"model={model}, seed={sample.seed}"
        )
    unit = sample.unit()
    N = smooth_size(max(256, grid_per_degree * n))
    count, doublings, stable, roots = _certified_count(unit, N, max_doublings,
                                                       want_roots, tol)
    _enforce_ceiling(count, n, sample)
    return ZeroCountReport(count=count, grid_size=N, doublings_used=doublings,
                           stable=stable, roots=roots)


def _enforce_ceiling(count: int, n: int, sample: PolySample) -> None:
    # a degree-n trigonometric polynomial has at most 2n real zeros
    if count > 2 * n:
        raise RuntimeError(
            f"counted {count} zeros for degree n={n} (ceiling 2n={2 * n}); "
            f"model={sample.model}, seed={sample.seed}"
        )
