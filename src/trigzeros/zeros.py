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
read once on this grid, after the coefficients are scaled by a power of
two so that the largest is O(1): one trigpoly.evaluate_on_grid call with
order=(0, 1), a single two-row real transform of N nodes whatever the
sample.  Its rows and the margins and masks of the zero-free pass below
are trigpoly.scratch arrays, which the trials of one harness run reuse;
what depends on the degree and N alone (the twist, the powers j^k, the
certificate's factors, the power table of the local stage) is built
once and cached.  What depends on the sample is reduced once: its
largest coefficient (PolySample.peak, which the sampler hands over from
its draw) gives the finiteness and all-zero checks and the power of two
of the scaling, and the zero-free clearance of the base grid, whose
cells share one width, is one scalar.

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
n+1-ell deterministic zeros are known in closed form: the count adds
their number, and deterministic_zero_set lists them only when roots are
requested.  No grid is needed for T^* either.  With c_k = a_k - i b_k,
P(z) = sum_{k<ell} c_k z^k and f0 = (m-1) ell/2,

    T^*(x) = Re(e^{i f0 x} P(e^{ix})) = |P(e^{ix})| cos theta(x),

so the zeros of T^* are the solutions of theta = pi/2 (mod pi).  The
phase theta is continuous and is written from the roots of P (the
eigenvalues of its companion matrix, as np.roots finds them) without
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

from .models import PolySample, normalized_coefficients
from .trigpoly import (
    ReducedSample,
    evaluate_jet,
    evaluate_on_grid,
    frequency_powers,
    reduce_periodic,
    scratch,
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


def _polynomial_roots(p: np.ndarray) -> np.ndarray:
    """np.roots(p), p in decreasing powers: the eigenvalues of the companion
    matrix that np.roots builds, computed here without its trimming and
    wrapping when neither end coefficient is 0, so the roots are the same
    to the last bit; otherwise np.roots itself."""
    if p.size < 2 or p[0] == 0 or p[-1] == 0:
        return np.roots(p)
    companion = np.diag(np.ones(p.size - 2, p.dtype), -1)
    companion[0, :] = -p[1:] / p[0]
    return np.linalg.eigvals(companion)


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


def _hull_sides(v0, d0, v1, d1, w3, clearance):
    """(above, below): where the four Bezier control points v0, v0 + w d0/3,
    v1 - w d1/3, v1 of the cubic Hermite interpolant of a function with
    values v and slopes d at the ends of a cell of width w = 3 w3 all
    exceed clearance, and where they all lie below -clearance.  Stacked
    rows are tested at once."""
    b1 = w3 * d0
    b1 += v0
    b2 = w3 * d1
    np.subtract(v1, b2, out=b2)
    lo, hi = np.minimum(v0, v1), np.maximum(v0, v1)
    for b in (b1, b2):
        np.minimum(lo, b, out=lo)
        np.maximum(hi, b, out=hi)
    return lo > clearance, hi < -clearance


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

    def _interp(self, k: int) -> float:
        """n^(k+4) M/384, widened by _WIDTH_SLACK."""
        return self.n ** (k + 4) * self.bound / 384.0 * (1.0 + _WIDTH_SLACK)

    @functools.cached_property
    def _interp_rows(self) -> np.ndarray:
        """_interp(k) for k = 0, 1, 2 (rows)."""
        return np.array([[self._interp(k)] for k in range(3)])

    def clearances(self, w, delta) -> np.ndarray:
        """What the control points of the Hermite cubics of T, T' and T''
        (rows) on cells of width w must clear: the interpolation error
        w^4 n^(k+4) M/384 of T^(k) (Bernstein) plus the rounding of the end
        values and slopes."""
        return w ** 4 * self._interp_rows + delta[:3, None] + (w / 3.0) * delta[1:4, None]

    def grid_clearance(self, h: float) -> float:
        """Row T of clearances(h, delta_grid) for the one width h of the
        base grid's cells, as a scalar: the same operations in the same
        order, so the same bits."""
        delta = self.delta_grid
        return h ** 4 * self._interp(0) + delta[0] + (h / 3.0) * delta[1]

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


@functools.lru_cache(maxsize=32)
def _certificate_factors(n: int, N: int):
    """What _certificate's bounds take from the degree and the grid size
    alone: (j^k for k <= 3, the transform's 8 u log2(N) sqrt(N), the
    nodes' 16 u n^(k+1), the power table's 10 u (n+1), (n h)^2)."""
    node_factors = 16.0 * _U * float(n) ** np.arange(1, 5)
    node_factors.flags.writeable = False
    return (frequency_powers(n, 3), _FFT_ROUNDING * _U * np.log2(N) * np.sqrt(N),
            node_factors, _SUM_ROUNDING * _U * (n + 1), (n * TWO_PI / N) ** 2)


def _certificate(a: np.ndarray, b: np.ndarray, N: int, grid_max: float) -> _Certificate:
    """Bounds for the coefficients a, b (largest entry O(1)) on the N-node
    grid whose largest |T| value is grid_max."""
    n = a.size - 1
    powers, fft_factor, node_factors, sum_factor, nh2 = _certificate_factors(n, N)
    mag = np.hypot(a, b)
    total = float(mag.sum())
    # the transform, normwise (N. J. Higham, Accuracy and Stability of
    # Numerical Algorithms, ch. 24), plus the float grid nodes, which sit
    # within 16u of the exact ones.  One (4, n+1) array, squared in place
    weighted = powers * mag
    np.square(weighted, out=weighted)
    delta_grid = fft_factor * np.sqrt(weighted.sum(axis=1)) + node_factors * total
    # the power table of evaluate_jet at |x| < 6.3, argument rounding
    # included (module docstring); the local cells also read T at grid
    # nodes, hence at least delta_grid
    absolute = np.abs(a, out=mag)
    absolute += np.abs(b)
    delta_point = np.maximum(sum_factor * (powers @ absolute), delta_grid)
    bound = total
    if nh2 < 8.0:
        # at the maximizer T' = 0 and a node lies within h/2, so
        # max |T| <= grid max + (h/2)^2/2 * n^2 max |T|
        bound = min(bound, (grid_max + delta_grid[0]) / (1.0 - nh2 / 8.0))
    return _Certificate(n, bound, delta_grid, delta_point)


def _local_cells(cert: _Certificate, lo, hi, jet_lo, jet_hi, unit: PolySample,
                 want_roots: bool):
    """Test sub-cells (lo, hi) from pointwise T, T', T'', T''' at their ends.

    Returns (count, brackets, decided): the certified count of the cells,
    a list of (lo, hi, T(lo), T(hi)) array tuples that bracket one
    certified zero each (only with want_roots), and the mask of certified
    cells.  A cell is certified when
      - the Hermite control points of T clear their bound (no zero), or
      - those of T' do and both end signs are certain (its sign change), or
      - those of T'' do and both end signs are certain.  T is then convex
        or concave: a sign change is one zero, ends on the side the curve
        bends away from mean none, and otherwise the tangent at the
        secant estimate y of the critical point decides between none (the
        tangent stays clear of 0 on the cell) and two (T(y) has the other
        sign).
    The control points of T, T' and T'' are the three rows of one test.
    """
    delta = cert.delta_point
    w = hi - lo
    w3 = w / 3.0
    above, below = _hull_sides(jet_lo[:3], jet_lo[1:], jet_hi[:3], jet_hi[1:], w3,
                               cert.clearances(w, delta))
    clear = above | below
    f0, f1 = jet_lo[0], jet_hi[0]
    certain = (np.abs(f0) > delta[0]) & (np.abs(f1) > delta[0])
    neg = np.signbit(f0)
    change = certain & (neg != np.signbit(f1))
    none = clear[0]
    mono = certain & clear[1] & ~none
    curved = certain & clear[2] & ~(none | mono)
    ones = change & (mono | curved)
    count = int(np.count_nonzero(ones))
    # equal end signs: T'' of the sign of the ends bends the curve towards
    # 0 (a cup of g = sign * T); otherwise it stays on the side of its ends
    flat = curved & ~change
    cup = flat & np.where(neg, below[2], above[2])
    decided = none | mono | (curved & change) | (flat & ~cup)
    brackets = [(lo[ones], hi[ones], f0[ones], f1[ones])] if want_roots else []
    cup = np.flatnonzero(cup)
    if cup.size:
        # g = s T is convex with positive ends on these cells
        s = np.where(neg[cup], -1, 1)
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
        count += 2 * int(np.count_nonzero(two))
        if want_roots:
            f0_two, fy, f1_two = f0[cup][two], jet_y[0][two], f1[cup][two]
            brackets += [(a[two], y[two], f0_two, fy), (y[two], b[two], fy, f1_two)]
    return count, brackets, decided


def _open_cells(grid: np.ndarray, cells: np.ndarray, cert: _Certificate, clear0: float,
                want_roots: bool):
    """The hull and monotone tests of open cells of the base grid.

    grid holds T and T' at the N nodes; cell i spans the nodes i and
    i + 1 (mod N).  Returns (count, brackets, rest): the sign changes of
    the monotone cells, their root brackets (only with want_roots), and
    (cells, T(lo), T(hi)) of the cells that passed neither test.  Its
    arrays of all open cells are freed when it returns, before the local
    stage allocates its own.
    """
    N = grid.shape[1]
    h = TWO_PI / N
    delta = cert.delta_grid
    nxt = cells + 1
    nxt[-1:] %= N
    (f_lo, s0), (f_hi, s1) = grid.take(cells, axis=1), grid.take(nxt, axis=1)
    above, below = _hull_sides(f_lo, s0, f_hi, s1, h / 3.0, clear0)
    zero_free = above | below
    # T is monotone where the control points of p' clear their bound with
    # one sign.  A monotone cell counts its computed sign change: along a
    # run of them T is monotone, so the changes telescope even across a
    # node value within rounding of 0, and a run ends at nodes whose sign
    # is certain (zero-free cells) or at a cell that stays undecided (the
    # local tests demand certain end signs).  Zero-free cells take the
    # test too, but their outcome is not used
    clear_end, clear_mid = cert.slope_clearance(h, delta)
    mid = f_hi - f_lo
    mid *= 3.0 / h
    mid -= s0
    mid -= s1
    mono = (((np.minimum(s0, s1) > clear_end) & (mid > clear_mid))
            | ((np.maximum(s0, s1) < -clear_end) & (mid < -clear_mid)))
    change = mono & (np.signbit(f_lo) != np.signbit(f_hi)) & ~zero_free
    brackets = []
    if want_roots:
        # cell i spans the nodes (i + g) h and (i + 1 + g) h; i = N - 1
        # wraps.  An end value within rounding of 0 is the root itself (to
        # ~delta_0/|T'|)
        at = cells[change]
        lo, hi = h * (at + GRID_OFFSET), h * (at + 1 + GRID_OFFSET)
        v_lo, v_hi = f_lo[change], f_hi[change]
        at_lo = np.abs(v_lo) <= delta[0]
        at_hi = np.abs(v_hi) <= delta[0]
        brackets.append((np.where(at_hi, hi, lo), np.where(at_lo, lo, hi), v_lo, v_hi))
    rest = ~(zero_free | mono)
    return int(np.count_nonzero(change)), brackets, (cells[rest], f_lo[rest], f_hi[rest])


def _certified_count(unit: PolySample, N: int, max_doublings: int, want_roots: bool,
                     tol: float):
    """(count, doublings, stable, roots) of the grid route on N nodes.

    unit is the sample scaled by a power of two so that its largest
    coefficient is O(1): the bounds never overflow, and the signs are
    those of the sample itself.  The N-node arrays are scratch arrays,
    and every array returned is a copy.  The brackets of the roots are
    gathered only with want_roots.
    """
    grid = evaluate_on_grid(unit, N, GRID_OFFSET, order=(0, 1))
    f = grid[0]
    size, slack = np.abs(grid, out=scratch(2 * N).reshape(2, N))
    cert = _certificate(unit.a, unit.b, N, float(size.max()))
    h = TWO_PI / N
    clear0 = cert.grid_clearance(h)
    # |f| - h |f'|/3 bounds the two control points beside a node on the
    # side of f: cells whose ends both pass with one sign are zero-free,
    # and only the others (open) take the full hull test
    slack *= h / 3.0
    size -= slack
    unsure, neg, open_ = scratch(3 * N, bool).reshape(3, N)
    np.signbit(f, out=neg)
    np.not_equal(neg[:-1], neg[1:], out=open_[:-1])
    open_[-1] = neg[-1] != neg[0]
    np.greater(size, clear0, out=unsure)
    np.logical_not(unsure, out=unsure)
    open_ |= unsure
    open_[:-1] |= unsure[1:]
    open_[-1] |= unsure[0]
    count, brackets, (cells, f_lo, f_hi) = _open_cells(grid, np.flatnonzero(open_), cert,
                                                        clear0, want_roots)

    # local bisection of the cells that passed neither test.  T at their
    # grid nodes keeps its grid value, so that every node has one sign
    # for the cells on both sides of it
    depth = 0
    stable = True
    if cells.size:
        lo, hi = points = h * (np.stack([cells, cells + 1]) + GRID_OFFSET)
        jet = evaluate_jet(unit, points.ravel())
        jet[0, :cells.size], jet[0, cells.size:] = f_lo, f_hi
        jet_lo, jet_hi = jet[:, :cells.size], jet[:, cells.size:]
        while True:
            found, bracketed, decided = _local_cells(cert, lo, hi, jet_lo, jet_hi, unit,
                                                     want_roots)
            count += found
            brackets += bracketed
            if decided.all():
                break
            keep = ~decided
            lo, hi, jet_lo, jet_hi = lo[keep], hi[keep], jet_lo[:, keep], jet_hi[:, keep]
            if depth == max_doublings:
                # a cell left undecided counts the change of sign bit
                # across it, as the monotone cells do
                stable = False
                change = np.signbit(jet_lo[0]) != np.signbit(jet_hi[0])
                count += int(np.count_nonzero(change))
                brackets.append((lo[change], hi[change], jet_lo[0, change],
                                 jet_hi[0, change]))
                break
            mid = 0.5 * (lo + hi)
            jet_mid = evaluate_jet(unit, mid)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            jet_lo = np.concatenate([jet_lo, jet_mid], axis=1)
            jet_hi = np.concatenate([jet_mid, jet_hi], axis=1)
            depth += 1

    roots = None
    if want_roots:
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
        z = _polynomial_roots(q[::-1])
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
    alpha = _polynomial_roots(c[::-1])
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

    Dispatch: samples whose split (PolySample.split) factors (r = 0,
    m >= 2, so never an i.i.d. one, the vacuous period) take the
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
    zeros of the phase route are exact, and are listed only then (the
    count takes their number, split.deterministic_zeros = n + 1 - ell).
    """
    if grid_per_degree < 1:
        raise ValueError(f"grid_per_degree must be >= 1, got {grid_per_degree}")
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be >= 0, got {max_doublings}")
    n = sample.n
    model = sample.model
    if sample.split.factors:
        red = reduce_periodic(sample)
        count, pieces, stable, roots = _phase_count(red, want_roots, tol)
        count += sample.split.deterministic_zeros  # the size of deterministic_zero_set
        _enforce_ceiling(count, n, sample)
        if want_roots:
            roots = np.sort(np.concatenate([roots, deterministic_zero_set(red.m, red.ell)]))
        return ZeroCountReport(count=count, grid_size=0, doublings_used=0,
                               stable=stable, roots=roots, pieces=pieces)

    # the largest |a_k|, |b_k| that normalized reduces: nan or inf when an
    # entry is, 0 when the sample vanishes
    peak = sample.peak
    if not np.isfinite(peak):
        raise FloatingPointError("non-finite coefficient in the sample")
    if peak == 0.0:
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
