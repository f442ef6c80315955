"""Zero counting: a certified cell-by-cell count on one spectral grid,
and an exact phase count for the reduced factor of periodic samples
that factor (r = 0, m >= 2).

Grid route (i.i.d., r != 0 and m = 1)
-------------------------------------
The circle is cut into the N cells [x_i, x_{i+1}] of the uniform open
grid x_i = 2 pi (i + g)/N, wrap cell (x_{N-1}, x_0 + 2 pi) included,
with g = GRID_OFFSET the golden section and h = 2 pi/N.
N = smooth_size(max(256, grid_per_degree * n)) is the smallest 5-smooth
size (no prime factor above 5) with at least grid_per_degree nodes per
degree, so the real FFT never meets an awkward length.  T and T' are
read once on this grid, after the coefficients are scaled by a power of
two so that the largest is O(1): one trigpoly.evaluate_on_grid call with
order=(0, 1), a single two-row real transform of N nodes.

A cosine sample is even, T(2 pi - x) = T(x), and is certified on the
half circle instead.  N is then the smallest 5-smooth multiple of 4 at or
above the same bound, and the transform has N/2 nodes, offset g/2: the
even nodes (2k + g) h of the grid above.  Their mirror images
(2k + 2 - g) h, where T is equal and T' negated, are nodes too, so on
[-g h, pi + g h] nodes and mirror images alternate and the cells
alternate between the widths 2 g h and 2 (1 - g) h.  Every cell counts
for itself and its mirror image on (pi, 2 pi), but the two centred on 0
and pi are their own mirror images and count once.  The node set
is symmetric, and every node is an irrational multiple of h; the cell
midpoints are the rational 2 pi k/N, so the local stage below splits
these cells at the golden fraction lo + g (hi - lo) (no split point of
ten levels is rational in exact arithmetic over Q(g)), where the whole
circle splits at midpoints.  The layout (_Layout) holds the node
positions, cell widths, weights and split fraction of both as data, for
one certificate; on the half circle T and T' are copied once per trial
into the sequence of nodes along [-g h, pi + g h], so every test after
the transform reads one sequence of nodes on both layouts.  Where a
bound below takes one width for all cells it takes the widest, w_max (h
on the whole circle, 2 g h on the half): each grows with the width.

The transform's rows and the margins and masks of the zero-free pass
below are trigpoly.scratch arrays, which the trials of one harness run
reuse; what depends on the degree and N alone (the twist, the powers
j^k, the certificate's factors, the power table of the local stage, the
layout) is built once and cached.  What depends on the sample is reduced
once: its largest coefficient (PolySample.peak, which the sampler hands
over from its draw) gives the finiteness and all-zero checks and the
power of two of the scaling, and the zero-free clearance of the base
grid, taken at w_max, is one scalar.

Each cell of width w is then proved to hold 0, 1 or 2 zeros, or left
undecided.  The proof rests on

  M >= max |T|, the smaller of sum_j |c_j| and (max_i |T(x_i)| +
      delta_0)/(1 - (n w_max)^2/8) with w_max the widest cell, h on the
      whole circle (at the maximizer T' = 0, and a node lies within
      w_max/2 of it);
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
sqrt(3)/216 w^3 n^4 M plus rounding, so that T is monotone (the
clearances taken at the larger of the layout's two widths, the middle
control point at each cell's own); a node value within rounding of 0
between two monotone cells may move a zero to the neighbouring cell but
not change the total.  This leaves a few cells per trial beside close
zero pairs, more on periodic samples, whose M the lattice spike sets.
Those are split locally, at most max_doublings times, with T', T'' and
the third derivative summed pointwise through the two-level power table
of trigpoly.evaluate_jet, and T too except at the grid nodes, which keep
their grid values so that each node has one sign.  A sub-cell is
certified only with both end values beyond rounding: as zero-free by the
test above, as monotone where the control points of p_1 clear
w^4 n^5 M/384, or, where those of p_2 clear w^4 n^6 M/384, as convex or
concave: with a sign change it holds one zero, and with none it holds 0
or 2, which the value and tangent of T at the secant estimate of its
critical point decide.  The rounding bounds are

  delta_k = 8 u log2(N) sqrt(N) ||j^k c_j||_2 + 16 u n^(k+1) sum_j |c_j|
      for grid values (the transform, normwise, plus the float nodes;
      the whole circle's N bounds the half circle's N/2-node transform
      too);
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
route evaluates lies in [-2 pi g/N, 2 pi (1 + g/N)], so |x| < 6.3, and
B + 4P <= 5 sqrt(n+1) + 5; the sum is then below the pointwise delta_k
for n >= 10, and below the grid bound (N >= 256) for n <= 9.

The count is stable (certified) when every cell is.  A cell left
undecided counts its change of sign bit and makes the report unstable;
a double zero, such as that of 1 + cos x at pi, is never certified.
Roots are refined inside the certified brackets by safeguarded Newton
on T and T' (evaluate_jet), starting from the end values that the
certificate already read: the cell of a single zero, or the two halves
of a two-zero cell split where T has the sign opposite to its ends; a
grid node whose value is within rounding of 0 is itself the root.  On
the half circle a root x of a cell that counts twice brings its mirror
image 2 pi - x; the cells about 0 and pi find their symmetric pairs
themselves.

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
# golden section keeps every node and midpoint off them.  The half circle
# of an even T needs a node set symmetric under x -> 2 pi - x: the even
# nodes and their mirror images, 2 pi (2k -+ GRID_OFFSET)/N, stay
# irrational, but their cells are centred on the rational 2 pi k/N, so
# the local stage splits those at the golden fraction GRID_OFFSET of the
# width (the symmetric uniform grid, offset 1/2, would put its nodes on
# 2 pi (k + 1/2)/N and its midpoints on 2 pi k/N)
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
    grid_size       grid route: nodes N of the base grid on the whole
                    circle, the only grid; a cosine sample's transform
                    reads N/2 of them, and their mirror images are the
                    rest; phase route: 0
    doublings_used  grid route: the deepest local split of an
                    undecided cell (0 when no cell needed one): a
                    halving on the whole circle, a golden split on the
                    half circle, which shrinks the widest piece by
                    g = 0.618 only; phase route: 0
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
class _Layout:
    """Where the cells of the grid route lie, as data.

    The transform reads T and T' at the columns 2 pi (i + offset)/columns,
    i < columns.  The cells run along a sequence of nodes: node k lies at
    h (k + offsets[k mod p]), h = 2 pi/size and p = len(offsets).  On the
    whole circle the sequence is the columns themselves, and a last cell
    wraps from the last node to node 0.  On the half circle (mirror) node
    2j + 1 is column j and node 2j the mirror image of column -j mod
    columns, for j <= columns/2, and no cell wraps.  Cell k spans the
    nodes k and k + 1, has width h widths[k mod p] and stands for weight
    cells of the circle, but the first and last cells of the half circle
    stand for one.  The local stage splits a cell at the fraction split of
    its width.
    """

    size: int
    columns: int
    offset: float
    offsets: np.ndarray
    widths: tuple
    split: float
    mirror: bool = False

    @functools.cached_property
    def h(self) -> float:
        return TWO_PI / self.size

    @functools.cached_property
    def gap(self) -> float:
        """The widest cell, in units of h."""
        return max(self.widths)

    @property
    def weight(self) -> int:
        return 2 if self.mirror else 1

    @functools.cached_property
    def cell_count(self) -> int:
        return self.columns + 1 if self.mirror else self.columns

    @functools.cached_property
    def width_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(w/3, 3/w) for the widths w = h widths[i]; cell k takes entry
        k mod p, p = len(widths) = 1 or 2, that is k & (p - 1)."""
        w = self.h * np.array(self.widths)
        return _read_only(w / 3.0), _read_only(3.0 / w)

    def positions(self, k: np.ndarray) -> np.ndarray:
        """The abscissae of the sequence nodes k."""
        return self.h * (k + self.offsets[k % self.offsets.size])

    def sequence(self, grid: np.ndarray) -> np.ndarray:
        """T and T' (rows) at the sequence nodes, from their values at the
        columns: the grid itself on the whole circle, else a scratch array
        whose even nodes, mirror images, have T' negated."""
        if not self.mirror:
            return grid
        K = self.columns // 2
        seq = scratch(2 * (self.columns + 2)).reshape(2, -1)
        seq[:, 1::2] = grid[:, :K + 1]
        mirrored = seq[:, ::2]
        mirrored[:, 0] = grid[:, 0]
        mirrored[:, 1:] = grid[:, :K - 1:-1]
        np.negative(mirrored[1], out=mirrored[1])
        return seq

    def parts(self, cells: np.ndarray):
        """[(the cells of one weight, as a mask or a slice, their weight)]."""
        if self.mirror:
            own = (cells == 0) | (cells == self.cell_count - 1)  # about 0 and pi
            if own.any():
                return [(~own, self.weight), (own, 1)]
        return [(slice(None), self.weight)]


def _screen(f: np.ndarray, margin: np.ndarray, clear0: float, cells: int) -> np.ndarray:
    """The open cells of a sequence of f.size nodes: all but those whose two
    end nodes both have margin > clear0 and one sign of f.  Cell k spans the
    nodes k and k + 1; with cells = f.size the last wraps to node 0."""
    S = f.size
    flags = scratch(2 * S + cells, bool)
    unsure, neg = flags[:2 * S].reshape(2, S)
    np.signbit(f, out=neg)
    np.greater(margin, clear0, out=unsure)
    np.logical_not(unsure, out=unsure)
    open_ = flags[2 * S:]
    inner = open_[:S - 1]
    np.not_equal(neg[:-1], neg[1:], out=inner)
    inner |= unsure[:-1]
    inner |= unsure[1:]
    if cells == S:  # the wrap cell
        open_[-1] = (neg[-1] != neg[0]) | unsure[-1] | unsure[0]
    return open_.nonzero()[0]


@functools.lru_cache(maxsize=32)
def _grid_layout(N: int, mirror: bool) -> _Layout:
    """The layout of the grid route on N nodes of the circle.

    mirror False: the N columns (i + g) h themselves, h = 2 pi/N, cells of
    one width h split at their midpoints.  mirror True (an even T, N a
    multiple of 4): the N/2 columns (2i + g) h, and for each its mirror
    image 2 pi - (2i + g) h, where T is equal and T' negated.  On
    [-g h, pi + g h] the sequence alternates mirror image and column,
    -g h, g h, (2 - g) h, (2 + g) h, ..., pi - g h, pi + g h, so the cell
    widths alternate between 2 g h and 2 (1 - g) h, and the cells about 0
    and pi are their own mirror images; every other cell stands for
    itself and its mirror image.  The cells' midpoints 2 pi k/N are
    rational, and the local stage splits them at the golden point instead.
    """
    g = GRID_OFFSET
    if not mirror:
        return _Layout(N, N, g, _read_only([g]), (1.0,), 0.5)
    # node 2j lies at (2j - g) h and node 2j + 1 at (2j + 1 + (g - 1)) h,
    # which rounds as (2j + g) h does: g - 1 is exact
    return _Layout(N, N // 2, g / 2.0, _read_only([-g, g - 1.0]), (2.0 * g, 2.0 * (1.0 - g)), g,
                   True)


def _read_only(values) -> np.ndarray:
    table = np.asarray(values)
    table.flags.writeable = False
    return table


def _grid_size(n: int, grid_per_degree: int, mirror: bool) -> int:
    """smooth_size(max(256, grid_per_degree * n)); for a mirrored layout
    the smallest 5-smooth multiple of 4 that is at least as large."""
    least = max(256, grid_per_degree * n)
    return 4 * smooth_size(-(-least // 4)) if mirror else smooth_size(least)


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

    def grid_clearance(self, w: float) -> float:
        """Row T of clearances(w, delta_grid) for one width w, as a scalar:
        the same operations in the same order, so the same bits."""
        delta = self.delta_grid
        return w ** 4 * self._interp(0) + delta[0] + (w / 3.0) * delta[1]

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
def _certificate_factors(n: int, N: int, gap: float):
    """What _certificate's bounds take from the degree, the grid size and
    the widest node gap alone: (j^k for k <= 3, the transform's
    8 u log2(N) sqrt(N), the nodes' 16 u n^(k+1), the power table's
    10 u (n+1), (n gap 2 pi/N)^2)."""
    node_factors = 16.0 * _U * float(n) ** np.arange(1, 5)
    node_factors.flags.writeable = False
    return (frequency_powers(n, 3), _FFT_ROUNDING * _U * np.log2(N) * np.sqrt(N),
            node_factors, _SUM_ROUNDING * _U * (n + 1), (n * TWO_PI * gap / N) ** 2)


def _certificate(a: np.ndarray, b: np.ndarray, N: int, grid_max: float,
                 gap: float) -> _Certificate:
    """Bounds for the coefficients a, b (largest entry O(1)) on a grid of
    N nodes of the circle, gap 2 pi/N apart at most, whose largest |T|
    value is grid_max."""
    n = a.size - 1
    powers, fft_factor, node_factors, sum_factor, nh2 = _certificate_factors(n, N, gap)
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
        # at the maximizer T' = 0 and a node lies within half a gap, so
        # max |T| <= grid max + (gap h/2)^2/2 * n^2 max |T|
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


def _open_cells(seq: np.ndarray, cells: np.ndarray, layout: _Layout, cert: _Certificate,
                clear0: float, want_roots: bool):
    """The hull and monotone tests of open cells of the layout.

    seq holds T and T' at the layout's sequence nodes (_Layout.sequence).
    Returns (count, brackets, rest): the sign changes of the monotone
    cells, their root brackets (only with want_roots), and (cells, T(lo),
    T(hi)) of the cells that passed neither test.  Its arrays of all open
    cells are freed when it returns, before the local stage allocates its
    own.
    """
    delta = cert.delta_grid
    # mode="wrap" ends the whole circle's wrap cell at node 0
    (f_lo, s0), (f_hi, s1) = seq.take(cells, axis=1), seq.take(cells + 1, axis=1, mode="wrap")
    thirds, inverse = layout.width_tables
    entry = cells & (thirds.size - 1)
    above, below = _hull_sides(f_lo, s0, f_hi, s1, thirds[entry], clear0)
    zero_free = above | below
    # T is monotone where the control points of p' clear their bound with
    # one sign.  A monotone cell counts its computed sign change: along a
    # run of them T is monotone, so the changes telescope even across a
    # node value within rounding of 0, and a run ends at nodes whose sign
    # is certain (zero-free cells) or at a cell that stays undecided (the
    # local tests demand certain end signs).  Zero-free cells take the
    # test too, but their outcome is not used.  The middle control point
    # takes each cell's own width, the clearances the larger of those of
    # the layout's widths.  A cell that is its own mirror image has equal
    # end values, so it never counts a change here
    clear_end, clear_mid = map(max, zip(*[cert.slope_clearance(layout.h * width, delta)
                                          for width in layout.widths]))
    mid = f_hi - f_lo
    mid *= inverse[entry]
    mid -= s0
    mid -= s1
    mono = (((np.minimum(s0, s1) > clear_end) & (mid > clear_mid))
            | ((np.maximum(s0, s1) < -clear_end) & (mid < -clear_mid)))
    change = mono & (np.signbit(f_lo) != np.signbit(f_hi)) & ~zero_free
    brackets = []
    if want_roots:
        # an end value within rounding of 0 is the root itself (to
        # ~delta_0/|T'|)
        at = cells[change]
        lo, hi = layout.positions(at), layout.positions(at + 1)
        v_lo, v_hi = f_lo[change], f_hi[change]
        at_lo = np.abs(v_lo) <= delta[0]
        at_hi = np.abs(v_hi) <= delta[0]
        brackets.append((np.where(at_hi, hi, lo), np.where(at_lo, lo, hi), v_lo, v_hi))
    rest = ~(zero_free | mono)
    return int(np.count_nonzero(change)), brackets, (cells[rest], f_lo[rest], f_hi[rest])


def _local_stage(cert: _Certificate, layout: _Layout, unit: PolySample, cells, f_lo, f_hi,
                 max_doublings: int, want_roots: bool):
    """(count, depth, stable, brackets) of the local stage on the cells.

    The cells are split at the layout's fraction, at most max_doublings
    times.  T at their grid nodes keeps its grid value, so that every node
    has one sign for the cells on both sides of it.
    """
    lo, hi = points = layout.positions(np.stack([cells, cells + 1]))
    jet = evaluate_jet(unit, points.ravel())
    jet[0, :cells.size], jet[0, cells.size:] = f_lo, f_hi
    jet_lo, jet_hi = jet[:, :cells.size], jet[:, cells.size:]
    count, depth, brackets = 0, 0, []
    split = layout.split
    while True:
        found, bracketed, decided = _local_cells(cert, lo, hi, jet_lo, jet_hi, unit, want_roots)
        count += found
        brackets += bracketed
        if decided.all():
            return count, depth, True, brackets
        keep = ~decided
        lo, hi, jet_lo, jet_hi = lo[keep], hi[keep], jet_lo[:, keep], jet_hi[:, keep]
        if depth == max_doublings:
            # a cell left undecided counts the change of sign bit across
            # it, as the monotone cells do
            change = np.signbit(jet_lo[0]) != np.signbit(jet_hi[0])
            brackets.append((lo[change], hi[change], jet_lo[0, change], jet_hi[0, change]))
            return count + int(np.count_nonzero(change)), depth, False, brackets
        # at split = 1/2 this is the midpoint 0.5 (lo + hi) to the bit
        mid = (1.0 - split) * lo + split * hi
        jet_mid = evaluate_jet(unit, mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        jet_lo = np.concatenate([jet_lo, jet_mid], axis=1)
        jet_hi = np.concatenate([jet_mid, jet_hi], axis=1)
        depth += 1


def _certified_count(unit: PolySample, layout: _Layout, max_doublings: int, want_roots: bool,
                     tol: float):
    """(count, doublings, stable, roots) of the grid route on the layout.

    unit is the sample scaled by a power of two so that its largest
    coefficient is O(1): the bounds never overflow, and the signs are
    those of the sample itself.  The node-sized arrays are scratch
    arrays, and every array returned is a copy.  The brackets of the
    roots are gathered only with want_roots.
    """
    seq = layout.sequence(evaluate_on_grid(unit, layout.columns, layout.offset, order=(0, 1)))
    size, slack = np.abs(seq, out=scratch(seq.size).reshape(seq.shape))
    cert = _certificate(unit.a, unit.b, layout.size, float(size.max()), layout.gap)
    widest = layout.h * layout.gap
    clear0 = cert.grid_clearance(widest)
    # |f| - w |f'|/3 bounds the two control points beside a node on the
    # side of f for cells of width w or less: cells whose ends both pass
    # with one sign are zero-free, and only the others (open) take the
    # full hull test
    slack *= widest / 3.0
    size -= slack
    count, brackets, (cells, f_lo, f_hi) = _open_cells(
        seq, _screen(seq[0], size, clear0, layout.cell_count), layout, cert, clear0, want_roots)
    count *= layout.weight
    brackets = [(layout.weight, ends) for ends in brackets]

    depth = 0
    stable = True
    if cells.size:
        for part, weight in layout.parts(cells):
            found, deep, settled, bracketed = _local_stage(
                cert, layout, unit, cells[part], f_lo[part], f_hi[part], max_doublings,
                want_roots)
            count += weight * found
            depth, stable = max(depth, deep), stable and settled
            brackets += [(weight, ends) for ends in bracketed]

    roots = None
    if want_roots:
        weights, ends = zip(*brackets)
        found = _refine_roots(lambda x, _: evaluate_jet(unit, x, order=1),
                              *(np.concatenate(column) for column in zip(*ends)), tol)
        # a zero of a cell that stands for its mirror image too brings 2 pi - x
        twice = np.repeat(np.array(weights) == 2, [lo.size for lo, *_ in ends])
        roots = np.sort(np.mod(np.concatenate([found, TWO_PI - found[twice]]), TWO_PI))
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
    * n)) nodes with at most max_doublings local splits of an undecided
    cell (at the midpoint, so finest spacing 2 pi/N 2^-max_doublings).  A
    cosine sample (T even; a nonzero b is a ValueError) is certified on
    the half circle: the smallest 5-smooth multiple of 4 at or above that
    size, one transform of half as many nodes, their mirror images, and
    splits at the golden fraction g = 0.618 of a cell, so the widest
    piece is 2 g^(max_doublings + 1) 2 pi/N, 0.18 of 2 pi/N at the default
    4 where the whole circle reaches 0.0625.  On 200 close zero pairs
    built at that budget each route certified some that the other left
    undecided (4 the whole circle only, 11 the half circle only), and the
    half circle with two more splits certified every pair that the whole
    circle did.  The returned count satisfies the hard ceiling 2n.

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
    mirror = model.kind == "cosine"  # T is even, which the half circle needs
    if mirror and sample.b.any():
        raise ValueError(f"nonzero b in a cosine sample, whose b is 0; model={model}, "
                         f"seed={sample.seed}")
    unit = sample.unit()
    N = _grid_size(n, grid_per_degree, mirror)
    count, doublings, stable, roots = _certified_count(unit, _grid_layout(N, mirror),
                                                       max_doublings, want_roots, tol)
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
