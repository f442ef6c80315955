"""Expected-zero counts via the Gaussian first-moment (Kac-Rice) integral.

For a centered Gaussian process T(x) = sum_j c_j f_j(x) with i.i.d. N(0, s^2)
coefficients, the expected number of zeros on (lo, hi) is

    E[N] = (1/pi) * integral over (lo, hi) of sqrt(A*C - B^2) / A dx,

with A = sum f_j^2, B = sum f_j f_j', C = sum (f_j')^2.  The variance s^2
cancels in the ratio, so everything here is sigma-free.

Every route reads the degree split of CoefficientModel.period(n), in
which the i.i.d. model is the vacuous period ell = n + 1 (m = 1, r = 0:
no coefficient repeats).  Three evaluation routes for (A, B, C):

* ``abc_closed``   -- closed forms for every raw (unfactored) model, O(1) to
  O(ell) work per point.  Every split but cosine with ell = n + 1 goes
  through one core over the ell grouped directions sum_t cos((k + ell t) x)
  = phi_M(x) cos(nu_k x) (and the sine twins for trig), (M_k, 2 nu_k) from
  PeriodDecomposition.directions, with phi_M and phi_M' for both M from
  one trigpoly.dirichlet_pairs; at ell = n + 1 every M is 1.  Cosine with
  ell = n + 1, i.i.d. or periodic, goes through
  K(t) = sum_{j<=n} cos jt at t = 2x, on nodes reduced modulo pi (A, B
  and C have period pi), and the few nodes within 1/n of 0 and pi
  through a Taylor table in their reduced offset, O(1) a node.
* ``abc_reduced``  -- (A, B, C) of the *reduced* polynomial that remains after
  factoring phi_m out of a block-periodic sample with r = 0: the same core
  over the ReducedSample frequencies with M = 1, so phi = 1 and phi' = 0,
  and the core skips its products with them, which is exact.
* ``abc_direct``   -- literal O(n)-per-point sums over the independent
  Gaussian directions, chunked over x: the oracle of the tests and the
  full-circle reference of the benchmark.  No route calls it.

``expected_zeros_quadrature`` integrates the appropriate route with one fixed
rule: _NODES-point Gauss-Legendre on _PANELS_PER_DEGREE panels per degree
(panel width ~ 1/n, the oscillation scale), then on twice as many for the
error estimate.  It integrates one symmetry cell [0, pi/q] of the density
and multiplies by 2q: the density of every route it calls is even and
2 pi/q-periodic, so the circle holds 2q mirror copies of the cell.  The
fold order q is

* ell for trig, both routes and every r and m, i.i.d. (ell = n + 1)
  included: the directions phi_M(x) cos(nu x), phi_M(x) sin(nu x) enter
  A, B, C only through phi_M^2, phi_M phi_M' and phi_M'^2, and
  phi_M(x + 2 pi/ell) = (-1)^(M-1) phi_M(x), phi_M(-x) = phi_M(x), so A
  and C are even, B is odd, and all three are 2 pi/ell-periodic;
* 2 for cosine with ell = n + 1, whose A, C (even) and B (odd) are
  functions of K(2x), and K is even with period 2 pi;
* 1 for every other cosine split, on both routes: every sample is even,
  so A, C are even and B odd, and 2 pi-periodic even when the reduced
  frequencies nu_k are half-integers (cos^2(nu x) has period pi/nu).

``expected_zeros_exact_r0`` returns the closed-form count for the trig
model at every r = 0 degree, where the stationary reduced process makes the
integral elementary; at ell = n + 1 it is the i.i.d. trig law.

Near the degree-grid lattice points x = 2*pi*k/ell the closed forms for r != 0
involve cancellations between O(n^2) terms, and A itself dips toward its
positive floor; quadrature there is dominated by narrow spikes of the
integrand.  The spike mass is O(width * n), so the engine excises windows
around the lattice that shrink like m^(-1/5) (n^(-1/3) for the reduced
cosine route) and folds an estimate of the excised mass (average-density
scale n/pi per unit length) into the error estimate instead of chasing the
spikes with panels.  The windows, centred on 2 pi k/ell or on 0, pi and
2 pi, map onto each other under the reflections that fold the circle, so
the cell [0, pi/q] is excised where the circle is and carries 1/(2q) of the
excised length.

Gauss-Legendre on panels is the one quadrature rule of the package,
with nodes and weights from _legendre_rule: the Kac-Rice integrals build
PanelNodes blocks of at most _BLOCK_POINTS nodes from it on uniform
panels, and ``composite_gauss_legendre``, which spells the same rule out
as node and weight arrays, serves the ``constants`` module's graded
Duffy triangles.  Each expected_zeros_quadrature call runs both passes
in one trigpoly.scratch_scope: the phases, the Dirichlet kernel, A, B,
C, the discriminant, the density and the weights are written into
scratch() buffers with out= and in-place ufuncs, in the same operations
and order as fresh arrays would be.  So memory stays at about ten
block-sized buffers, a few MB, whatever the degree, and each block
writes to pages that an earlier block of the call faulted in.  The pool
dies with the call, and an array a route returns is never overwritten
while its caller holds it.

A block is a PanelNodes, and the routes take each phase e^{ifx} at its
nodes x = mid_p + half z_i as e^{if mid_p} e^{if half z_i}: 2 sines and
cosines per panel and frequency, not 2 per node (they cost tens of ns an
element, a product under one).  The factors round their angles to about
u|f mid_p| and u|f half z_i|, as np.cos(f * x) rounds f * x to u|fx|.
The Dirichlet kernel takes the block too (trigpoly.dirichlet_pairs, where
PanelNodes lives): one lattice reduction per panel, and the small argument
s = sigma_p + tau_i of phi_M split the same way, each part rounded once,
so s keeps its relative accuracy.  That is 4 sines and cosines per panel;
only the few panels beside the lattice that reach M|s| < 1.5 are reduced
node by node.  Graded panels would form one block per width, and gain
only where widths repeat.

The density needs A*C - B^2 >= 0, which roundoff can break by a few ulp.
AbcTriple.discriminant screens it with one minimum over the block: only
a negative or NaN minimum pays for the relative check against
1e-12 max(A*C, 1), which clamps roundoff to zero and raises beyond it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .models import PeriodDecomposition, PolySample, decompose_degree
from .trigpoly import PanelNodes, dirichlet_pair, dirichlet_pairs, scratch, scratch_scope

TWO_PI = 2.0 * math.pi

_DIRECT_CHUNK_BUDGET = 500_000  # max elements per (points x frequencies) block
_BLOCK_POINTS = 1 << 15  # max integrand nodes per quadrature block
_NODES = 16  # Gauss-Legendre nodes per panel, here and in constants
_PANELS_PER_DEGREE = 8  # first-pass panels per degree over the circle
_MIN_PANELS = 64  # panel floor of the first pass at small n
_TAYLOR_DEGREE = 34  # highest power of t in _cosine_taylor
_PI_LO = 1.2246467991473532e-16  # pi - math.pi


# ---------------------------------------------------------------------------
# (A, B, C) triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbcTriple:
    """Covariance data A = Var T, B = Cov(T, T'), C = Var T' at points x.

    discriminant and integrand take their arrays from trigpoly.scratch."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def discriminant(self) -> np.ndarray:
        """A*C - B^2, clamped to zero when negative within roundoff.

        Raises when it falls below -1e-12 max(A*C, 1) and reports the
        worst d / max(A*C, 1), the quantity that the check compares.  One
        d.min() screens d: only a negative or NaN minimum builds that
        scale and the ratio, so a NaN beside a real violation still raises.
        """
        d = np.multiply(self.A, self.C, out=scratch(self.A.size).reshape(self.A.shape))
        d -= np.multiply(self.B, self.B, out=scratch(d.size).reshape(d.shape))
        if d.min(initial=0.0) >= 0.0:  # False for NaN; an empty d passes
            return d
        ac = self.A * self.C
        scale = np.maximum(ac, 1.0)
        if np.any(d < -1e-12 * scale):
            worst = float((d / scale).min())
            raise FloatingPointError(
                f"A*C - B^2 < 0 beyond roundoff (relative {worst:.3e})"
            )
        return np.maximum(d, 0.0, out=d)

    def integrand(self) -> np.ndarray:
        """sqrt(A*C - B^2) / (pi * A), the Kac-Rice density."""
        density = self.discriminant()
        np.sqrt(density, out=density)
        density /= np.multiply(math.pi, self.A, out=scratch(self.A.size).reshape(self.A.shape))
        return density


def _basis_functions(sample: PolySample, x: np.ndarray):
    """Independent-direction basis values and derivatives, shape (dirs, len(x)).

    For i.i.d. coefficients every frequency is its own direction.  For
    ell-periodic coefficients the directions are the ell (or 2*ell) grouped
    sums sum_t cos((k + ell*t) x), one per distinct random coefficient.
    """
    n = sample.n
    model = sample.model
    if model.dep == "iid":
        j = np.arange(n + 1, dtype=float)
        jx = np.multiply.outer(j, x)
        rows_cos = np.cos(jx)
        rows_cos_d = -j[:, None] * np.sin(jx)
        if model.kind == "cosine":
            return rows_cos, rows_cos_d
        rows_sin = np.sin(jx)
        rows_sin_d = j[:, None] * np.cos(jx)
        return (
            np.vstack([rows_cos, rows_sin]),
            np.vstack([rows_cos_d, rows_sin_d]),
        )

    j = np.arange(n + 1)
    rows = []
    rows_d = []
    for k in range(model.ell):
        freqs = j[j % model.ell == k].astype(float)
        fx = np.multiply.outer(freqs, x)
        rows.append(np.cos(fx).sum(axis=0))
        rows_d.append(-(freqs[:, None] * np.sin(fx)).sum(axis=0))
    if model.kind == "trig":
        for k in range(model.ell):
            freqs = j[j % model.ell == k].astype(float)
            fx = np.multiply.outer(freqs, x)
            rows.append(np.sin(fx).sum(axis=0))
            rows_d.append((freqs[:, None] * np.cos(fx)).sum(axis=0))
    return np.vstack(rows), np.vstack(rows_d)


def abc_direct(sample: PolySample, x) -> AbcTriple:
    """Literal O(n)-per-point sums over the directions of _basis_functions,
    the oracle of the tests, in chunks of _DIRECT_CHUNK_BUDGET // (n+1)
    points: every basis array is O(chunk * n), and chunking changes no value.
    The points are ravelled, as abc_closed and abc_reduced ravel theirs."""
    x = np.asarray(x, dtype=float).ravel()
    A, B, C = np.empty((3,) + x.shape)
    chunk = max(1, _DIRECT_CHUNK_BUDGET // (sample.n + 1))
    for lo in range(0, x.size, chunk):
        f, fd = _basis_functions(sample, x[lo:lo + chunk])
        A[lo:lo + chunk] = (f * f).sum(axis=0)
        B[lo:lo + chunk] = (f * fd).sum(axis=0)
        C[lo:lo + chunk] = (fd * fd).sum(axis=0)
    return AbcTriple(A, B, C)


def _grouped_abc(kind: str, ell: int, directions, block: PanelNodes):
    """A, B, C over the ell grouped directions (M, freq_twice) of a
    periodic sample: direction k sums M_k frequencies of mean
    nu_k = freq_twice[k]/2,

        g_k = phi_{M_k}(x) cos(nu_k x),

    and for trig also h_k = phi_{M_k}(x) sin(nu_k x).  (phi_M, phi_M') of
    every M > 1 (m and m+1) comes from one dirichlet_pairs reduction of
    the block.  Cosine sums g_k^2, g_k g_k' and g_k'^2 with the block's
    phases of nu_k x.  For trig the cross terms cancel, leaving

        A = sum phi^2,  B = sum phi phi',  C = sum (phi'^2 + nu^2 phi^2),

    one term per distinct M and no cosine or sine at all.

    A direction of size M = 1 (every direction of abc_reduced) has phi = 1
    and phi' = 0 and skips the products with them: g = cos(nu x) and
    g' = -nu sin(nu x) for cosine; for trig A gains the number of such
    directions, B nothing and C their sum of nu^2.  A product by 1.0 and
    a sum with 0.0 times a finite number change no value, so the skip is
    exact, up to the sign of a zero in B.  A, B and C start as the first
    direction's terms.
    """
    M, freq_twice = directions
    sizes = sorted(set(M.tolist()), reverse=True)  # m+1 before m: M = 1 comes last
    orders = sorted(size for size in sizes if size > 1)  # m and m+1 at most
    pairs = dict(zip(orders, dirichlet_pairs(orders[0], ell, block, len(orders)))) if orders else {}
    groups = [(size, freq_twice[M == size] / 2.0, pairs.get(size)) for size in sizes]
    if kind == "trig":
        return _trig_sums(groups, block)
    A, B, C, gd, term = (block.empty() for _ in range(5))
    first = True
    for size, nus, pair in groups:
        for nu in nus.tolist():
            cos_nu, sin_nu = block.cis(nu)
            if size == 1:  # phi = 1, phi' = 0
                g = cos_nu
                np.multiply(-nu, sin_nu, out=gd)
            else:
                phi, phid = pair
                g = np.multiply(phi, cos_nu, out=block.empty())
                np.multiply(phid, cos_nu, out=gd)
                gd -= _scaled_product(nu, phi, sin_nu, term)
            for acc, u, v in ((A, g, g), (B, g, gd), (C, gd, gd)):
                if first:
                    np.multiply(u, v, out=acc)
                else:
                    acc += np.multiply(u, v, out=term)
            first = False
            del cos_nu, sin_nu, g  # the next direction's phase reuses this one's array
    return A, B, C


def _scaled_product(c: float, u, v, out):
    """(c u) v into out."""
    np.multiply(c, u, out=out)
    out *= v
    return out


def _trig_sums(groups, block: PanelNodes):
    """A, B, C of _grouped_abc for trig: one term per size (M, nus, pair)."""
    A = B = C = None
    term, term2 = block.empty(), block.empty()
    for size, nus, pair in groups:
        count, square = nus.size, float((nus * nus).sum())
        if size == 1:  # the last size: phi = 1, phi' = 0
            if A is None:  # every M is 1: a stationary process
                A, B, C = block.empty(), block.empty(), block.empty()
                A.fill(float(count))
                B.fill(0.0)
                C.fill(square)
                return A, B, C
            A += count
            C += square
            continue
        phi, phid = pair
        if A is None:
            A = _scaled_product(count, phi, phi, block.empty())
            B = _scaled_product(count, phi, phid, block.empty())
            C = _scaled_product(count, phid, phid, block.empty())
            C += _scaled_product(square, phi, phi, term)
        else:
            A += _scaled_product(count, phi, phi, term)
            B += _scaled_product(count, phi, phid, term)
            c = _scaled_product(count, phid, phid, term)
            c += _scaled_product(square, phi, phi, term2)
            C += c
    return A, B, C


@functools.lru_cache(maxsize=None)
def _cosine_taylor(n: int) -> np.ndarray:
    """The i.i.d. cosine A, B, C (columns) at x = k pi + y as power series
    in t = 2 n y, to t^_TAYLOR_DEGREE (rows).  cos(j(k pi + y))^2 =
    (1 + cos 2jy)/2 and so on, so with s_p = sum_{j<=n} (j/n)^p

        A = n+1 + (1/2) sum_{k>=1} (-1)^k s_{2k} t^{2k}/(2k)!,
        B = -(n/2) sum_{k>=0} (-1)^k s_{2k+2} t^{2k+1}/(2k+1)!,
        C = (n^2/2) sum_{k>=1} (-1)^(k+1) s_{2k+2} t^{2k}/(2k)!.

    At |t| <= pi the first term left out is below 1e-23 of the largest.
    Built once per n and read-only, since every call at that degree shares it."""
    frac = np.arange(n + 1.0) / n
    s = np.array([(frac ** p).sum() for p in range(_TAYLOR_DEGREE + 3)])
    q = np.arange(_TAYLOR_DEGREE + 1)
    signed = (-1.0) ** (q // 2) / np.cumprod(np.maximum(q, 1.0))  # float q!: int64 overflows at 21!
    table = signed[:, None] * np.stack([0.5 * s[q], -0.5 * n * s[q + 1], -0.5 * n * n * s[q + 2]], 1)
    table[1::2, 0::2] = 0.0  # A and C are even in t
    table[0::2, 1] = 0.0  # B is odd
    table[0] = (n + 1.0, 0.0, 0.0)
    table.flags.writeable = False
    return table


def _cosine_closed(sample: PolySample, block: PanelNodes) -> AbcTriple:
    """The i.i.d. cosine forms of abc_closed, phi = phi_{n+1}(.; 1) at
    t = 2x, from dirichlet_pair on the doubled block (2 mid, 2 half, z;
    doubling is exact), with phi'' from
    phi_ss = (1 - m^2) phi - 2 cot(s) phi_s, s = t/2 = x.

    A, B and C have period pi, so the block is first reduced once per
    panel, mid <- (mid - k pi_hi) - k pi_lo with k = rint(mid/pi) and pi
    in two parts, and everything is evaluated at the reduced nodes
    y = mid + half z, |y| <= pi/2 + half.  The phases of y beside pi and
    2 pi are then as exact as beside 0.  In the quadrature cell
    [0, pi/2] every k is 0, and the reduction changes no bit.

    Next to y = 0, C = (S2 + K''(2y))/2 cancels two terms of size about
    n^3/3 (K''(0) = -S2), and phi'' divides phi' by sin y: 1e-12 from
    2 pi the closed C reads -1.2e-4 at n = 1 and -1316 at n = 400, where
    the literal sums give 1e-24 and 2e-12.  So _cosine_taylor's table
    overwrites the nodes with |sin y| < 1/n, at the offset y itself.
    """
    k = np.rint(block.mid / math.pi)
    block = PanelNodes((block.mid - k * math.pi) - k * _PI_LO, block.half, block.z)
    n = sample.n
    S2 = n * (n + 1) * (2 * n + 1) / 6.0
    cos_x, sin_x = block.cis(1.0)
    cos_n, sin_n = block.cis(float(n))
    doubled = PanelNodes(2.0 * block.mid, 2.0 * block.half, block.z)
    phi, phid = dirichlet_pair(n + 1, 1, doubled)
    phidd, K, Kd, term = (block.empty() for _ in range(4))
    with np.errstate(divide="ignore", invalid="ignore"):  # at sin x = 0, overwritten
        np.multiply(0.25 * (1.0 - (n + 1.0) ** 2), phi, out=phidd)
        np.divide(cos_x, sin_x, out=term)
        term *= phid
        phidd -= term
    np.multiply(phi, cos_n, out=K)
    np.multiply(phid, cos_n, out=Kd)
    Kd -= _scaled_product(0.5 * n, phi, sin_n, term)
    Kdd = np.multiply(phidd, cos_n, out=phidd)  # phidd is not read again
    Kdd -= _scaled_product(n, phid, sin_n, term)
    Kdd -= np.multiply(0.25 * n * n, K, out=term)
    # A, B, C = (n + 1 + K)/2, K'/2, (S2 + K'')/2, in place of K, K', K''
    A, B, C = K, Kd, Kdd
    A += n + 1.0
    A *= 0.5
    B *= 0.5
    C += S2
    C *= 0.5
    near = np.flatnonzero(np.abs(sin_x, out=term) < 1.0 / n)
    panel, node = np.divmod(near, block.z.size)
    y = block.mid[panel] + block.half * block.z[node]
    A[near], B[near], C[near] = np.polynomial.polynomial.polyval(2.0 * n * y, _cosine_taylor(n))
    return AbcTriple(A=A, B=B, C=C)


def abc_closed(sample: PolySample, x) -> AbcTriple:
    """O(1)-to-O(ell)-per-point closed forms for the raw (unfactored) polynomial.

    x is an array of points or a PanelNodes block.  The split is
    model.period(n).  Every split but cosine with ell = n+1: the sums
    over the ell grouped directions
    g_k = phi_M(x) cos(nu_k x) (and h_k = phi_M(x) sin(nu_k x) for trig),
    M = m+1 for k < r and m otherwise, nu_k = k + (M-1) ell/2
    (PeriodDecomposition.directions); see _grouped_abc.  dirichlet_pairs'
    series keeps phi_M' accurate up to the lattice.  Trig with ell = n+1
    (i.i.d. trig) has every M = 1, so A = n+1, B = 0 and
    C = sum_{j<=n} j^2 = n(n+1)(2n+1)/6, all exact.

    Cosine with ell = n+1, i.i.d. or periodic (no coefficient repeats):
    the covariance is (K(x-y) + K(x+y))/2 with
    K(t) = sum_{j<=n} cos jt = phi_{n+1}(t; 1) cos(n t/2), so

        A = (n + 1 + K(2x))/2,  B = K'(2x)/2,  C = (S2 + K''(2x))/2,

    S2 = n(n+1)(2n+1)/6, and a Taylor table next to 0 and pi, where C
    cancels (see _cosine_closed).
    """
    block = PanelNodes.of(x)
    kind, dec = sample.model.kind, sample.split
    if kind == "cosine" and dec.ell == sample.n + 1:
        return _cosine_closed(sample, block)
    return AbcTriple(*_grouped_abc(kind, dec.ell, dec.directions(), block))


def abc_reduced(sample: PolySample, x) -> AbcTriple:
    """(A, B, C) of the reduced polynomial after factoring out phi_m (r = 0).

    x is an array of points or a PanelNodes block.  The reduced
    polynomial keeps one direction per residue class at the grouped
    frequencies nu_k, so these are the grouped sums of abc_closed over
    those frequencies with M = 1: phi = 1 and phi' = 0.  Trig: the
    reduced process is stationary, A = ell, B = 0,
    C = sum nu_k^2 = ell (3 n^2 + ell^2 - 1) / 12.
    Cosine: O(ell) sums of cos(nu_k x) and its derivative.
    """
    dec = sample.split
    if sample.model.dep != "periodic" or dec.r != 0:
        raise ValueError(f"no reduced form: needs a periodic model with r = 0, "
                         f"got dep={sample.model.dep}, r={dec.r}")
    block = PanelNodes.of(x)
    freq_twice = dec.directions()[1]
    directions = (np.ones_like(freq_twice), freq_twice)
    return AbcTriple(*_grouped_abc(sample.model.kind, dec.ell, directions, block))


# ---------------------------------------------------------------------------
# Quadrature engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KacRiceResult:
    value: float
    abs_error_estimate: float
    panels_used: int
    excluded_windows: tuple = ()
    excluded_mass_estimate: float = 0.0
    deterministic_zeros: int = 0

    def total(self) -> float:
        """Deterministic zeros plus the integrated random-zero count."""
        return self.deterministic_zeros + self.value


@functools.lru_cache(maxsize=None)
def _legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per size
    and read-only, since every caller shares them."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def composite_gauss_legendre(edges: np.ndarray, nodes: int):
    """Nodes/weights of Gauss-Legendre with `nodes` points on each panel.

    The panels are the intervals between consecutive entries of edges.
    """
    z, w = _legendre_rule(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + halfw[:, None] * z[None, :]).ravel()
    ws = (halfw[:, None] * w[None, :]).ravel()
    return xs, ws


def _integrate_panels(func, intervals, n_panels_total: int):
    """Integrate func over the union of intervals with ~n_panels_total panels
    of _NODES points.

    func sees one PanelNodes block of at most _BLOCK_POINTS nodes per call,
    with the weights of composite_gauss_legendre.  The weights go into a
    scratch buffer that func has freed, the density is weighted in place
    there, and both are idle again before the next block.
    """
    z, w = _legendre_rule(_NODES)
    total_len = sum(hi - lo for lo, hi in intervals)
    block = _BLOCK_POINTS // _NODES
    value = 0.0
    panels_used = 0
    for lo, hi in intervals:
        share = max(1, int(round(n_panels_total * (hi - lo) / total_len)))
        edges = np.linspace(lo, hi, share + 1)
        for first in range(0, share, block):
            e = edges[first:first + block + 1]
            nodes = PanelNodes(0.5 * (e[1:] + e[:-1]), 0.5 * (hi - lo) / share, z)
            density = func(nodes)
            ws = nodes.empty().reshape(-1, w.size)  # after func: an array it has freed
            ws = np.multiply(0.5 * (e[1:] - e[:-1])[:, None], w, out=ws).ravel()
            # numpy's own sum, not a BLAS dot, whose result depends on its threads
            value += float(np.multiply(density, ws, out=ws).sum())
            del density, ws  # idle again before the next block
        panels_used += share
    return value, panels_used


def _exclusion_windows(kind: str, dec: PeriodDecomposition) -> list:
    """(center, half-width) of the integrable-spike windows to excise.

    r != 0 with m >= 2: lattice points 2 pi k / ell, half-width
    (2/ell) m^{-1/5} (the remainder-balancing choice).
    Cosine r = 0 with m >= 2 (reduced route): {0, pi, 2 pi}, half-width
    n^{-1/3}.  Everything else, m = 1 and so i.i.d. included: none.
    """
    if dec.m == 1:
        return []  # A stays bounded below
    if dec.r != 0:
        half = (2.0 / dec.ell) * dec.m ** (-0.2)
        half = min(half, math.pi / (4.0 * dec.ell))  # never swallow a cell
        return [(TWO_PI * k / dec.ell, half) for k in range(dec.ell + 1)]
    if kind == "cosine":  # the sample factors
        half = min(float(dec.n) ** (-1.0 / 3.0), 0.5)
        return [(c, half) for c in (0.0, math.pi, TWO_PI)]
    return []


def _excise(lo: float, hi: float, windows):
    """Subtract |windows| (center, half-width) from [lo, hi]; keep >0-length."""
    cuts = []
    for c, h in windows:
        a, b = c - h, c + h
        if b > lo and a < hi:
            cuts.append((max(a, lo), min(b, hi)))
    cuts.sort()
    intervals = []
    cursor = lo
    for a, b in cuts:
        if a > cursor:
            intervals.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        intervals.append((cursor, hi))
    return intervals, cuts


def _fold_order(kind: str, dec: PeriodDecomposition) -> int:
    """q such that the Kac-Rice density is even and 2 pi/q-periodic (see the
    module docstring)."""
    if kind == "trig":
        return dec.ell
    return 2 if dec.ell == dec.n + 1 else 1


def expected_zeros_quadrature(sample: PolySample) -> KacRiceResult:
    """E[number of zeros on (0, 2 pi)] by Kac-Rice quadrature.

    Dispatch, on the split model.period(n), where i.i.d. is the vacuous
    period ell = n + 1 (m = 1, r = 0):
      * samples that factor (r = 0, m >= 2) -- deterministic lattice zeros
        counted exactly, plus quadrature of the reduced factor
        (abc_reduced); cosine additionally excises n^{-1/3} windows where
        the reduced A touches zero.
      * m = 1 (i.i.d. included: for trig a constant density, for cosine
        the i.i.d. forms) and r != 0 with lattice windows excised --
        abc_closed.
      * cosine with ell = 1 -- a rank-one process with no Kac-Rice
        density: its 2n deterministic zeros, with zero error.

    The routes are integrated over the symmetry cell [0, pi/q] of the
    density (see the module docstring), and the integral I times 2q.  The
    cell gets ceil(P/(2q)) panels of _NODES points in the first pass and
    twice that in the second, P = max(_MIN_PANELS, _PANELS_PER_DEGREE n)
    being the whole-circle panel count, so the panel width is that of a
    whole-circle rule.  The error estimate is 2q |I(2P) - I(P)| from panel
    doubling plus the excised mass estimate (n/pi per unit length, the
    circle-average density scale).  excluded_windows lists the cuts of the
    whole circle and panels_used counts the panels of the second pass over
    the whole circle, 2q per cell panel.
    """
    kind, n, dec = sample.model.kind, sample.n, sample.split
    if kind == "cosine" and dec.ell == 1:
        # rank one: every draw is a_0 sum_{j<=n} cos jx = a_0 phi_{n+1}(x)
        # cos(nx/2), whose 2n zeros (with multiplicity) are deterministic
        return KacRiceResult(value=0.0, abs_error_estimate=0.0, panels_used=0,
                             deterministic_zeros=2 * n)

    windows = _exclusion_windows(kind, dec)
    route = abc_reduced if dec.factors else abc_closed
    func = lambda xs: route(sample, xs).integrand()  # noqa: E731

    fold = 2 * _fold_order(kind, dec)
    intervals, _ = _excise(0.0, TWO_PI / fold, windows)
    _, cuts = _excise(0.0, TWO_PI, windows)
    excluded_len = sum(b - a for a, b in cuts)
    # 2n zeros per 2 pi gives the average-density scale n/pi; the true window
    # mass is of this order (not a pointwise bound -- the density spikes there)
    mass_est = excluded_len * n / math.pi

    n_panels = math.ceil(max(_MIN_PANELS, _PANELS_PER_DEGREE * n) / fold)
    with scratch_scope():
        cell, _ = _integrate_panels(func, intervals, n_panels)
        cell2, panels_used = _integrate_panels(func, intervals, 2 * n_panels)
    value = fold * cell2
    err = fold * abs(cell2 - cell) + mass_est

    total = dec.deterministic_zeros + value
    if total > 2.0 * n + 0.5:
        raise FloatingPointError(
            f"Kac-Rice total {total:.3f} exceeds the 2n ceiling for n={n}"
        )
    return KacRiceResult(
        value=value,
        abs_error_estimate=err,
        panels_used=fold * panels_used,
        excluded_windows=tuple(cuts),
        excluded_mass_estimate=mass_est,
        deterministic_zeros=dec.deterministic_zeros,
    )


def expected_zeros_exact_r0(n: int, ell: int) -> float:
    """Closed-form E[N(0, 2 pi)] for the ell-periodic trig model at every
    degree with r = 0 (ell | n+1), m = 1 included.

    Deterministic lattice zeros contribute n + 1 - ell; the reduced factor is
    stationary with A = ell, C = ell (3 n^2 + ell^2 - 1)/12, so its Kac-Rice
    integral is 2 sqrt(C/A) = sqrt(n^2 + (ell^2 - 1)/3).  At m = 1 no
    coefficient repeats and the law is the i.i.d. trig one: ell = n + 1
    gives 2 sqrt(n (2n+1)/6).
    """
    dec = decompose_degree(n, ell)
    if dec.r != 0:
        raise ValueError(f"n={n} is not of the form ell*m - 1 for ell={ell}")
    return dec.deterministic_zeros + math.sqrt(n * n + (ell * ell - 1) / 3.0)
