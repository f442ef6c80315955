"""Evaluation kernels and periodic structure of the sampled polynomials.

Evaluation routes
-----------------
evaluate                         chunked dense summation at arbitrary
ReducedSample.evaluate           abscissae, O(n) (O(ell) for T*) per
                                 point; the independent oracles of the
                                 tests, and evaluate gives the root
                                 residuals of `trigzeros count
                                 --dump-roots`.
evaluate_jet                     T_n, T_n', ... at arbitrary points
                                 from a two-level power table, e^{ijx}
                                 = e^{iBpx} e^{iqx} with B ~ sqrt(n):
                                 O(sqrt n) phases and one complex
                                 matrix product per point; the zero
                                 certificate's cups (grid and local
                                 alike), its local bisection and the
                                 Newton refinement of its roots use
                                 it.  What depends on the degree
                                 alone (the powers j^k, the table's
                                 exponents and binomial weights and
                                 its weight matrix per order, the grid
                                 twist) is built once per degree, and
                                 the coefficients' layout once per
                                 sample record (_TableCoefficients).
evaluate_on_grid                 all values of T_n or a derivative on a
                                 uniform offset grid x_i = 2 pi (i +
                                 offset)/N through one real inverse FFT
                                 of the Hermitian half spectrum,
                                 O(N log N) total; exact coefficient
                                 folding covers N <= 2n.  A tuple of
                                 orders gives one row each from one
                                 batched transform.  The i.i.d. counting
                                 route certifies its count from T and T'
                                 on one grid, one order=(0, 1) call (of
                                 half the grid's nodes for an even,
                                 cosine, sample), and so does a periodic
                                 sample with r = 0 and m = 1, from T's
                                 record (_TableCoefficients).
numerator_on_grid                W and W' of the lattice numerator
                                 W = 2 sin(ell x/2) T_n (below) on the
                                 grid, from a cached table of its ell
                                 classes at N/ell nodes, folded by the
                                 lattice shift: two products of an
                                 (ell, 2 ell) rotation of its
                                 coefficients with the table's halves,
                                 O(ell N), from a table of 32 N bytes;
                                 the counting route of every r != 0
                                 sample reads W there.
numerator_jet                    W, W', ... at arbitrary points from its
                                 2 ell sinusoids, O(ell) a point: the
                                 cups, local bisection and root
                                 refinement of the r != 0 route.  W's
                                 two functions read the ell class
                                 coefficients alone, and a sample record
                                 (_NumeratorTerms) keeps W's terms and
                                 jet weights for its caller.  The
                                 r = 0 route counts T* from its carrier
                                 phase (zeros.carrier_phase) without a
                                 grid.

Scratch arrays
--------------
scratch(size, dtype) is the source of the node-sized arrays that the
Kac-Rice kernels overwrite (PanelNodes blocks, dirichlet_pairs and the
kacrice routes); scratch_scope() reuses its buffers for the length of
one quadrature, and outside any scope each array is fresh.  The Monte
Carlo grids and W's tables allocate plainly.

Structure of ell-periodic samples
---------------------------------
Grouping j = k + ell*t and summing the geometric series in t gives the
exact identity

    sum_{t=0}^{M-1} cos((k + ell t)x)
        = phi_M(x) * cos((k + (M-1) ell/2) x),
    phi_M(x) = sin(M ell x/2) / sin(ell x/2),

and likewise with sin on both sides.  So a sample whose coefficients
repeat with period ell is a sum of ell grouped directions,

    T_n(x) = sum_{k<ell} phi_{M_k}(x) (a_k cos nu_k x + b_k sin nu_k x),

with M_k = m + 1 for k < r, M_k = m otherwise and nu_k = k + (M_k - 1)
ell/2 (PeriodDecomposition.directions).  When ell | n+1 (r = 0, M = m for
every residue k) the whole sample factors as

    T_n(x) = phi_m(x) * T*(x),

where T* keeps one coefficient pair per residue class at the shifted
frequencies k + (m-1) ell/2.  Those frequencies are half-integers when
(m-1) ell is odd; they are stored as exact integer numerators over 2,
so reduction introduces no frequency rounding at all.  phi_m vanishes
at ell(m-1) points per full period - the deterministic zeros - and
extends to +-m across the removable singularities at the lattice
x = 2 k pi / ell.

Multiplying by s = 2 sin(ell x/2) clears every denominator.  With
c_q = a_q - i b_q, the lattice numerator

    W(x) = 2 sin(ell x/2) T_n(x) = Re sum_q c_q 2 sin(M_q ell x/2) e^{i nu_q x}

is a sum of 2 ell sinusoids, of the frequencies nu_q -+ M_q ell/2, that
is q - ell/2 and q + (M_q - 1/2) ell (_NumeratorTerms).  Its degree is
n + ell/2, its zeros are those of T_n and the ell lattice points, and
when ell is odd W(x + 2 pi) = -W(x).  (This is the telescoped sum
(1 - z^ell) sum_j c_j z^j = P(z) - z^(n+1) Q(z) with P and Q the first and
last ell coefficients, since 1 - e^{i ell x} = -2i sin(ell x/2)
e^{i ell x/2}.)  A lattice step only rotates each class: with
G_q(x) = 2 sin(M_q ell x/2) e^{i nu_q x} and omega = e^{2 pi i/ell},

    G_q(x + 2 pi/ell) = -omega^q G_q(x),

since the sine gains (-1)^(M_q) and the phase omega^q (-1)^(M_q - 1), and
G_q' rotates alike.  So W(x + 2 pi s/ell) = Re sum_q c_q (-1)^s
omega^(qs) G_q(x): the values on a grid of N = ell K nodes are those of
ell rotated coefficient vectors on its first K nodes, which is how
numerator_on_grid folds its table.

Every Dirichlet ratio of the package goes through one kernel,
dirichlet_pairs, which returns phi_M and phi_M' of consecutive orders
M = m, m+1 from one lattice reduction (the Kac-Rice covariances need
both).
It takes its points as PanelNodes blocks, the nodes
mid_p + half z_i of Gauss panels of one width, and reduces once per
panel: the phases of a node are products of a panel phase and a node
phase.  Each order has one window beside the lattice, M |s| <
_PAIR_SERIES_WINDOW with s = ell t/2, where the series of both phi_M and
phi_M' overwrite the quotients that every other node keeps.  The kernel
and the block phases take their node-sized arrays from scratch().
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .models import CoefficientModel, PeriodDecomposition, PolySample, _scaled

# dirichlet_pairs: phi_M and phi_M' come from their series where M |s| is
# below this (see there).  The series error grows like (M s)^6 and the
# cancellation error of the quotient phi_M' like 1/(M s)^2; against
# long-double sums the worse of the two is smallest near 0.05
_PAIR_SERIES_WINDOW = 0.05

# dirichlet_pairs reduces each node on the panels that can reach M |s| below
# this (the series window lies inside).  There the quotient divides the
# few-u absolute error of sin(Ms) by a small sin(s), and the one rounding of
# a direct sine beats the three of a product of phases.  At 1.0 the i.i.d.
# cosine kernel at n = 400 read phi 5 % worse than the per-node reduction
# beside x = 0; at 1.5 these panels cost 0.01 sines and cosines per node there
_PAIR_DIRECT_WINDOW = 1.5

_CHUNK_BUDGET = 4_000_000  # max elements per (points x frequencies) block

# evaluate_jet: max doubles per block of points (a complex element counts
# twice), so a block's temporaries stay near 0.5 MB; larger blocks are no
# faster and only raise the peak memory
_JET_BLOCK = 1 << 16


def _eval_series_freq(a, b, freqs, x):
    """sum_k a_k cos(f_k x) + b_k sin(f_k x), chunked over x."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(x_arr.shape, dtype=float)
    use_b = b is not None and np.any(b)
    chunk = max(1, _CHUNK_BUDGET // max(len(freqs), 1))
    for lo in range(0, x_arr.size, chunk):
        ang = x_arr[lo:lo + chunk, None] * freqs[None, :]
        vals = np.cos(ang) @ a
        if use_b:
            vals += np.sin(ang) @ b
        out[lo:lo + chunk] = vals
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def evaluate(sample: PolySample, x):
    """T_n at scalar or array x by direct summation."""
    freqs = np.arange(sample.n + 1, dtype=float)
    return _eval_series_freq(sample.a, sample.b, freqs, x)


def grid_nodes(num_nodes: int, offset: float = 0.5) -> np.ndarray:
    """The uniform grid x_i = 2 pi (i + offset)/N, i = 0..N-1.

    The default half-cell offset keeps 0 and 2 pi off the nodes; the
    zero counter uses its own offset, zeros.GRID_OFFSET.
    """
    if not isinstance(num_nodes, numbers.Integral) or num_nodes < 1:
        raise ValueError(f"num_nodes must be an integer >= 1, got {num_nodes!r}")
    return (2.0 * np.pi / num_nodes) * (np.arange(num_nodes) + offset)


@functools.lru_cache(maxsize=32)
def frequency_powers(n: int, top: int) -> np.ndarray:
    """j^k for k = 0..top (rows) and j = 0..n (columns), built once per
    degree and read-only; exact integers while n^top < 2^53."""
    powers = np.arange(n + 1, dtype=float)[None, :] ** np.arange(top + 1)[:, None]
    powers.flags.writeable = False
    return powers


@functools.lru_cache(maxsize=32)
def _twist(n: int, num_nodes: int, offset: float) -> np.ndarray:
    """The phases e^{2 pi i offset j/N}, j = 0..n, of evaluate_on_grid."""
    twist = np.exp((2j * np.pi * offset / num_nodes) * np.arange(n + 1))
    twist.flags.writeable = False
    return twist


@functools.lru_cache(maxsize=32)
def _power_table(n: int, top: int):
    """(exponents, q_powers, weights) of the two-level power table of
    degree n, read-only.

    With B = ceil(sqrt(n+1)) and P = ceil((n+1)/B), every frequency is
    j = B p + q with 0 <= q < B, 0 <= p < P.  exponents holds q = 0..B-1
    followed by B p, p = 0..P-1; q_powers[i, q] = q^i for i <= top; and
    weights[i, p, k] = i^k binom(k, i) (B p)^(k-i) for i <= k <= top (0
    for i > k), so that sum_i weights[i, p, k] q^i = (i j)^k.
    """
    B = math.isqrt(n)
    B += B * B < n + 1
    P = -(-(n + 1) // B)
    exponents = np.concatenate([np.arange(B), B * np.arange(P)]).astype(float)
    k = np.arange(top + 1)
    q_powers = exponents[None, :B] ** k[:, None]
    block_powers = exponents[None, B:] ** k[:, None]
    weights = np.zeros((top + 1, P, top + 1), dtype=complex)
    for kk in k:
        for i in range(kk + 1):
            weights[i, :, kk] = 1j ** kk * math.comb(kk, i) * block_powers[kk - i]
    for table in (exponents, q_powers, weights):
        table.flags.writeable = False
    return exponents, q_powers, weights


@functools.lru_cache(maxsize=32)
def _jet_plan(n: int, order: int):
    """What evaluate_jet needs of the power table for rows 0..order:
    (exponents, q_powers[:order+1], weights[:order+1, :, :order+1] as an
    (order+1) P x (order+1) matrix, B, P, points per block), once per
    degree and order."""
    if order < 0:
        raise ValueError(f"need a derivative order >= 0, got {order}")
    exponents, q_powers, weights = _power_table(n, max(order, 3))
    rows = order + 1
    B, P = q_powers.shape[1], weights.shape[1]
    w = weights[:rows, :, :rows].reshape(rows * P, rows)
    w.flags.writeable = False
    chunk = max(1, _JET_BLOCK // (2 * max(rows * max(B, P), B + P)))
    return exponents, q_powers[:rows], w, B, P, chunk


@dataclass(frozen=True)
class _TableCoefficients:
    """What evaluate_jet and evaluate_on_grid read of one sample: its
    degree n and normalized coefficients (c, e) (PolySample.normalized;
    e = 0, the zero counter's record of T, reads c as the function
    itself), and c laid out as the B x P matrix of the power table,
    c_{Bp+q} at row q and column p, built on first use and kept.  Both
    take this record in place of the sample, so a caller that holds it
    (the zero counter, once a trial) lays the coefficients out once."""

    n: int
    c: np.ndarray
    e: int = 0

    @classmethod
    def of(cls, sample) -> "_TableCoefficients":
        return sample if isinstance(sample, cls) else cls(sample.n, *sample.normalized)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        _, q_powers, weights = _power_table(self.n, 3)
        B, P = q_powers.shape[1], weights.shape[1]
        coeffs = np.zeros(P * B, dtype=complex)
        coeffs[:self.c.size] = self.c
        return coeffs.reshape(P, B).T


def evaluate_jet(sample: PolySample, x, order: int = 3) -> np.ndarray:
    """Rows T_n, T_n', ..., T_n^(order) at the points x.

    T_n^(k) = Re sum_j c_j (i j)^k e^{i j x} with c_j = a_j - i b_j.
    Writing j = B p + q (_power_table), e^{i j x} = e^{i B p x} e^{i q x}
    and (i j)^k = i^k sum_i binom(k, i) (B p)^(k-i) q^i, so a point needs
    the B + P ~ 2 sqrt(n+1) phases of the power table, not n+1.  One
    complex matrix product of the rows q^i e^{iqx} (i <= order) with the
    coefficients c_{Bp+q} laid out as a B x P matrix gives the inner sums
    G_i[p]; T^(k) is then Re sum_{i,p} weights[i, p, k] G_i[p] e^{iBpx},
    a second product.  The magnitudes binom(k, i) (B p)^(k-i) q^i sum to
    j^k with no cancellation, so the rounding error is relative to
    sum_j j^k |c_j| as for a dense sum (zeros states the bound).  Blocks
    of points hold no more than _JET_BLOCK doubles.  The coefficients come
    normalized (PolySample.normalized) and the rows are scaled back by
    2^e, which is exact.  The weight matrix is built once per degree and
    order, the coefficient matrix once per sample record
    (_TableCoefficients, which sample may be).  Returns an array of shape
    (order + 1, x.size).
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    table = _TableCoefficients.of(sample)
    exponents, q_powers, w, B, P, chunk = _jet_plan(table.n, order)
    coeffs = table.matrix
    rows = order + 1
    out = np.empty((rows, x_arr.size))
    for lo in range(0, x_arr.size, chunk):
        ang = x_arr[lo:lo + chunk, None] * exponents
        phases = np.empty(ang.shape, dtype=complex)
        np.cos(ang, out=phases.real)
        np.sin(ang, out=phases.imag)
        inner = ((phases[:, None, :B] * q_powers).reshape(-1, B) @ coeffs
                 ).reshape(-1, rows, P)
        inner *= phases[:, None, B:]
        out[:, lo:lo + chunk] = (inner.reshape(-1, rows * P) @ w).real.T
    if table.e:
        with np.errstate(over="ignore"):  # values beyond the double range are +-inf
            np.ldexp(out, table.e, out=out)
    return out


def evaluate_on_grid(sample: PolySample, num_nodes: int, offset: float = 0.5,
                     order: int | tuple[int, ...] = 0, out: np.ndarray | None = None) -> np.ndarray:
    """T_n^(order) at every node x_i of grid_nodes(num_nodes, offset), via
    one real inverse FFT; with a tuple of orders, one row per order from
    one batched transform.

    With c_j = a_j - i b_j the value is Re sum_j c_j (i j)^order e^{i j x_i}
    (order 0 is T_n itself); the factor (i j)^order multiplies the
    normalized coefficients before the twist, and nothing else changes.
    The offset enters as a per-coefficient phase twist d_j (the twist and
    the powers j^k are tables built once per degree, grid size and
    offset); frequencies at or above the grid size fold onto j mod N
    exactly (e^{2 pi i j i/N} depends on j only through j mod N once the
    twist is applied), giving a length-N spectrum F.  Taking the real part
    is the same as transforming the Hermitian spectrum
    (F_k + conj F_{N-k})/2, so the values are the unscaled inverse
    transform of H, its half k = 0..N//2 (numpy's irfft with
    norm="forward"; H_0 = Re F_0, and H_{N/2} = Re F_{N/2} for even N).
    When 2n < N no F_{N-k} overlaps the half, so H is d/2 at 0..n, with
    Re d_0 at index 0, and irfft pads it with zeros: no array of length N
    or N/2 is built before the transform.

    order=(0, 1) stacks the half spectra of T and T' and transforms both
    rows in one irfft call, which is faster than two calls at every grid
    size the counter uses and changes no bit of either row.  The values
    come back in a new array that the caller owns (or in out, which is
    returned), of shape (N,) for one order and (len(order), N) for a tuple.

    The coefficients are normalized by 2^-e (PolySample.normalized, so
    once per sample, or a _TableCoefficients record, which sample may be)
    and the values scaled back by 2^e.  Scaling by a
    power of two is exact through the twist and the transform, so this
    changes no value.  It keeps the transform away from overflow at huge
    scales and from subnormal arithmetic at tiny ones; only a value that
    itself exceeds the double range comes back as +-inf.
    """
    if not isinstance(num_nodes, numbers.Integral) or num_nodes < 1:
        raise ValueError(f"num_nodes must be an integer >= 1, got {num_nodes!r}")
    N = int(num_nodes)
    single = np.ndim(order) == 0
    orders = (order,) if single else tuple(order)
    if not orders:
        raise ValueError(f"order must name at least one derivative order, got {order!r}")
    if min(orders) < 0:
        raise ValueError(f"need a derivative order >= 0, got {order}")
    table = _TableCoefficients.of(sample)
    n, c, e = table.n, table.c, table.e
    twist = _twist(n, N, offset)
    d = np.empty((len(orders), n + 1), dtype=complex)
    for row, k in zip(d, orders):
        ck = c * (1j ** k * frequency_powers(n, max(k, 3))[k]) if k else c
        np.multiply(ck, twist, out=row)
    if 2 * n < N:
        H = np.multiply(0.5, d, out=d)  # irfft pads it with zeros to the half spectrum
        H[:, 0] = 2.0 * H[:, 0].real
    else:
        folded = np.arange(n + 1) % N
        half = np.arange(N // 2 + 1)
        H = np.empty((len(orders), half.size), dtype=complex)
        for row, dk in zip(H, d):
            F = (np.bincount(folded, weights=dk.real, minlength=N)
                 + 1j * np.bincount(folded, weights=dk.imag, minlength=N))
            row[:] = 0.5 * (F[half] + np.conj(F[-half % N]))
    vals = np.fft.irfft(H[0] if single else H, N, norm="forward", out=out)
    if e:
        with np.errstate(over="ignore"):  # values beyond the double range are +-inf
            np.ldexp(vals, e, out=vals)
    return vals


@functools.lru_cache(maxsize=32)
def numerator_frequencies(split) -> np.ndarray:
    """The 2 ell frequencies of the lattice numerator W of a sample of
    this split, read-only: q - ell/2, then q + (M_q - 1/2) ell, for the
    classes q < ell (M_q from split.directions()); half-integers when ell
    is odd, exact either way (integer numerators over 2)."""
    ell = split.ell
    q = np.arange(ell)
    twice = np.concatenate([2 * q - ell, 2 * q + (2 * split.directions()[0] - 1) * ell])
    freqs = twice / 2.0
    freqs.flags.writeable = False
    return freqs


@dataclass(frozen=True)
class _NumeratorTerms:
    """The lattice numerator W of one sample as its 2 ell terms: the split,
    the normalized coefficients c_q of the classes q < ell and their
    exponent e, so that W = 2^e Re sum_p d_p e^{i f_p x}.  of() scales the
    first ell coefficients alone by the exponent of PolySample.peak: the
    bits of PolySample.normalized[0][:ell], with no copy of the n + 1
    entries; the zero counter builds its record of W so at e = 0.  The
    coefficients d (d_p = +-i c_q, so sum_p |d_p| = 2 sum_q |c_q|) and the
    weights d_p (i f_p)^k of numerator_jet are built on first use and
    kept, so a caller that holds the record (the zero counter, once a
    trial) builds them once; numerator_jet and numerator_on_grid take it
    in place of the sample."""

    split: PeriodDecomposition
    c: np.ndarray
    e: int = 0
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, sample) -> "_NumeratorTerms":
        if isinstance(sample, cls):
            return sample
        ell = sample.split.ell
        return cls(sample.split, *_scaled(sample.a[:ell], sample.b[:ell], sample.peak))

    @functools.cached_property
    def d(self) -> np.ndarray:
        """(i c_q, -i c_q) over the frequencies numerator_frequencies(split),
        read-only; multiplying by +-i is exact."""
        d = np.concatenate([1j * self.c, -1j * self.c])
        d.flags.writeable = False
        return d

    def weights(self, order: int) -> np.ndarray:
        """The (2 ell, order + 1) weights d_p i^k f_p^k of numerator_jet."""
        weights = self._weights.get(order)
        if weights is None:
            f, k = numerator_frequencies(self.split), np.arange(order + 1)
            weights = (self.d[:, None] * f[:, None] ** k) * np.array([1, 1j, -1, -1j])[k % 4]
            self._weights[order] = weights
        return weights


def numerator_jet(sample: PolySample, x, order: int = 3) -> np.ndarray:
    """Rows W, W', ..., W^(order) of the lattice numerator
    W = 2 sin(ell x/2) T_n at the points x, an array of shape
    (order + 1, x.size): W^(k) = Re sum_p d_p (i f_p)^k e^{i f_p x} over
    the 2 ell terms d_p of _NumeratorTerms, so O(ell) a point with no
    window beside the lattice.  Each argument f_p x is rounded once, the
    weights d_p i^k f_p^k are exact but for one rounding of f_p^k d_p,
    and one complex product per block of points sums the terms; the
    zero counter's pointwise bound delta_point covers it (zeros).  The
    weights are built once per order and sample record
    (_NumeratorTerms, which sample may be).  The rows are scaled back by
    2^e, which is exact."""
    if order < 0:
        raise ValueError(f"need a derivative order >= 0, got {order}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    terms = _NumeratorTerms.of(sample)
    f, weights = numerator_frequencies(terms.split), terms.weights(order)
    out = np.empty((order + 1, x_arr.size))
    chunk = max(1, _JET_BLOCK // (2 * f.size))
    for lo in range(0, x_arr.size, chunk):
        ang = x_arr[lo:lo + chunk, None] * f
        phases = np.empty(ang.shape, dtype=complex)
        np.cos(ang, out=phases.real)
        np.sin(ang, out=phases.imag)
        out[:, lo:lo + chunk] = (phases @ weights).real.T
    if terms.e:
        with np.errstate(over="ignore"):  # values beyond the double range are +-inf
            np.ldexp(out, terms.e, out=out)
    return out


def numerator_on_grid(sample: PolySample, num_nodes: int, offset: float) -> np.ndarray:
    """W and W' (rows) at every node of grid_nodes(num_nodes, offset),
    a new (2, N) array, from the sample's cached folded table: the
    coefficients repeat with period ell <= n and ell divides num_nodes
    (the caller checks both).

    A lattice step multiplies class q of W by -omega^q (module
    docstring), so on N = ell K nodes the s-th run of K nodes,
    t_k + 2 pi s/ell, holds the values of the coefficients
    (-1)^s omega^(qs) c_q on the first K: the two rows are one matmul of
    the (ell, 2 ell) matrix whose row s is ((-1)^s omega^(qs) c_q).view(float)
    with the table of _numerator_table, (2, 2 ell, K), written into the
    rows reshaped to (ell, K), which is node order.  The products read
    4 ell values a node of a table ell times smaller than the grid.  The
    coefficients c_q are normalized by 2^-e (_NumeratorTerms, which sample
    may be) and the values scaled back by 2^e, which is exact; the
    rounding is covered by the zero counter's grid bound delta_grid for W
    (zeros)."""
    N = int(num_nodes)
    terms = _NumeratorTerms.of(sample)
    ell = terms.split.ell
    vals = np.empty((2, N))
    np.matmul((_rotations(ell) * terms.c).view(float),
              _numerator_table(terms.split, N, offset), out=vals.reshape(2, ell, N // ell))
    if terms.e:
        with np.errstate(over="ignore"):  # values beyond the double range are +-inf
            np.ldexp(vals, terms.e, out=vals)
    return vals


def numerator_at_nodes(sample: PolySample, num_nodes: int, offset: float,
                       nodes: np.ndarray) -> np.ndarray:
    """W and W' (rows) at the nodes numbered nodes (each in [0, num_nodes))
    of grid_nodes(num_nodes, offset), a new (2, nodes.size) array, from
    the folded table of numerator_on_grid: node sK + k reads column k of
    the table with the coefficients (-1)^s omega^(qs) c_q.  The products
    are numerator_on_grid's, summed in another order, which the zero
    counter's grid bound delta_grid for W covers too (zeros): O(ell) a
    node, with no sine or cosine, once the table is cached."""
    terms = _NumeratorTerms.of(sample)
    ell = terms.split.ell
    runs, columns = np.divmod(nodes, num_nodes // ell)
    coefficients = (_rotations(ell)[runs] * terms.c).view(float)
    table = _numerator_table(terms.split, int(num_nodes), offset)
    vals = np.einsum("nj,djn->dn", coefficients, table[:, :, columns])
    if terms.e:
        with np.errstate(over="ignore"):  # values beyond the double range are +-inf
            np.ldexp(vals, terms.e, out=vals)
    return vals


@functools.lru_cache(maxsize=16)
def _rotations(ell: int) -> np.ndarray:
    """The read-only (ell, ell) matrix (-1)^s omega^(qs), omega = e^(2 pi i/ell),
    row s and column q, as +-i^k e^(i theta): k is the quarter turn
    nearest to qs/ell turns and theta = 2 pi (qs mod ell)/ell - k pi/2, so
    |theta| <= pi/4.  An entry is exact at the half and quarter turns
    (theta = 0) and within 4.7 u of (-1)^s omega^(qs) elsewhere: the angle
    within 1.9 u, cos and sin each within an ulp, and the product with
    +-i^k exact."""
    s = np.arange(ell)[:, None]
    turns = (s * np.arange(ell)) % ell
    quarter = np.rint(4 * turns / ell).astype(int)
    rest = 4 * turns - quarter * ell
    # (-1)^s is the half turn i^(2s)
    turn = np.array([1, 1j, -1, -1j])[(quarter + 2 * s) % 4]
    rot = turn * np.exp(1j * (np.pi * rest / (2 * ell)))
    rot.flags.writeable = False
    return rot


@functools.lru_cache(maxsize=2)
def _numerator_table(split, num_nodes: int, offset: float) -> np.ndarray:
    """The read-only (2, 2 ell, K) table of numerator_on_grid for the split
    of a degree at the K = N/ell nodes t_k of _table_nodes, N = num_nodes,
    which stand for the first K nodes of grid_nodes(num_nodes, offset) and
    their lattice shifts alike.

    Class q of W is Re c_q S_q(x) e^{i nu_q x} with S_q = 2 sin(M_q ell x/2),
    M_q and 2 nu_q from split.directions().  Half 0 holds the classes and
    half 1 their derivatives: row 2q holds g_q = S_q cos nu_q x and g_q',
    and row 2q + 1 holds -h_q = -S_q sin nu_q x and -h_q'.  So
    (c_q rho).view(float), Re, Im of class 0, then of class 1, ..., times a
    half gives W or W' at the rotated nodes.  The entries are products of
    sines and cosines, each of one rounded argument, so no lattice point
    needs a window.  A table takes 32 N bytes, whatever ell is (15.6 MB
    at ell = 3, n = 30000); two are cached, the latest, so that a Monte
    Carlo run that alternates two degrees keeps both.
    """
    ell = split.ell
    K = num_nodes // ell
    x = _table_nodes(num_nodes, offset, ell)
    M, freq_twice = split.directions()
    table = np.empty((2, 2 * ell, K))
    for q in range(ell):
        half = M[q] * ell / 2.0
        nu = freq_twice[q] / 2.0
        wave = half * x
        sine, slope = 2.0 * np.sin(wave), (2.0 * half) * np.cos(wave)
        cos, sin = np.cos(nu * x), np.sin(nu * x)
        g, h = table[:, 2 * q], table[:, 2 * q + 1]
        np.multiply(sine, cos, out=g[0])
        np.multiply(sine, sin, out=h[0])
        g[1] = slope * cos - nu * h[0]
        h[1] = slope * sin + nu * g[0]
        np.negative(h, out=h)
    table.flags.writeable = False
    return table


def _table_nodes(num_nodes: int, offset: float, ell: int) -> np.ndarray:
    """The K = N/ell nodes t_k of W's folded table: the midrange over s of
    x_(sK+k) - 2 pi s/ell for the float nodes x of grid_nodes(num_nodes,
    offset), in np.longdouble and rounded once, so that the route's node
    t_k + 2 pi s/ell lies as near the float node sK + k as one point can.
    The float nodes are not shifted copies of each other (each carries its
    own rounding); over the grids the zero counter sizes for the table
    (every one at ell = 2..22 up to 65536 nodes, and every tenth above,
    up to 4.2e6), the midrange brings the worst distance from 13.8 u (at
    t_k = x_k) down to 8.14 u, and on six grids each of a sample of
    ell = 23..300 it is 7.58 u at most, which the node term of the grid
    bound covers (zeros)."""
    K = num_nodes // ell
    runs = grid_nodes(num_nodes, offset).astype(np.longdouble).reshape(ell, K)
    runs -= (2 * np.arccos(np.longdouble(-1)) / ell) * np.arange(ell)[:, None]
    return ((runs.max(axis=0) + runs.min(axis=0)) / 2).astype(float)


_SCRATCH = contextvars.ContextVar("trigzeros_scratch", default=None)


@contextlib.contextmanager
def scratch_scope():
    """A pool of scratch buffers for the calls made inside the scope.

    kacrice.expected_zeros_quadrature opens one per call, around both of
    its passes: the blocks then write to pages faulted in by the ones
    before, where fresh arrays of a few hundred kB would come from the OS
    and be faulted in anew.  The pool dies with the scope, so no buffer
    outlives it.  A nested scope has a pool of
    its own and restores the outer one on exit, and every thread starts
    outside any scope, so concurrent calls share nothing.
    """
    token = _SCRATCH.set([np.empty(0)])
    try:
        yield
    finally:
        _SCRATCH.reset(token)


def scratch(size: int, dtype=float) -> np.ndarray:
    """An uninitialized array of size elements: a fresh array outside any
    scratch_scope, else the first size elements of an idle buffer of its
    pool.

    A slice, reshape or .real of a buffer holds a reference to it, so a
    buffer is idle, and handed out again, only once the last array that
    could read it is gone: an array that a caller keeps is never
    overwritten, and the pool settles at the most arrays held at once.
    An idle buffer too small for the request is replaced by one of the
    requested size; a buffer is added only when none of the dtype is
    idle.  A buffer is idle when its reference count equals that of
    pool[0], a buffer never handed out, read the same way; so the test
    does not depend on how the interpreter counts its own references.
    """
    pool = _SCRATCH.get()
    if pool is None:
        return np.empty(size, dtype)
    dtype = np.dtype(dtype)
    idle = sys.getrefcount(pool[0])
    for i in range(1, len(pool)):
        if pool[i].dtype == dtype and sys.getrefcount(pool[i]) == idle:
            if pool[i].size < size:
                pool[i] = np.empty(size, dtype)
            return pool[i][:size]
    pool.append(np.empty(size, dtype))
    return pool[-1][:size]


@dataclass(frozen=True)
class PanelNodes:
    """The nodes x = mid_p + half z_i of panels of one width, panel-major.

    A plain array is a block of one-node panels, half = 0 and z = [0],
    whose node phase is exactly (1, 0): cis(f) is then np.cos(f x) and
    np.sin(f x), and dirichlet_pairs the reduction of each x, to the bit.
    The kernels take their node-sized arrays from empty(), so scratch()."""

    mid: np.ndarray
    half: float
    z: np.ndarray

    @classmethod
    def of(cls, x) -> "PanelNodes":
        if isinstance(x, cls):
            return x
        return cls(np.atleast_1d(np.asarray(x, dtype=float)).ravel(), 0.0, np.zeros(1))

    @functools.cached_property
    def x(self) -> np.ndarray:
        return (self.mid[:, None] + self.half * self.z).ravel()

    @property
    def size(self) -> int:
        return self.mid.size * self.z.size

    def empty(self, dtype=float) -> np.ndarray:
        """An uninitialized node-sized array from scratch()."""
        return scratch(self.size, dtype)

    def cis(self, f: float):
        """(cos(f x), sin(f x)) at the nodes, by angle addition: the real
        and imaginary parts of one complex array from empty(), whose
        buffer is idle again once the caller has dropped both parts."""
        panel, node = (np.cos(a) + 1j * np.sin(a) for a in (f * self.mid, f * self.half * self.z))
        phase = self.empty(complex).reshape(panel.size, node.size)
        np.multiply(panel[:, None], node, out=phase)
        phase = phase.ravel()
        return phase.real, phase.imag


def _add_angles(sin_p, cos_p, node, sin, cos, term):
    """sin and cos of panel angle + node angle at every node, panel-major,
    from the sine and cosine of the panel angles and the node angles,
    written into the node-sized arrays sin and cos; term is scratch."""
    sin_n, cos_n = np.sin(node), np.cos(node)
    sin, cos, term = (a.reshape(sin_p.size, node.size) for a in (sin, cos, term))
    np.multiply.outer(sin_p, cos_n, out=sin)
    sin += np.multiply.outer(cos_p, sin_n, out=term)
    np.multiply.outer(cos_p, cos_n, out=cos)
    cos -= np.multiply.outer(sin_p, sin_n, out=term)


def dirichlet_pair(m: int, ell: int, x):
    """(phi_m, phi_m') at x: dirichlet_pairs with one order."""
    return dirichlet_pairs(m, ell, x, 1)[0]


def dirichlet_pairs(m: int, ell: int, x, orders: int):
    """[(phi_M, phi_M') for M = m, ..., m + orders - 1] at x from one
    lattice reduction per panel, with phi_M(x) = sin(M ell x/2)/sin(ell x/2).

    x is an array of points or a PanelNodes block; an array is a block of
    one-node panels (PanelNodes.of).  A panel's midpoint reduces to
    mid = k period + 2 sigma/ell, period = 2 pi/ell, k = rint(mid/period),
    and its nodes to s = sigma + tau_i, tau_i = ell half z_i/2.  The
    quotient at a node is then exactly (-1)^(k(M-1)) sin(Ms)/sin(s), for
    any integer k, so one k serves the whole panel; with the same sign

        phi_M'(x) = sign * (ell/2) [M cos(Ms) sin(s) - sin(Ms) cos(s)] / sin(s)^2.

    e^{is} and e^{iMs} are products of a panel phase, e^{i sigma} or
    e^{iM sigma} with the sign applied, and a node phase, e^{i tau} or
    e^{iM tau}: 4 sines and cosines per panel (and 2 per abscissa for tau
    and for each M tau), not 4 per node.  Both angles are small and
    rounded once, so s keeps its relative accuracy, better than the
    reduction of the rounded node mid + half z, which pays u |x| ell/2;
    the products add a few u.  A panel that straddles a point
    (k + 1/2) period only has |s| a little above pi/2, where sin s is near
    1.  Each order past m steps its panel phase by one angle addition.

    The panels whose nodes can reach M |s| < _PAIR_DIRECT_WINDOW,
    |sigma| - max |tau| < _PAIR_DIRECT_WINDOW/m, are reduced node by node
    instead: s = sigma + tau, its 4 sines and cosines, and one
    angle-addition step per node for each order past m.  There sigma and
    tau can have opposite signs, so sin(sigma) cos(tau) + cos(sigma)
    sin(tau) would cancel, and the quotient divides the absolute error of
    sin(Ms) by a small sin(s).  Such panels are few: the quadrature
    excises the lattice of the r != 0 periodic routes (a window of
    m^(-1/5) in s, against 1.5/m here, once m exceeds a few), and the
    i.i.d. cosine route meets them beside 0 only.  With half = 0 every node phase is exactly
    (1, 0), so a plain array gets its per-node reduction to the bit.

    Near the lattice the bracket cancels: its two terms are about M s
    and their difference is M(M^2-1) s^3/3, so the quotient carries an
    absolute error of about u ell M/s, and at s = 0 both quotients are
    0/0.  So each order has one window, M |s| < _PAIR_SERIES_WINDOW,
    where both come instead from the series of
    phi_M = sum_t cos(nu_t s), nu_t = M-1-2t, t < M:

        phi_M      = M - S_2 s^2/2! + S_4 s^4/4! - S_6 s^6/6!,
        d phi_M/ds = -S_2 s + S_4 s^3/3! - S_6 s^5/5!,
        S_2 = M(M^2-1)/3, S_4 = S_2 (3M^2-7)/5, S_6 = S_2 (3M^4-18M^2+31)/7,

    the power sums S_p = sum_t nu_t^p.  Their terms do not cancel, and
    in each the first term left out is below (M s)^6/5040 of the leading
    one.  The windows lie within the panels reduced node by node.  So
    phi_M = +-M and phi_M' = 0 at the lattice points themselves, and
    M = 1 gives exactly (1, 0).

    The node-sized arrays come from block.empty(): sin s and cos s, and
    cos(Ms) and a product shared by the orders, then phi_M (which holds
    sin(Ms) until the quotient overwrites it) and phi_M' for each order.
    The pairs returned stay valid while the caller holds them (scratch).
    """
    if m < 1 or ell < 1:
        raise ValueError(f"need m >= 1 and ell >= 1, got m={m}, ell={ell}")
    block = PanelNodes.of(x)
    period = 2.0 * np.pi / ell
    k = np.rint(block.mid / period)
    sigma = 0.5 * ell * (block.mid - k * period)
    tau = 0.5 * ell * block.half * block.z
    odd = np.fmod(k, 2.0) != 0.0
    sin_p, cos_p = np.sin(sigma), np.cos(sigma)
    sin_mp, cos_mp = np.sin(m * sigma), np.cos(m * sigma)
    # sin s and cos s for every order; cos(Ms) and term are scratch
    sin_s, cos_s, cos_ms, term = (block.empty() for _ in range(4))
    _add_angles(sin_p, cos_p, tau, sin_s, cos_s, term)
    near = np.flatnonzero(np.abs(sigma) < _PAIR_DIRECT_WINDOW / m + np.abs(tau).max())
    at = (near[:, None] * tau.size + np.arange(tau.size)).ravel()
    s = (sigma[near, None] + tau).ravel()  # the nodes reduced one by one
    sin_d, cos_d = np.sin(s), np.cos(s)
    sin_s[at], cos_s[at] = sin_d, cos_d
    sin_md, cos_md = np.sin(m * s), np.cos(m * s)
    pairs = []
    for M in range(m, m + orders):
        if M > m:
            sin_mp, cos_mp = sin_mp * cos_p + cos_mp * sin_p, cos_mp * cos_p - sin_mp * sin_p
            sin_md, cos_md = sin_md * cos_d + cos_md * sin_d, cos_md * cos_d - sin_md * sin_d
        sign = np.where(odd, -1.0, 1.0) if (M - 1) % 2 else np.ones_like(sigma)
        phi, slope = block.empty(), block.empty()
        sin_ms = phi  # until the quotient overwrites it
        _add_angles(sign * sin_mp, sign * cos_mp, M * tau, sin_ms, cos_ms, term)
        sign_s = sign[near].repeat(tau.size)
        sin_ms[at], cos_ms[at] = sign_s * sin_md, sign_s * cos_md
        with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 is in the window
            np.multiply(M, cos_ms, out=slope)
            slope *= sin_s
            slope -= np.multiply(sin_ms, cos_s, out=term)
            slope *= 0.5 * ell
            slope /= np.square(sin_s, out=term)
            np.divide(sin_ms, sin_s, out=phi)
        series = np.abs(s) < _PAIR_SERIES_WINDOW / M
        if series.any():
            z = s[series]
            zz = z * z
            s2 = M * (M * M - 1.0) / 3.0
            s4 = s2 * (3.0 * M * M - 7.0) / 5.0
            s6 = s2 * (3.0 * M ** 4 - 18.0 * M * M + 31.0) / 7.0
            phi[at[series]] = sign_s[series] * (
                M - zz * (s2 / 2.0 - zz * (s4 / 24.0 - zz * (s6 / 720.0))))
            slope[at[series]] = sign_s[series] * (
                0.5 * ell * z * (-s2 + zz * (s4 / 6.0 - zz * (s6 / 120.0))))
        pairs.append((phi, slope))
    if isinstance(x, PanelNodes):
        return pairs
    if np.ndim(x) == 0:
        return [(float(phi[0]), float(slope[0])) for phi, slope in pairs]
    return [(phi.reshape(np.shape(x)), slope.reshape(np.shape(x))) for phi, slope in pairs]


@dataclass(frozen=True)
class ReducedSample:
    """The factor T* of an r = 0 periodic sample: T_n = phi_m * T*.

    Holds one coefficient pair per residue class k = 0..ell-1 at the
    shifted frequency k + (m-1) ell/2.  freq_twice stores the exact
    integer numerators 2k + (m-1) ell (PeriodDecomposition.directions);
    dividing an integer float by two is exact, so frequencies carry no
    representation error.
    """

    model: CoefficientModel
    n: int
    ell: int
    m: int
    freq_twice: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def frequencies(self) -> np.ndarray:
        return self.freq_twice.astype(float) / 2.0

    def evaluate(self, x):
        return _eval_series_freq(self.a, self.b, self.frequencies(), x)


def reduce_periodic(sample: PolySample) -> ReducedSample:
    """Split an r = 0 periodic sample into its random factor T*.

    Only defined when ell divides n+1 (r = 0); the identity
    T_n(x) = phi_m(x) T*(x) (dirichlet_pair) then holds for all x.
    """
    model = sample.model
    if model.dep != "periodic":
        raise ValueError("reduction needs a periodic model")
    dec = sample.split
    if dec.r != 0:
        raise ValueError(
            f"no reduced form: ell={dec.ell} does not divide n+1={sample.n + 1} (r={dec.r})"
        )
    a = np.ascontiguousarray(sample.a[:dec.ell])
    b = np.ascontiguousarray(sample.b[:dec.ell])
    freq_twice = dec.directions()[1]
    for arr in (a, b, freq_twice):
        arr.flags.writeable = False
    return ReducedSample(
        model=model, n=sample.n, ell=dec.ell, m=dec.m, freq_twice=freq_twice, a=a, b=b
    )
