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
                                 matrix product per point; the local
                                 bisection of the zero certificate and
                                 the Newton refinement of its roots
                                 use it.  What depends on the degree
                                 alone (the powers j^k, the table's
                                 exponents and binomial weights and
                                 its weight matrix per order, the grid
                                 twist) is built once per degree.
evaluate_on_grid                 all values of T_n or a derivative on a
                                 uniform offset grid x_i = 2 pi (i +
                                 offset)/N through one real inverse FFT
                                 of the Hermitian half spectrum,
                                 O(N log N) total; exact coefficient
                                 folding covers N <= 2n.  A tuple of
                                 orders gives one row each from one
                                 batched transform, written into a
                                 scratch() array.  The i.i.d. and
                                 r != 0 counting routes certify their
                                 counts from T and T' on one grid, one
                                 order=(0, 1) call (of half the grid's
                                 nodes for an even, cosine, sample);
                                 the r = 0 route counts T* from its
                                 carrier phase (zeros.carrier_phase)
                                 without a grid.

Scratch arrays
--------------
scratch(size, dtype) is the one source of the node-sized arrays that the
kernels overwrite, of Kac-Rice blocks and of Monte Carlo grids alike;
scratch_scope() sets how long its buffers are reused (one quadrature,
one run of trials), and outside any scope each array is fresh.

Structure of ell-periodic samples
---------------------------------
Grouping j = k + ell*t and summing the geometric series in t gives the
exact identity

    sum_{t=0}^{M-1} cos((k + ell t)x)
        = phi_M(x) * cos((k + (M-1) ell/2) x),
    phi_M(x) = sin(M ell x/2) / sin(ell x/2),

and likewise with sin on both sides.  When ell | n+1 (r = 0, M = m for
every residue k) the whole sample factors as

    T_n(x) = phi_m(x) * T*(x),

where T* keeps one coefficient pair per residue class at the shifted
frequencies k + (m-1) ell/2.  Those frequencies are half-integers when
(m-1) ell is odd; they are stored as exact integer numerators over 2,
so reduction introduces no frequency rounding at all.  phi_m vanishes
at ell(m-1) points per full period - the deterministic zeros - and
extends to +-m across the removable singularities at the lattice
x = 2 k pi / ell.

Every Dirichlet ratio of the package goes through one kernel,
dirichlet_pairs, which returns phi_M and phi_M' of consecutive orders
M = m, m+1 from one lattice reduction (the Kac-Rice covariances need
both).  It takes its points as PanelNodes blocks, the nodes
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
import sys
from dataclasses import dataclass

import numpy as np

from .models import CoefficientModel, PolySample

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
    if num_nodes < 1:
        raise ValueError(f"need at least one node, got {num_nodes}")
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
    exponents, q_powers, weights = _power_table(n, max(order, 3))
    rows = order + 1
    B, P = q_powers.shape[1], weights.shape[1]
    w = weights[:rows, :, :rows].reshape(rows * P, rows)
    w.flags.writeable = False
    chunk = max(1, _JET_BLOCK // (2 * max(rows * max(B, P), B + P)))
    return exponents, q_powers[:rows], w, B, P, chunk


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
    order.  Returns an array of shape (order + 1, x.size).
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    c, e = sample.normalized
    exponents, q_powers, w, B, P, chunk = _jet_plan(sample.n, order)
    coeffs = np.zeros(P * B, dtype=complex)
    coeffs[:c.size] = c
    coeffs = coeffs.reshape(P, B).T
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
    if e:
        with np.errstate(over="ignore"):  # values beyond the double range are +-inf
            np.ldexp(out, e, out=out)
    return out


def evaluate_on_grid(sample: PolySample, num_nodes: int, offset: float = 0.5,
                     order: int | tuple[int, ...] = 0) -> np.ndarray:
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
    size the counter uses and changes no bit of either row.  The transform
    writes the values (shape (N,) for one order, (len(order), N) for a
    tuple) into a scratch() array, so that the trials of one scope reuse
    its buffer.

    The coefficients are normalized by 2^-e (PolySample.normalized, so
    once per sample) and the values scaled back by 2^e.  Scaling by a
    power of two is exact through the twist and the transform, so this
    changes no value.  It keeps the transform away from overflow at huge
    scales and from subnormal arithmetic at tiny ones; only a value that
    itself exceeds the double range comes back as +-inf.
    """
    N = int(num_nodes)
    if N < 1:
        raise ValueError(f"need at least one node, got {num_nodes}")
    single = np.ndim(order) == 0
    orders = (order,) if single else tuple(order)
    if min(orders) < 0:
        raise ValueError(f"need a derivative order >= 0, got {order}")
    n = sample.n
    c, e = sample.normalized
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
    out = scratch(len(orders) * N)
    vals = np.fft.irfft(H[0] if single else H, N, norm="forward",
                        out=out if single else out.reshape(len(orders), N))
    if e:
        with np.errstate(over="ignore"):  # values beyond the double range are +-inf
            np.ldexp(vals, e, out=vals)
    return vals


_SCRATCH = contextvars.ContextVar("trigzeros_scratch", default=None)


@contextlib.contextmanager
def scratch_scope():
    """A pool of scratch buffers for the calls made inside the scope.

    kacrice.expected_zeros_quadrature opens one per call, around both of
    its passes, and harness one per run of trials (or chunk of a worker
    pool): the blocks, or the trials, then write to pages faulted in by
    the ones before, where fresh arrays of a few hundred kB would come
    from the OS and be faulted in anew.  The pool dies with the scope, so
    no buffer outlives it.  A nested scope has a pool of its own and
    restores the outer one on exit, and every thread starts outside any
    scope, so concurrent calls share nothing.
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
