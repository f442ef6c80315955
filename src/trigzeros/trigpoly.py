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
                                 batched transform, optionally into a
                                 caller's array.  The i.i.d. and
                                 r != 0 counting routes certify their
                                 counts from T and T' on one grid, one
                                 order=(0, 1) call into a reused
                                 workspace; the r = 0 route counts T*
                                 from its carrier phase
                                 (zeros.carrier_phase) without a grid.

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
both).  Each order has one window beside the lattice, M |s| <
_PAIR_SERIES_WINDOW with s = ell t/2, where the series of both phi_M and
phi_M' overwrite the quotients that every other node keeps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .models import CoefficientModel, PolySample, decompose_degree

# dirichlet_pairs: phi_M and phi_M' come from their series where M |s| is
# below this (see there).  The series error grows like (M s)^6 and the
# cancellation error of the quotient phi_M' like 1/(M s)^2; against
# long-double sums the worse of the two is smallest near 0.05
_PAIR_SERIES_WINDOW = 0.05

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
                     order: int | tuple[int, ...] = 0,
                     out: np.ndarray | None = None) -> np.ndarray:
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
    size the counter uses and changes no bit of either row.  out, when
    given, receives the values (shape (N,) for one order, (len(order), N)
    for a tuple) and is returned, so that a caller can reuse one array
    for every sample of a grid size.

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
    if out is None:
        out = np.empty(N if single else (len(orders), N))
    vals = np.fft.irfft(H[0] if single else H, N, norm="forward", out=out)
    if e:
        with np.errstate(over="ignore"):  # values beyond the double range are +-inf
            np.ldexp(vals, e, out=vals)
    return vals


def dirichlet_pair(m: int, ell: int, x):
    """(phi_m, phi_m') at x: dirichlet_pairs with one order."""
    return dirichlet_pairs(m, ell, x, 1)[0]


def dirichlet_pairs(m: int, ell: int, x, orders: int):
    """[(phi_M, phi_M') for M = m, ..., m + orders - 1] at x from one
    lattice reduction, with phi_M(x) = sin(M ell x/2)/sin(ell x/2).

    Writing x = 2 k pi/ell + t and s = ell t/2 reduces the quotient
    exactly to (-1)^(k(M-1)) sin(Ms)/sin(s), stable because the small
    argument s is evaluated directly; with the same sign

        phi_M'(x) = sign * (ell/2) [M cos(Ms) sin(s) - sin(Ms) cos(s)] / sin(s)^2.

    Each order past m takes sin(Ms), cos(Ms) from one angle-addition step,
    so 4 sines and cosines per node serve every order.  A step adds a few
    u to the numerators, so order m+1 agrees with its own call to about
    u (1 + M|s|)/|sin s|; beside the lattice its terms share the sign of s.

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
    one.  So phi_M = +-M and phi_M' = 0 at the lattice points themselves,
    and M = 1 gives exactly (1, 0).
    """
    if m < 1 or ell < 1:
        raise ValueError(f"need m >= 1 and ell >= 1, got m={m}, ell={ell}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    period = 2.0 * np.pi / ell
    k = np.rint(x_arr / period)
    s = 0.5 * ell * (x_arr - k * period)
    sin_s, cos_s = np.sin(s), np.cos(s)
    sin_ms, cos_ms = np.sin(m * s), np.cos(m * s)
    pairs = []
    for M in range(m, m + orders):
        if M > m:
            sin_ms, cos_ms = sin_ms * cos_s + cos_ms * sin_s, cos_ms * cos_s - sin_ms * sin_s
        with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 is in the window
            phi = sin_ms / sin_s
            slope = 0.5 * ell * (M * cos_ms * sin_s - sin_ms * cos_s) / (sin_s**2)
        series = np.abs(s) < _PAIR_SERIES_WINDOW / M
        if series.any():
            z = s[series]
            zz = z * z
            s2 = M * (M * M - 1.0) / 3.0
            s4 = s2 * (3.0 * M * M - 7.0) / 5.0
            s6 = s2 * (3.0 * M ** 4 - 18.0 * M * M + 31.0) / 7.0
            phi[series] = M - zz * (s2 / 2.0 - zz * (s4 / 24.0 - zz * (s6 / 720.0)))
            slope[series] = 0.5 * ell * z * (-s2 + zz * (s4 / 6.0 - zz * (s6 / 120.0)))
        if (M - 1) % 2:
            sign = np.where(np.fmod(k, 2.0) != 0.0, -1.0, 1.0)
            phi *= sign
            slope *= sign
        pairs.append((phi, slope))
    if np.ndim(x) == 0:
        return [(float(phi[0]), float(slope[0])) for phi, slope in pairs]
    return pairs


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
    dec = decompose_degree(sample.n, model.ell)
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
