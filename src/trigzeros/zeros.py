"""Zero counting by sign-change scanning with grid-doubling stability.

Counting protocol
-----------------
A uniform open grid x_i = 2 pi (i + 1/2)/N is scanned for strict sign
changes; each change brackets one root.  The scan is circular: the wrap
cell (x_{N-1}, x_0 + 2 pi) is included so zeros beside the endpoints are
not lost (reduced factors with half-integer frequencies are 2 pi
ANTI-periodic, which the wrap comparison accounts for by sign).  The
grid starts at N = smooth_size(max(256, grid_per_degree * n)), the
smallest 5-smooth size (no prime factor above 5) with at least
grid_per_degree nodes per degree, so the real FFT never meets an
awkward length; it doubles (staying 5-smooth) until the count is
unchanged across two consecutive doublings (stable=True) or a doubling
cap is hit (stable=False).  A node where the function is
exactly 0.0 counts once by itself and joins no bracket (tie-break:
attributed to the cell on its left).  Each grid is counted in one pass
over the sign bits unless some node is exactly +-0.0; bracket indices
are built only for the final grid, and only when roots are requested.

Periodic r = 0 samples are not scanned raw.  They factor exactly as
T_n = phi_m * T^* (trigpoly.reduce_periodic); the deterministic zeros of
phi_m and the random zeros of T^* form two interleaved combs at spacing
~2 pi/n with no repulsion between the families, so near-coincident
pairs arise at rate ~n/(nodes per gap) per sample and no affordable
uniform grid resolves them all.  Scanning T^* alone and adding the
n+1-ell deterministic zeros counts the identical zero set through an
algebraic identity that holds to the last ulp.  Zeros within a single
family repel quadratically, which is what makes the scan itself stable.
iid and r != 0 samples have no deterministic factor and are scanned
directly (their zeros all repel).

Every route - iid, r != 0 and the reduced factor of r = 0 - gets its
grid values from the one spectral evaluator trigpoly.evaluate_on_grid.
Dense summation at arbitrary points serves only root refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .models import PolySample, decompose_degree
from .trigpoly import evaluate, evaluate_on_grid, grid_nodes, reduce_periodic

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ZeroCountReport:
    """Outcome of one counting run.

    count           zeros attributed to (0, 2 pi)
    grid_size       nodes in the final scan
    doublings_used  grid doublings consumed by the stability protocol
    stable          count repeated across two consecutive doublings
    roots           refined abscissae, only when requested
    """

    count: int
    grid_size: int
    doublings_used: int
    stable: bool
    roots: Optional[np.ndarray] = None


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


def _sign_changes(vals: np.ndarray, wrap_sign: float) -> int:
    """Count strict sign changes on the circular grid, plus exact zeros.

    The wrap cell compares the last node against wrap_sign * first node;
    wrap_sign is -1 for 2 pi anti-periodic functions.  Without an
    exact-zero node this is one pass over the sign bits; otherwise the
    count is that of _brackets.
    """
    if np.isnan(vals).any():
        raise FloatingPointError("NaN encountered during grid evaluation")
    if not vals.all():
        brackets, zero_idx = _brackets(vals, wrap_sign)
        return brackets.size + zero_idx.size
    neg = np.signbit(vals)
    wrap_change = neg[-1] != (neg[0] if wrap_sign > 0 else not neg[0])
    return int(np.count_nonzero(neg[1:] != neg[:-1])) + int(wrap_change)


def _brackets(vals: np.ndarray, wrap_sign: float):
    """(bracket_start_indices, exact_zero_indices) of _sign_changes.

    A node that is exactly +-0.0 counts once by itself and joins no
    bracket.
    """
    s = np.sign(vals)
    zero_idx = np.flatnonzero(s == 0.0)
    s_next = np.empty_like(s)
    s_next[:-1] = s[1:]
    s_next[-1] = wrap_sign * s[0]
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


def _stabilized_scan(values_at: Callable, base_nodes: int, wrap_sign: float,
                     max_doublings: int):
    """Run the doubling protocol; returns (count, N, doublings, stable,
    final-grid values)."""
    N = int(base_nodes)
    vals = values_at(N)
    counts = [_sign_changes(vals, wrap_sign)]
    doublings = 0
    stable = False
    while doublings < max_doublings:
        N *= 2
        vals = values_at(N)
        counts.append(_sign_changes(vals, wrap_sign))
        doublings += 1
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            stable = True
            break
    return counts[-1], N, doublings, stable, vals


def _refine_on_grid(f: Callable, vals: np.ndarray, wrap_sign: float,
                    tol: float) -> np.ndarray:
    """Bisect the brackets of the final grid values; exact-zero nodes pass
    through as-is."""
    N = vals.size
    brackets, zero_idx = _brackets(vals, wrap_sign)
    nodes = grid_nodes(N)
    lo = nodes[brackets]
    hi = np.where(brackets + 1 < N, nodes[(brackets + 1) % N], nodes[0] + TWO_PI)
    roots = _bisect_brackets(f, lo, hi, tol)
    roots = np.mod(roots, TWO_PI)
    if zero_idx.size:
        roots = np.concatenate([roots, nodes[zero_idx]])
    return np.sort(roots)


def count_zeros(sample: PolySample, grid_per_degree: int = 32, tol: float = 1e-10,
                want_roots: bool = False, max_doublings: int = 4) -> ZeroCountReport:
    """Count the real zeros of one sample in (0, 2 pi).

    Dispatch: periodic samples with r = 0 are counted through the exact
    factorization (deterministic zero set plus a scan of the reduced
    factor T^*); everything else is scanned directly.  Both scans take
    their values from the FFT grid evaluator.  The returned count
    satisfies the hard ceiling 2n.
    """
    if grid_per_degree < 1:
        raise ValueError(f"grid_per_degree must be >= 1, got {grid_per_degree}")
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be >= 0, got {max_doublings}")
    n = sample.n
    base_nodes = smooth_size(max(256, grid_per_degree * n))
    model = sample.model

    # the polynomial scanned, its wrap sign, its evaluator at arbitrary
    # points (for refinement) and the zeros it leaves out
    target, wrap, det = sample, 1.0, np.empty(0)
    pointwise = partial(evaluate, sample)
    if model.dep == "periodic":
        dec = decompose_degree(n, int(model.ell))
        if dec.r == 0:
            target = reduce_periodic(sample)
            det = deterministic_zero_set(dec.m, dec.ell)
            # half-integer frequencies make T^* 2 pi anti-periodic
            wrap = -1.0 if target.freq_twice[0] % 2 else 1.0
            pointwise = target.evaluate

    count, N, doublings, stable, vals = _stabilized_scan(
        lambda k: evaluate_on_grid(target, k), base_nodes, wrap, max_doublings
    )
    total = count + det.size
    _enforce_ceiling(total, n, sample)
    roots = None
    if want_roots:
        roots = np.sort(np.concatenate([_refine_on_grid(pointwise, vals, wrap, tol), det]))
    return ZeroCountReport(count=total, grid_size=N, doublings_used=doublings,
                           stable=stable, roots=roots)


def _enforce_ceiling(count: int, n: int, sample: PolySample) -> None:
    # a degree-n trigonometric polynomial has at most 2n real zeros
    if count > 2 * n:
        raise RuntimeError(
            f"counted {count} zeros for degree n={n} (ceiling 2n={2 * n}); "
            f"model={sample.model}, seed={sample.seed}"
        )
