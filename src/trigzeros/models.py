"""Coefficient models for random trigonometric and cosine polynomials.

A degree-n sample is

    T_n(x) = sum_{j=0}^{n} a_j cos(jx) + b_j sin(jx),

with the cosine kind fixing b = 0.  Coefficients are centered Gaussians
with a common standard deviation sigma, either independent ("iid") or
ell-periodic ("periodic"): a_{j+ell} = a_j for all j, so a periodic
sample carries only 2*ell (trig) or ell (cosine) independent values and
every later entry is a bit-exact copy of its representative.

Periodic degrees decompose as

    n = ell*m - 1 + r,    0 <= r <= ell - 1,    m >= 1,

that is m = (n+1) // ell and r = (n+1) % ell.  PeriodDecomposition
holds the split and the two facts every consumer reads from it: the
grouped directions (M_k, 2 nu_k) of the residue classes k < ell, and
whether the sample factors.  It factors when ell divides n+1 with
m >= 2: then T_n = phi_m * T* (trigpoly.reduce_periodic) with n+1-ell
deterministic real zeros.  m = 1 is a vacuous period: with r = 0
(n+1 = ell) no coefficient repeats and the sample is i.i.d.; with r > 0
only the first r residue classes repeat, once.

CoefficientModel.period(n) is the one place that maps dep to this
structure: the periodic model splits against its ell, the i.i.d. model
against the vacuous period ell = n + 1.  The sampler, the zero counter,
the Kac-Rice routes and the theory table all read the split it returns;
a drawn sample carries the sampler's split as PolySample.split, so one
trial builds it once.

Reproducibility: per-trial seeds are derived with mix64(), a splitmix64
fold of (master_seed, degree, trial_index).  Samples are drawn from a
counter-based Philox generator keyed by the folded seed, so any single
trial of any experiment can be regenerated in isolation.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

KINDS = ("trig", "cosine")
DEPENDENCIES = ("iid", "periodic")

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One splitmix64 step: the standard bijective 64-bit finalizer."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(*keys: int) -> int:
    """Fold integer keys into one 64-bit seed.

    acc_0 = splitmix64(0), acc_{i+1} = splitmix64(acc_i XOR key_i).
    The fold is order-sensitive, so mix64(seed, n, trial) yields a
    distinct stream per (experiment seed, degree, trial index).
    """
    acc = splitmix64(0)
    for k in keys:
        acc = splitmix64(acc ^ (int(k) & _MASK64))
    return acc


@dataclass(frozen=True)
class PeriodDecomposition:
    """Degree split n = ell*m - 1 + r with 0 <= r < ell, m >= 1."""

    n: int
    ell: int
    m: int
    r: int

    @property
    def factors(self) -> bool:
        """True when r = 0 and m >= 2, the only case in which
        T_n = phi_m * T* carries n+1-ell deterministic zeros."""
        return self.r == 0 and self.m >= 2

    def directions(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, freq_twice), exact int64 arrays over the residue classes
        k < ell: class k holds the M_k frequencies k + ell t, t < M_k, with
        M_k = m+1 for k < r and m otherwise, and their mean nu_k is
        freq_twice[k]/2 = k + (M_k - 1) ell/2."""
        k = np.arange(self.ell, dtype=np.int64)
        M = np.where(k < self.r, self.m + 1, self.m).astype(np.int64)
        return M, 2 * k + (M - 1) * self.ell


def _check_period(ell) -> None:
    if not isinstance(ell, numbers.Integral) or ell < 1:
        raise ValueError(f"period must be an integer >= 1, got ell={ell!r}")


def decompose_degree(n: int, ell: int) -> PeriodDecomposition:
    """Split a degree against a coefficient period.

    Requires an integer ell >= 1 and n >= ell - 1, so the sample holds
    at least one full period of coefficients (m >= 1).
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got n={n}")
    _check_period(ell)
    if n < ell - 1:
        raise ValueError(
            f"degree n={n} holds fewer than one period of ell={ell} coefficients"
        )
    m, r = divmod(n + 1, ell)
    return PeriodDecomposition(n=n, ell=ell, m=m, r=r)


@dataclass(frozen=True)
class CoefficientModel:
    """Distribution of the coefficient vectors.

    kind  : "trig" (cosine and sine terms) or "cosine" (b = 0)
    dep   : "iid" or "periodic"
    ell   : coefficient period; required for periodic, None for iid
    sigma : common standard deviation of each Gaussian coefficient.
            Zero counts and Kac-Rice ratios are sigma-invariant; the
            field only scales sample amplitudes.

    Construction runs validate_model, so every model in hand is coherent.
    """

    kind: str
    dep: str
    ell: Optional[int] = None
    sigma: float = 1.0

    def __post_init__(self):
        validate_model(self)

    def period(self, n: int) -> PeriodDecomposition:
        """The split of degree n that every numerical route reads: against
        ell for the periodic model, and against the vacuous period n + 1
        (m = 1, r = 0, no coefficient repeats) for the i.i.d. one."""
        return decompose_degree(n, n + 1 if self.dep == "iid" else self.ell)


def validate_model(model: CoefficientModel) -> CoefficientModel:
    """Check model fields, returning the model unchanged if coherent."""
    if model.kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {model.kind!r}")
    if model.dep not in DEPENDENCIES:
        raise ValueError(f"dep must be one of {DEPENDENCIES}, got {model.dep!r}")
    if model.dep == "periodic":
        _check_period(model.ell)
    elif model.ell is not None:
        raise ValueError("iid model must not carry a period; leave ell=None")
    sigma = float(model.sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be finite and positive, got {model.sigma}")
    return model


def normalized_coefficients(a, b):
    """(c, e): c_k = (a_k - i b_k) 2^-e with e the binary exponent of the
    largest |a_k|, |b_k|, so that max |c_k| lies in [1/2, sqrt 2).

    Scaling by a power of two is exact, so every quantity built from c
    is the sigma = 1 quantity to the last bit, whatever the draw's scale.
    """
    e = math.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
    return np.ldexp(a, -e) - 1j * np.ldexp(b, -e), e


@dataclass(frozen=True)
class PolySample:
    """One drawn coefficient vector pair; arrays are read-only views."""

    model: CoefficientModel
    n: int
    seed: int
    a: np.ndarray
    b: np.ndarray

    @functools.cached_property
    def split(self) -> PeriodDecomposition:
        """model.period(n), built once per sample: sample_coefficients
        hands over the split it drew with, and the zero counter and
        reduce_periodic read it from here."""
        return self.model.period(self.n)

    @functools.cached_property
    def normalized(self) -> tuple[np.ndarray, int]:
        """normalized_coefficients(a, b), computed once per sample; the
        evaluators of trigpoly read the coefficients from here."""
        c, e = normalized_coefficients(self.a, self.b)
        c.flags.writeable = False
        return c, e

    def unit(self) -> PolySample:
        """The sample times 2^-e (e from normalized), so that its largest
        coefficient lies in [1/2, 1).  The scaling is exact, so the copy's
        normalized coefficients are this sample's c with exponent 0; they
        are handed over rather than computed again."""
        c, e = self.normalized
        unit = dataclasses.replace(self, a=np.ldexp(self.a, -e), b=np.ldexp(self.b, -e))
        unit.__dict__["normalized"] = (c, 0)  # the slot cached_property fills
        return unit


def sample_coefficients(model: CoefficientModel, n: int, seed: int) -> PolySample:
    """Draw one sample of the model at degree n.

    Deterministic in (model, n, seed).  Draw order is fixed: the a
    vector (or its ell-long base) first, then b for the trig kind, so
    identical seeds reproduce identical samples regardless of caller.
    Raises FloatingPointError when sigma times a standard normal draw
    leaves the double range.
    """
    dec = model.period(n)
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    rows = 2 if model.kind == "trig" else 1
    # one call draws a then b: the stream is the one of two calls in turn
    with np.errstate(over="ignore"):
        values = model.sigma * rng.standard_normal(rows * dec.ell)
    if not np.isfinite(values).all():
        raise FloatingPointError(
            f"coefficient draw overflows the double range at sigma={model.sigma}"
        )
    values = values.reshape(rows, dec.ell)
    if dec.ell <= n:
        # tile copies bits exactly, so a[j] IS a[j % ell] to the last ulp
        values = np.tile(values, dec.m + 1)[:, : n + 1]
    a = values[0]
    b = values[1] if rows == 2 else np.zeros(n + 1)
    a.flags.writeable = False
    b.flags.writeable = False
    sample = PolySample(model=model, n=int(n), seed=int(seed), a=a, b=b)
    sample.__dict__["split"] = dec  # the slot cached_property fills
    return sample
