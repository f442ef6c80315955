"""Zero-counting tests: known counts, stability protocol, refinement."""

import dataclasses
import itertools

import numpy as np
import pytest

from trigzeros.models import CoefficientModel, mix64, sample_coefficients
from trigzeros.trigpoly import evaluate, grid_nodes, reduce_periodic
from trigzeros.zeros import (
    ZeroCountReport,
    _bisect_brackets,
    _brackets,
    _sign_changes,
    carrier_phase,
    count_zeros,
    deterministic_zero_set,
    refine_root,
    smooth_size,
)


def _rigged_sample(n, a=None, b=None):
    """Sample with hand-set coefficients (test rig for known functions)."""
    model = CoefficientModel(kind="trig", dep="iid")
    s = sample_coefficients(model, n, seed=0)
    if a is not None:
        arr = np.asarray(a, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(s, "a", arr)
    if b is not None:
        arr = np.asarray(b, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(s, "b", arr)
    return s


class TestKnownCounts:
    def test_single_cosine_tone(self):
        a = np.zeros(11)
        a[7] = 1.0
        s = _rigged_sample(10, a=a, b=np.zeros(11))
        assert count_zeros(s).count == 14

    def test_single_sine_tone(self):
        b = np.zeros(6)
        b[5] = 1.0
        s = _rigged_sample(5, a=np.zeros(6), b=b)
        # sin(5x) vanishes at k pi/5; 0 is excluded, so 10 zeros remain
        assert count_zeros(s).count == 10

    def test_zero_near_wraparound_is_found(self):
        # cos(x - theta) with one zero 1e-5 below 2 pi
        theta = np.pi / 2 - 1e-5
        a = np.array([0.0, np.cos(theta)])
        b = np.array([0.0, np.sin(theta)])
        s = _rigged_sample(1, a=a, b=b)
        assert count_zeros(s).count == 2

    def test_ell_one_periodic_counts_exactly_2n(self):
        """All coefficients repeat with period one: 2n zeros, every seed."""
        model = CoefficientModel(kind="trig", dep="periodic", ell=1)
        for n in (20, 21, 50, 51):  # odd n: half-integer carrier frequency
            for trial in range(30):
                s = sample_coefficients(model, n, seed=mix64(3, n, trial))
                rep = count_zeros(s)
                assert rep.count == 2 * n
                assert rep.stable

    def test_r0_count_at_least_deterministic_floor(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=3)
        for trial in range(20):
            s = sample_coefficients(model, 59, seed=mix64(4, 59, trial))
            assert count_zeros(s).count >= 59 + 1 - 3


def brute_force_scan(vals):
    """Cell-by-cell reference: an exact zero node counts once and joins no
    bracket; otherwise a cell counts when its ends have opposite signs."""
    brackets, zero_idx = [], []
    for i, v in enumerate(vals):
        w = vals[i + 1] if i + 1 < len(vals) else vals[0]
        if v == 0.0:
            zero_idx.append(i)
        elif w != 0.0 and (v < 0.0) != (w < 0.0):
            brackets.append(i)
    return brackets, zero_idx


class TestSignScan:
    def test_matches_brute_force(self):
        """Every array of length 1..3 over {-2, -0.0, +0.0, 1}, and random
        longer ones with scattered signed zeros."""
        arrays = [np.array(t) for num in (1, 2, 3)
                  for t in itertools.product((-2.0, -0.0, 0.0, 1.0), repeat=num)]
        rng = np.random.default_rng(41)
        for _ in range(200):
            v = rng.standard_normal(int(rng.integers(1, 40)))
            v[rng.random(v.size) < 0.1] = 0.0
            v[rng.random(v.size) < 0.1] = -0.0
            arrays.append(v)
        for v in arrays:
            brackets, zero_idx = brute_force_scan(v)
            got_brackets, got_zero_idx = _brackets(v)
            assert _sign_changes(v) == len(brackets) + len(zero_idx), v
            assert list(got_brackets) == brackets and list(got_zero_idx) == zero_idx, v

    def test_nan_raises(self):
        for v in ([np.nan], [1.0, np.nan, -1.0], [0.0, np.nan], [np.nan, -0.0, 2.0]):
            with pytest.raises(FloatingPointError, match="NaN"):
                _sign_changes(np.array(v))


# the r = 0 acceptance families: (kind, ell, n, master seed)
ACCEPTANCE_R0 = (
    [("trig", ell, n, 2026) for ell, n in ((2, 199), (3, 299), (5, 499))]
    + [("cosine", 3, n, 2028) for n in (299, 599, 1199)]
    + [("trig", 1, n, 2027) for n in (20, 50, 100)]
)


def _acceptance_sample(kind, ell, n, seed, trial):
    model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
    return sample_coefficients(model, n, seed=mix64(seed, n, trial))


def grid_oracle(sample, tol=None, max_doublings=7):
    """(count, stable, roots) of an r = 0 sample from a sign scan of the
    densely summed reduced factor under the doubling rule.

    The wrap cell compares the last node with T* at x_0 + 2 pi itself, so
    half-integer frequencies (T* anti-periodic) need no sign rule.
    """
    red = reduce_periodic(sample)
    det = deterministic_zero_set(red.m, red.ell)
    N = smooth_size(max(256, 32 * sample.n))
    counts = []
    for _ in range(max_doublings + 1):
        x = np.append(grid_nodes(N), grid_nodes(N)[0] + 2 * np.pi)
        vals = red.evaluate(x)
        assert vals.all()
        cells = np.flatnonzero(np.signbit(vals[1:]) != np.signbit(vals[:-1]))
        counts.append(cells.size)
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            break
        N *= 2
    stable = len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]
    roots = None
    if tol is not None:
        found = _bisect_brackets(red.evaluate, x[cells], x[cells + 1], tol)
        roots = np.sort(np.concatenate([np.mod(found, 2 * np.pi), det]))
    return counts[-1] + det.size, stable, roots


def circle_roots_oracle(sample):
    """Real zeros of T_n as the unit-circle roots of the degree-2n
    polynomial z^n T_n(z) (companion matrix; J. P. Boyd, J. Eng. Math. 56,
    2006): z^n T_n = (1/2) sum_j c_j z^(n+j) + conj(c_j) z^(n-j)."""
    n = sample.n
    c = sample.a - 1j * sample.b
    p = np.zeros(2 * n + 1, dtype=complex)
    p[n:] += 0.5 * c
    p[n::-1] += 0.5 * np.conj(c)
    z = np.roots(p[::-1])
    return int(np.count_nonzero(np.abs(np.abs(z) - 1.0) < 1e-6))


class TestReducedRouteIdentity:
    def test_reports_equal_dense_reduced_evaluation(self):
        """The phase count equals the dense grid oracle on 40 trials of each
        r = 0 acceptance family, and the report names the phase route."""
        for kind, ell, n, seed in ACCEPTANCE_R0:
            for t in range(40):
                s = _acceptance_sample(kind, ell, n, seed, t)
                rep = count_zeros(s)
                count, stable, _ = grid_oracle(s)
                assert stable and rep.stable, (kind, ell, n, t)
                assert rep.count == count, (kind, ell, n, t)
                assert (rep.grid_size, rep.doublings_used) == (0, 0)
                assert rep.pieces >= 1

    def test_backtracking_phase_hard_case(self):
        """ell = 5, n = 499, master seed 2026, trial 209: P has a root just
        outside the unit circle, the phase backtracks, and the count exceeds
        the no-breakpoint value 2(f0 + w) + n+1-ell by two."""
        s = _acceptance_sample("trig", 5, 499, 2026, 209)
        rep = count_zeros(s)
        assert (rep.count, rep.stable, rep.pieces) == (998, True, 3)
        assert grid_oracle(s)[:2] == (998, True)
        phase = carrier_phase(reduce_periodic(s))
        gap = np.abs(np.abs(phase.roots) - 1.0)
        assert gap.min() == pytest.approx(5.05e-4, rel=1e-2)
        assert 2 * phase.slope + 495 == 996

    def test_companion_matrix_oracle(self):
        """Small degrees: the count is the number of unit-circle roots of
        z^n T_n(z), integer and half-integer carrier frequencies, trig and
        cosine."""
        cases = [("trig", 2, 19), ("trig", 3, 29), ("trig", 4, 59), ("trig", 5, 24),
                 ("trig", 5, 4), ("cosine", 3, 29), ("cosine", 3, 59), ("trig", 1, 9)]
        for kind, ell, n in cases:
            model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
            for t in range(25):
                s = sample_coefficients(model, n, seed=mix64(61, n, t))
                rep = count_zeros(s)
                assert rep.stable
                assert rep.count == circle_roots_oracle(s), (kind, ell, n, t)

    def test_every_sample_has_the_phase_floor(self):
        """theta advances by 2 pi (f0 + w) >= pi (n+1-ell): every r = 0
        sample has at least 2(n+1-ell) zeros."""
        for kind, ell, n, seed in ACCEPTANCE_R0:
            for t in range(100):
                rep = count_zeros(_acceptance_sample(kind, ell, n, seed, t))
                assert 2 * (n + 1 - ell) <= rep.count <= 2 * n, (kind, ell, n, t)

    def test_roots_match_grid_refined_roots(self):
        for kind, ell, n, seed in ACCEPTANCE_R0:
            for t in (0, 1, 2):
                s = _acceptance_sample(kind, ell, n, seed, t)
                rep = count_zeros(s, want_roots=True, tol=1e-12)
                _, _, expected = grid_oracle(s, tol=1e-12)
                assert rep.roots.size == rep.count == expected.size
                assert np.abs(rep.roots - expected).max() <= 1e-9, (kind, ell, n, t)
        s = _acceptance_sample("trig", 5, 499, 2026, 209)
        rep = count_zeros(s, want_roots=True, tol=1e-12)
        assert np.abs(rep.roots - grid_oracle(s, tol=1e-12)[2]).max() <= 1e-9

    def test_phase_matches_dense_reduced_factor(self):
        """2^e |P(e^{ix})| cos theta(x) is T*(x), at x = 0, 2 pi and between."""
        for kind, ell, n, seed in ACCEPTANCE_R0:
            red = reduce_periodic(_acceptance_sample(kind, ell, n, seed, 3))
            phase = carrier_phase(red)
            x = np.linspace(0.0, 2 * np.pi, 4001)
            amp = np.abs(np.polyval(phase.coeffs[::-1], np.exp(1j * x)))
            got = np.ldexp(amp * np.cos(phase(x)), phase.exponent)
            scale = np.abs(red.a).sum() + np.abs(red.b).sum()
            assert np.abs(got - red.evaluate(x)).max() <= 1e-11 * scale * n
            theta = phase(np.array([0.0, 2 * np.pi]))
            assert theta[1] - theta[0] == pytest.approx(2 * np.pi * phase.slope, abs=1e-9)

    def test_degenerate_reduced_factors(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=3)
        s = sample_coefficients(model, 29, seed=4)
        for a, err in ((np.tile([np.nan, 1.0, 0.0], 10), FloatingPointError),
                       (np.tile([np.inf, 1.0, 0.0], 10), FloatingPointError),
                       (np.zeros(30), RuntimeError)):
            with pytest.raises(err):
                count_zeros(_rigged_periodic(s, a, np.zeros(30)))
        # a vanishing top coefficient lowers the degree of P
        a = np.tile([1.0, 0.5, 0.0], 10)
        rigged = _rigged_periodic(s, a, np.zeros(30))
        assert count_zeros(rigged).count == circle_roots_oracle(rigged)


class TestExtraCrossings:
    @pytest.mark.parametrize("ell, n", [(3, 5), (5, 9)])
    def test_mean_extra_crossings(self, ell, n):
        """Trig with r = 0: the phase alone forces n+1-ell deterministic
        zeros plus 2 slope = 2(f0 + w) zeros of T*, with 2 f0 = n+1-ell and
        E[w] = (ell-1)/2.  The non-monotone pieces add the rest, so with
        E[count] = (n+1-ell) + sqrt(n^2 + (ell^2-1)/3) the extra crossings
        average sqrt(n^2 + (ell^2-1)/3) - n."""
        model = CoefficientModel(kind="trig", dep="periodic", ell=ell)
        extra = np.empty(4000)
        for t in range(extra.size):
            s = sample_coefficients(model, n, seed=mix64(2029, n, t))
            slope = carrier_phase(reduce_periodic(s)).slope
            extra[t] = count_zeros(s).count - (n + 1 - ell) - 2 * slope
        assert extra.min() >= 0
        want = np.sqrt(n * n + (ell * ell - 1) / 3.0) - n
        stderr = extra.std(ddof=1) / np.sqrt(extra.size)
        assert abs(extra.mean() - want) < 3.0 * stderr


def _rigged_periodic(sample, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a.flags.writeable = False
    b.flags.writeable = False
    return dataclasses.replace(sample, a=a, b=b)


class TestScaleInvariance:
    @pytest.mark.parametrize("dep, ell", [("iid", None), ("periodic", 3), ("periodic", 5)])
    def test_extreme_sigma_counts_as_sigma_one(self, dep, ell):
        """n = 1999: i.i.d., periodic r = 2 (ell = 3) and r = 0 (ell = 5)."""
        n = 1999
        s1 = sample_coefficients(CoefficientModel(kind="trig", dep=dep, ell=ell), n, seed=17)
        expected = count_zeros(s1)
        for k in (1020, -1000):
            model = CoefficientModel(kind="trig", dep=dep, ell=ell, sigma=2.0**k)
            s = sample_coefficients(model, n, seed=17)
            # the draw is an exact rescaling of the sigma = 1 draw
            assert np.array_equal(s.a, np.ldexp(s1.a, k))
            assert np.array_equal(s.b, np.ldexp(s1.b, k))
            rep = count_zeros(s)
            assert (rep.count, rep.grid_size, rep.stable) == (
                expected.count, expected.grid_size, expected.stable), k


class TestDeterministicZeroSet:
    def test_explicit_small_case(self):
        zs = deterministic_zero_set(3, 2)
        expected = 2 * np.pi * np.array([1, 2, 4, 5]) / 6.0
        assert np.allclose(zs, expected, atol=1e-15)

    def test_cardinality(self):
        for m in (1, 2, 5, 9):
            for ell in (1, 2, 4):
                assert deterministic_zero_set(m, ell).size == ell * (m - 1)

    def test_m_one_is_empty(self):
        assert deterministic_zero_set(1, 5).size == 0

    def test_values_are_zeros_of_the_ratio(self):
        from trigzeros.trigpoly import dirichlet_ratio

        zs = deterministic_zero_set(7, 3)
        vals = dirichlet_ratio(7, 3, zs)
        assert np.abs(vals).max() < 1e-8 * 7


class TestStabilityProtocol:
    def test_report_fields(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 25, seed=2)
        rep = count_zeros(s, grid_per_degree=32)
        assert isinstance(rep, ZeroCountReport)
        base = smooth_size(max(256, 32 * 25))
        assert rep.grid_size == base * 2 ** rep.doublings_used
        assert rep.doublings_used >= 2  # two equal doublings are required

    def test_insufficient_doubling_budget_is_flagged(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 25, seed=2)
        assert not count_zeros(s, max_doublings=0).stable
        assert not count_zeros(s, max_doublings=1).stable
        with pytest.raises(ValueError, match="max_doublings"):
            count_zeros(s, max_doublings=-3)

    def test_deterministic_reports(self):
        model = CoefficientModel(kind="cosine", dep="iid")
        s = sample_coefficients(model, 40, seed=11)
        r1 = count_zeros(s, want_roots=True)
        r2 = count_zeros(s, want_roots=True)
        assert r1.count == r2.count and r1.grid_size == r2.grid_size
        assert np.array_equal(r1.roots, r2.roots)

    def test_nan_coefficients_abort(self):
        a = np.zeros(4)
        a[1] = np.nan
        s = _rigged_sample(3, a=a, b=np.zeros(4))
        with pytest.raises(FloatingPointError):
            count_zeros(s)

    def test_counts_consistent_across_base_grids(self):
        """>= 99% of 500 random samples agree at grid_per_degree 32/64/128."""
        rng = np.random.default_rng(99)
        models = [
            CoefficientModel(kind="trig", dep="iid"),
            CoefficientModel(kind="cosine", dep="iid"),
            CoefficientModel(kind="trig", dep="periodic", ell=2),
            CoefficientModel(kind="trig", dep="periodic", ell=5),
            CoefficientModel(kind="cosine", dep="periodic", ell=3),
        ]
        agree = 0
        total = 500
        for i in range(total):
            model = models[i % len(models)]
            lo = max(20, (model.ell or 1) - 1)
            n = int(rng.integers(lo, 401))
            s = sample_coefficients(model, n, seed=mix64(7, n, i))
            c32 = count_zeros(s, grid_per_degree=32).count
            c64 = count_zeros(s, grid_per_degree=64).count
            c128 = count_zeros(s, grid_per_degree=128).count
            agree += int(c32 == c64 == c128)
        assert agree >= 0.99 * total


class TestGridRule:
    def test_smooth_size_is_smallest_five_smooth_upper_bound(self):
        def is_smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        for num in range(1, 5001):
            size = smooth_size(num)
            assert size >= num and is_smooth(size), num
            assert not any(is_smooth(k) for k in range(num, size)), num

    def test_known_sizes(self):
        assert smooth_size(6368) == 6400  # 32 * 199
        assert smooth_size(63968) == 64000  # 32 * 1999
        assert smooth_size(256) == 256

    def test_prime_degree_gets_smooth_grid(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 199, seed=5)
        rep = count_zeros(s)
        assert rep.grid_size == 6400 * 2 ** rep.doublings_used

    def test_reduced_route_uses_the_same_rule(self):
        """r = 0 samples take the phase route at every grid setting: no grid."""
        model = CoefficientModel(kind="cosine", dep="periodic", ell=3)
        s = sample_coefficients(model, 1199, seed=6)  # r = 0
        expected = count_zeros(s)
        assert (expected.grid_size, expected.doublings_used) == (0, 0)
        for gpd, md in ((1, 0), (128, 7)):
            rep = count_zeros(s, grid_per_degree=gpd, max_doublings=md)
            assert rep == expected


class TestRootRefinement:
    def test_refine_single_cosine_root(self):
        a = np.array([0.0, 1.0])
        s = _rigged_sample(1, a=a, b=np.zeros(2))
        root = refine_root(s, 1.0, 2.0, tol=1e-12)
        assert root == pytest.approx(np.pi / 2, abs=1e-11)

    def test_refine_rejects_non_bracketing(self):
        a = np.array([0.0, 1.0])
        s = _rigged_sample(1, a=a, b=np.zeros(2))
        with pytest.raises(ValueError):
            refine_root(s, 0.1, 0.5)

    def test_roots_match_count_and_interval(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 60, seed=13)
        rep = count_zeros(s, want_roots=True, tol=1e-11)
        assert rep.roots.size == rep.count
        assert np.all(rep.roots > 0) and np.all(rep.roots < 2 * np.pi)
        assert np.all(np.diff(rep.roots) >= 0)

    def test_residuals_small_against_amplitude_scale(self):
        """Refined roots re-evaluate below 1e-8 of the iid amplitude sqrt(n+1)."""
        model = CoefficientModel(kind="trig", dep="iid", sigma=1.0)
        for seed in (1, 2, 3):
            s = sample_coefficients(model, 80, seed=seed)
            rep = count_zeros(s, want_roots=True, tol=1e-12)
            resid = np.abs(evaluate(s, rep.roots))
            assert resid.max() <= 1e-8 * np.sqrt(s.n + 1.0)

    def test_r0_roots_split_into_both_families(self):
        """Merged roots match the deterministic set or kill the reduced factor."""
        model = CoefficientModel(kind="trig", dep="periodic", ell=2)
        s = sample_coefficients(model, 39, seed=21)  # m = 20
        red = reduce_periodic(s)
        det = deterministic_zero_set(red.m, red.ell)
        rep = count_zeros(s, want_roots=True, tol=1e-12)
        scale = np.abs(red.a).sum() + np.abs(red.b).sum()
        for root in rep.roots:
            near_det = np.min(np.abs(det - root)) < 1e-9
            kills_reduced = abs(red.evaluate(root)) < 1e-6 * scale
            assert near_det or kills_reduced


class TestCeiling:
    def test_reported_counts_respect_2n(self):
        for kind in ("trig", "cosine"):
            model = CoefficientModel(kind=kind, dep="iid")
            for seed in range(10):
                s = sample_coefficients(model, 35, seed=seed)
                assert count_zeros(s).count <= 70
