"""Zero-counting tests: known counts, stability protocol, refinement."""

import itertools

import numpy as np
import pytest

from trigzeros import zeros
from trigzeros.models import CoefficientModel, mix64, sample_coefficients
from trigzeros.trigpoly import ReducedSample, evaluate, grid_nodes, reduce_periodic
from trigzeros.zeros import (
    ZeroCountReport,
    _brackets,
    _sign_changes,
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
        for n in (20, 21, 50, 51):  # odd n exercises the anti-periodic wrap
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


def brute_force_scan(vals, wrap_sign):
    """Cell-by-cell reference: an exact zero node counts once and joins no
    bracket; otherwise a cell counts when its ends have opposite signs."""
    brackets, zero_idx = [], []
    for i, v in enumerate(vals):
        w = vals[i + 1] if i + 1 < len(vals) else wrap_sign * vals[0]
        if v == 0.0:
            zero_idx.append(i)
        elif w != 0.0 and (v < 0.0) != (w < 0.0):
            brackets.append(i)
    return brackets, zero_idx


class TestSignScan:
    @pytest.mark.parametrize("wrap_sign", [1.0, -1.0])
    def test_matches_brute_force(self, wrap_sign):
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
            brackets, zero_idx = brute_force_scan(v, wrap_sign)
            got_brackets, got_zero_idx = _brackets(v, wrap_sign)
            assert _sign_changes(v, wrap_sign) == len(brackets) + len(zero_idx), v
            assert list(got_brackets) == brackets and list(got_zero_idx) == zero_idx, v

    def test_nan_raises(self):
        for v in ([np.nan], [1.0, np.nan, -1.0], [0.0, np.nan], [np.nan, -0.0, 2.0]):
            with pytest.raises(FloatingPointError, match="NaN"):
                _sign_changes(np.array(v), 1.0)


class TestReducedRouteIdentity:
    def test_reports_equal_dense_reduced_evaluation(self, monkeypatch):
        """r = 0 reports and roots per trial are those of a scan of the
        densely summed reduced factor: integer and half-integer
        frequencies, ell = 1."""
        cases = [(CoefficientModel(kind="trig", dep="periodic", ell=ell), n)
                 for ell, n in ((2, 199), (3, 299), (5, 499), (4, 59), (1, 20), (1, 51))]
        cases.append((CoefficientModel(kind="cosine", dep="periodic", ell=3), 599))
        samples = [sample_coefficients(model, n, seed=mix64(2026, n, t))
                   for model, n in cases for t in range(8)]
        spectral = [count_zeros(s, want_roots=True) for s in samples]
        grid = zeros.evaluate_on_grid

        def dense_reduced(target, num):
            if isinstance(target, ReducedSample):
                return target.evaluate(grid_nodes(num))
            return grid(target, num)

        monkeypatch.setattr(zeros, "evaluate_on_grid", dense_reduced)
        for s, rep in zip(samples, spectral):
            dense = count_zeros(s, want_roots=True)
            assert (rep.count, rep.grid_size, rep.doublings_used, rep.stable) == (
                dense.count, dense.grid_size, dense.doublings_used, dense.stable)
            # the same final-grid brackets bisect to the same roots
            assert np.array_equal(rep.roots, dense.roots)


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
        model = CoefficientModel(kind="cosine", dep="periodic", ell=3)
        s = sample_coefficients(model, 1199, seed=6)  # r = 0
        rep = count_zeros(s)
        assert rep.grid_size == smooth_size(32 * 1199) * 2 ** rep.doublings_used


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
