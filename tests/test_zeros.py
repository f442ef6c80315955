"""Zero-counting tests: known counts, the cell certificate, refinement."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from trigzeros.models import (
    CoefficientModel,
    decompose_degree,
    mix64,
    sample_coefficients,
)
from trigzeros import trigpoly
from trigzeros.trigpoly import (
    evaluate,
    evaluate_jet,
    evaluate_on_grid,
    grid_nodes,
    reduce_periodic,
    scratch_scope,
)
from trigzeros.zeros import (
    GRID_OFFSET,
    ZeroCountReport,
    _certificate,
    _grid_layout,
    _hull_sides,
    _polynomial_roots,
    carrier_phase,
    count_zeros,
    deterministic_zero_set,
    smooth_size,
)


def _rigged_sample(n, a=None, b=None):
    """Sample with hand-set coefficients (test rig for known functions);
    a vector not given is that of the seed-0 draw.  The rig is a new
    sample, so nothing the sampler handed over (split, peak) carries over."""
    model = CoefficientModel(kind="trig", dep="iid")
    s = sample_coefficients(model, n, seed=0)
    fields = {}
    for name, given in (("a", a), ("b", b)):
        if given is not None:
            fields[name] = np.array(given, dtype=float)
            fields[name].flags.writeable = False
    return dataclasses.replace(s, **fields)


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

    def test_zeros_on_grid_nodes(self):
        """sin(x - x_i) vanishes at the nodes x_i and x_i + pi of the base
        grid, where the grid value is rounding noise: still certified, and
        the roots are those nodes."""
        nodes = grid_nodes(256, offset=GRID_OFFSET)
        for i in (0, 17, 100):
            s = _rigged_sample(1, a=[0.0, -np.sin(nodes[i])], b=[0.0, np.cos(nodes[i])])
            assert abs(evaluate(s, nodes[i])) < 1e-15
            rep = count_zeros(s, want_roots=True, tol=1e-13)
            assert (rep.count, rep.stable, rep.grid_size) == (2, True, 256), i
            assert np.allclose(rep.roots, nodes[[i, i + 128]], atol=1e-12)

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


class TestCellTest:
    def test_bezier_hull_matches_dense_cubic(self):
        """Where _hull_sides gives a sign, the cubic Hermite interpolant of the
        end data stays beyond the clearance with that sign on 2001 points;
        a sign of 0 only where some control point falls short of it."""
        rng = np.random.default_rng(41)
        k = 4000
        v0, d0, v1, d1 = rng.standard_normal((4, k))
        w = rng.uniform(0.05, 2.0, k)
        clearance = rng.uniform(0.0, 0.5, k)
        above, below = _hull_sides(v0, d0, v1, d1, w / 3.0, clearance)
        sign = above.astype(int) - below
        assert set(np.unique(sign)) == {-1, 0, 1}
        t = np.linspace(0.0, 1.0, 2001)[:, None]
        # Bernstein form of the Hermite cubic on [0, w]
        b = (v0, v0 + w * d0 / 3, v1 - w * d1 / 3, v1)
        cubic = ((1 - t) ** 3 * b[0] + 3 * (1 - t) ** 2 * t * b[1]
                 + 3 * (1 - t) * t ** 2 * b[2] + t ** 3 * b[3])
        assert np.allclose(cubic[0], v0) and np.allclose(cubic[-1], v1)
        clear = sign != 0
        assert np.all(sign[clear] * cubic[:, clear] > clearance[clear])
        short = np.min(np.abs(b), axis=0) <= clearance
        mixed = (np.min(b, axis=0) < 0) & (np.max(b, axis=0) > 0)
        assert np.array_equal(~clear, short | mixed)


# the r = 0 acceptance families: (kind, ell, n, master seed)
ACCEPTANCE_R0 = (
    [("trig", ell, n, 2026) for ell, n in ((2, 199), (3, 299), (5, 499))]
    + [("cosine", 3, n, 2028) for n in (299, 599, 1199)]
    + [("trig", 1, n, 2027) for n in (20, 50, 100)]
)


def _acceptance_sample(kind, ell, n, seed, trial):
    model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
    return sample_coefficients(model, n, seed=mix64(seed, n, trial))


def bisect(f, lo, hi, tol):
    """Midpoints of the brackets (lo_i, hi_i) of sign changes of f after
    halving them to width tol or below."""
    left_sign = np.signbit(f(lo))
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        left = np.signbit(f(mid)) != left_sign
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    return 0.5 * (lo + hi)


def grid_oracle(sample, tol=None, max_doublings=7):
    """(count, stable, roots) of an r = 0 sample from a sign scan of the
    densely summed reduced factor under the doubling rule, with roots
    bisected on the dense sums: independent of the phase route.

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
        found = bisect(red.evaluate, x[cells], x[cells + 1], tol)
        roots = np.sort(np.concatenate([np.mod(found, 2 * np.pi), det]))
    return counts[-1] + det.size, stable, roots


def circle_gaps(sample):
    """||z| - 1| over the roots z of the degree-2n polynomial z^n 2T_n(z)
    (companion matrix; J. P. Boyd, J. Eng. Math. 56, 2006):
    z^n 2T_n = sum_j c_j z^(n+j) + conj(c_j) z^(n-j)."""
    n = sample.n
    c = sample.a - 1j * sample.b
    p = np.zeros(2 * n + 1, dtype=complex)
    p[n:] += c
    p[n::-1] += np.conj(c)
    return np.abs(np.abs(np.roots(p[::-1])) - 1.0)


def circle_roots_oracle(sample):
    """Real zeros of T_n as the unit-circle roots of z^n 2T_n(z)."""
    return int(np.count_nonzero(circle_gaps(sample) < 1e-6))


def decided_circle_roots(sample):
    """The count of circle_roots_oracle with a 1e-7 cut, or None when some
    root lies between 1e-7 and 1e-3 of the circle, where the oracle cannot
    tell a close zero pair from a near miss."""
    gap = circle_gaps(sample)
    if ((gap >= 1e-7) & (gap < 1e-3)).any():
        return None
    return int(np.count_nonzero(gap < 1e-7))


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
        from trigzeros.trigpoly import dirichlet_pair

        zs = deterministic_zero_set(7, 3)
        vals = dirichlet_pair(7, 3, zs)[0]
        assert np.abs(vals).max() < 1e-8 * 7


class TestStabilityProtocol:
    """The cell certificate that decides `stable` on the grid route."""

    def test_report_fields(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 25, seed=2)
        rep = count_zeros(s, grid_per_degree=32)
        assert isinstance(rep, ZeroCountReport)
        assert rep.grid_size == smooth_size(max(256, 32 * 25))  # the base grid only
        assert (rep.doublings_used, rep.stable, rep.pieces) == (0, True, 0)
        assert rep.count == decided_circle_roots(s)

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    def test_insufficient_doubling_budget_is_flagged(self, tangent_draw, kind):
        """A double zero is never certified, whatever the halving budget,
        on the whole circle and on the half circle alike."""
        s = tangent_draw(CoefficientModel(kind=kind, dep="iid"), 1, 0)
        for max_doublings in range(8):
            rep = count_zeros(s, max_doublings=max_doublings)
            assert not rep.stable, max_doublings
            assert rep.doublings_used == max_doublings
            assert rep.grid_size == 256
            # 1 + cos x >= 0 in floating point too (pi is the midpoint of a
            # base cell of the whole circle, where it is exactly +0.0): no
            # sign bit changes on either side
            assert rep.count == 0, max_doublings
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
        for bad in (np.nan, np.inf):
            a = np.zeros(4)
            a[1] = bad
            s = _rigged_sample(3, a=a, b=np.zeros(4))
            with pytest.raises(FloatingPointError):
                count_zeros(s)
        with pytest.raises(RuntimeError, match="vanishes identically"):
            count_zeros(_rigged_sample(3, a=np.zeros(4), b=np.zeros(4)))

    def test_cosine_sample_with_a_sine_term_is_rejected(self):
        """The half circle proves the count of an even T only, so a cosine
        sample given a nonzero b is an input error, not a count of half its
        circle; the same coefficients as a trig sample take the whole."""
        s = sample_coefficients(CoefficientModel(kind="cosine", dep="iid"), 10, seed=3)
        b = np.zeros(11)
        b[4] = 1e-3
        with pytest.raises(ValueError, match="nonzero b in a cosine sample"):
            count_zeros(dataclasses.replace(s, b=b))
        trig = dataclasses.replace(s, b=b, model=CoefficientModel(kind="trig", dep="iid"))
        rep = count_zeros(trig)
        assert rep.stable and rep.count == circle_roots_oracle(trig)

    def test_counts_consistent_across_base_grids(self):
        """600 random samples: every certified report agrees at
        grid_per_degree 32, 64 and 128, and >= 99% are certified at all
        three.  The periodic trig ell = 3 samples all have r != 0: the grid
        route, with M set by the spikes at the lattice points."""
        rng = np.random.default_rng(99)
        models = [
            CoefficientModel(kind="trig", dep="iid"),
            CoefficientModel(kind="cosine", dep="iid"),
            CoefficientModel(kind="trig", dep="periodic", ell=2),
            CoefficientModel(kind="trig", dep="periodic", ell=5),
            CoefficientModel(kind="cosine", dep="periodic", ell=3),
            CoefficientModel(kind="trig", dep="periodic", ell=3),
        ]
        certified = 0
        total = 600
        for i in range(total):
            model = models[i % len(models)]
            lo = max(20, (model.ell or 1) - 1)
            n = int(rng.integers(lo, 401))
            if model == models[-1] and (n + 1) % 3 == 0:
                n += 1
            s = sample_coefficients(model, n, seed=mix64(7, n, i))
            reps = [count_zeros(s, grid_per_degree=g) for g in (32, 64, 128)]
            counts = {rep.count for rep in reps if rep.stable}
            assert len(counts) <= 1, (model, n, i, reps)
            certified += all(rep.stable for rep in reps)
        assert certified >= 0.99 * total


class TestCertificate:
    def test_found_samples(self):
        """Counts that the doubling protocol reported as stable and short:
        the i.i.d. cosine n = 499 sample ("stable" 620) and the i.i.d. trig
        n = 199 sample ("stable" 218 on 32n grids), each confirmed on
        2^20- and 2^23-node grids."""
        for kind, n, master, trial, zeros in (
                ("cosine", 499, 4411435410273098671, 11, 624),
                ("trig", 199, 5423775270346001248, 8, 220)):
            model = CoefficientModel(kind=kind, dep="iid")
            s = sample_coefficients(model, n, seed=mix64(master, n, trial))
            rep = count_zeros(s)
            assert (rep.count, rep.stable) == (zeros, True), (kind, n)

    def test_acceptance_trials_that_moved_between_grid_rules(self):
        """The ell = 3, r = 1, n = 399 acceptance trials (master seed 2026)
        whose doubling-protocol counts differed between the 32n and the
        5-smooth grid rule, with their certified counts (the same at
        grid_per_degree 256)."""
        certified = {50: 428, 428: 770, 516: 782, 765: 750, 777: 602, 1048: 672,
                     1373: 428, 1467: 624, 1650: 626, 1703: 660, 1717: 714,
                     1766: 484, 1862: 650, 1968: 704}
        model = CoefficientModel(kind="trig", dep="periodic", ell=3)
        for trial, zeros in certified.items():
            s = sample_coefficients(model, 399, seed=mix64(2026, 399, trial))
            rep = count_zeros(s)
            assert (rep.count, rep.stable) == (zeros, True), trial

    @pytest.mark.parametrize("kind, dep, ell, n", [
        ("trig", "iid", None, 199), ("trig", "iid", None, 499), ("cosine", "iid", None, 499),
        ("trig", "iid", None, 1999), ("trig", "periodic", 3, 400)])
    def test_grid_clearance_is_the_clearance_row(self, kind, dep, ell, n):
        """The zero-free clearance of the base grid, a scalar, is the T row
        of clearances(h, delta_grid) to the bit."""
        model = CoefficientModel(kind=kind, dep=dep, ell=ell)
        for t in range(3):
            s = sample_coefficients(model, n, seed=mix64(7, n, t)).unit()
            N = smooth_size(max(256, 32 * n))
            h = 2 * np.pi / N
            grid = evaluate_on_grid(s, N, GRID_OFFSET)
            cert = _certificate(s.a, s.b, N, float(np.abs(grid).max()), 1.0)
            row = cert.clearances(h, cert.delta_grid)[0, 0]
            assert cert.grid_clearance(h) == row

    def test_hermite_error_is_within_the_clearance(self):
        """On every cell of a coarse and a fine grid the cubic Hermite
        interpolant p_k of T^(k) (k <= 2) from end values and slopes stays
        within the interpolation part of the clearance, w^4 n^(k+4) M/384,
        and the slope p_0' within sqrt(3)/216 w^3 n^4 M of T', for an
        i.i.d. and a periodic ell = 3, r = 2 sample.  The tone
        cos(n(x - x0)) meets Bernstein's inequality with equality, and
        each miss comes within 2 % of its bound."""
        n = 40
        tone_a, tone_b = np.zeros(n + 1), np.zeros(n + 1)
        tone_a[n], tone_b[n] = np.cos(n * 0.1234), np.sin(n * 0.1234)
        t = np.linspace(0.0, 1.0, 33)[1:-1, None]
        for which, (s, tight) in enumerate((
                (sample_coefficients(CoefficientModel(kind="trig", dep="iid"), n, seed=3), 0.01),
                (sample_coefficients(CoefficientModel(kind="trig", dep="periodic", ell=3), n,
                                     seed=3), 0.01),
                (_rigged_sample(n, a=tone_a, b=tone_b), 0.98))):
            for gpd in (3, 32):
                N = smooth_size(max(256, gpd * n))
                h = 2 * np.pi / N
                cert = _certificate(s.a, s.b, N, float(np.abs(evaluate_on_grid(s, N)).max()), 1.0)
                ends = evaluate_jet(s, np.append(grid_nodes(N), grid_nodes(N)[0] + 2 * np.pi))
                inside = evaluate_jet(s, (grid_nodes(N)[None, :] + h * t).ravel())
                for k in range(3):
                    v0, v1 = ends[k, :-1], ends[k, 1:]
                    s0, s1 = h * ends[k + 1, :-1], h * ends[k + 1, 1:]
                    cubic = ((2 * t**3 - 3 * t**2 + 1) * v0 + (t**3 - 2 * t**2 + t) * s0
                             + (3 * t**2 - 2 * t**3) * v1 + (t**3 - t**2) * s1)
                    miss = np.abs(inside[k].reshape(t.size, N) - cubic).max()
                    allowed = cert.clearances(h, np.zeros(4))[k, 0]
                    assert tight * allowed < miss <= allowed, (which, gpd, k)
                    if k == 0:
                        slope = ((6 * t**2 - 6 * t) * (v0 - v1) + (3 * t**2 - 4 * t + 1) * s0
                                 + (3 * t**2 - 2 * t) * s1) / h
                        miss = np.abs(inside[1].reshape(t.size, N) - slope).max()
                        allowed = cert.slope_clearance(h, np.zeros(4))[0]
                        assert tight * allowed < miss <= allowed, (which, gpd, "slope")

    @pytest.mark.parametrize("n", [50, 199])
    def test_close_pairs_below_the_interpolation_error(self, n):
        """T = A + cos(n(x - x0)): with A = 1 - eps every minimum dips to
        -eps, n pairs of zeros about 2 sqrt(2 eps)/n apart; with A = 1 + eps
        none.  For eps <= 1e-6 the dips hide inside the cubic Hermite error
        (nh)^4/384 ~ 4e-6 of the base grid, so only the local tests see them."""
        for eps, zeros in ((1e-6, 2 * n), (1e-9, 2 * n), (-1e-6, 0), (-1e-9, 0)):
            a = np.zeros(n + 1)
            b = np.zeros(n + 1)
            a[0], a[n], b[n] = 1.0 - eps, np.cos(n * 0.1234), np.sin(n * 0.1234)
            rep = count_zeros(_rigged_sample(n, a=a, b=b))
            assert (rep.count, rep.stable) == (zeros, True), eps

    @pytest.mark.parametrize("kind, dep, ell", [
        ("trig", "iid", None), ("cosine", "iid", None),
        ("trig", "periodic", 3), ("trig", "periodic", 4),
        ("cosine", "periodic", 3), ("cosine", "periodic", 4),
    ])
    def test_companion_matrix_oracle(self, kind, dep, ell):
        """n <= 60 on the grid route: every certified count is the number of
        unit-circle roots of z^n 2T(z), and every decided sample is
        certified."""
        model = CoefficientModel(kind=kind, dep=dep, ell=ell)
        decided = 0
        for n in range(max(1, (ell or 1) - 1), 61):
            if ell and decompose_degree(n, ell).factors:
                continue  # the phase route
            for t in range(4):
                s = sample_coefficients(model, n, seed=mix64(91, n, t))
                expected = decided_circle_roots(s)
                if expected is None:
                    continue
                rep = count_zeros(s)
                assert (rep.count, rep.stable) == (expected, True), (n, t)
                decided += 1
        assert decided >= 150

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    @pytest.mark.parametrize("ell", [5, 100])
    def test_unrepeated_period_reports_as_iid(self, kind, ell):
        """n = ell - 1 (r = 0, m = 1): no coefficient repeats, so the sample
        takes the grid route and its report is that of the same
        coefficients under the i.i.d. model."""
        model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
        iid = CoefficientModel(kind=kind, dep="iid")
        for t in range(4):
            s = sample_coefficients(model, ell - 1, seed=mix64(93, ell, t))
            reports = [count_zeros(s), count_zeros(dataclasses.replace(s, model=iid))]
            fields = [(r.count, r.stable, r.grid_size, r.doublings_used, r.pieces)
                      for r in reports]
            assert fields[0] == fields[1], t
            assert fields[0][4] == 0 and fields[0][2] > 0

    def test_coarse_grid_reaches_local_bisection(self):
        """At 3 nodes per degree most cells need local halvings; the counts
        and roots still agree with the oracle."""
        deepest = 0
        for kind in ("trig", "cosine"):
            model = CoefficientModel(kind=kind, dep="iid")
            for t in range(6):
                s = sample_coefficients(model, 100, seed=mix64(92, 100, t))
                expected = decided_circle_roots(s)
                if expected is None:
                    continue
                rep = count_zeros(s, grid_per_degree=3, want_roots=True, tol=1e-12)
                assert (rep.count, rep.stable) == (expected, True), (kind, t)
                assert rep.grid_size == 300
                assert rep.roots.size == rep.count
                assert np.abs(evaluate(s, rep.roots)).max() <= 1e-9 * np.sqrt(101)
                deepest = max(deepest, rep.doublings_used)
        assert deepest > 0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision reference")
    def test_rounding_bounds_cover_the_errors(self):
        """delta_k bounds the error of T^(k) read from the grid (k <= 2) and
        of evaluate_jet's power table (k <= 3), and the rounding part of
        slope_clearance that of the middle control point 3 (f_1 - f_0)/h -
        f_0' - f_1' of p' from grid values, measured against
        extended-precision sums at float nodes, on coarse and fine grids,
        including i.i.d. n = 1999, periodic ell = 3 samples with r = 2 and
        points in [2 pi - h, 2 pi + pi/N], where the arguments are largest."""
        worst = 0.0
        for kind, ell, n in (("trig", None, 60), ("cosine", None, 150), ("trig", None, 400),
                             ("trig", 3, 400), ("trig", 3, 1600), ("trig", None, 1999)):
            model = CoefficientModel(kind=kind, dep="periodic" if ell else "iid", ell=ell)
            s = sample_coefficients(model, n, seed=31)
            j = np.arange(n + 1).astype(np.longdouble)
            for gpd in (3, 32):
                N = smooth_size(max(256, gpd * n))
                grid = [evaluate_on_grid(s, N, 0.5, order=k) for k in range(3)]
                cert = _certificate(s.a, s.b, N, float(np.abs(grid[0]).max()), 1.0)
                # cells pick: their left nodes, their right nodes, then the top
                pick = np.linspace(0, N - 2, 200).astype(int)
                top = np.linspace(2 * np.pi * (1 - 1 / N), 2 * np.pi * (1 + 0.5 / N), 9)
                points = np.concatenate([grid_nodes(N)[pick], grid_nodes(N)[pick + 1], top])
                jet = evaluate_jet(s, points)
                angle = np.outer(points.astype(np.longdouble), j)
                cos, sin = np.cos(angle), np.sin(angle)
                c = s.a.astype(np.longdouble) - 1j * s.b.astype(np.longdouble)
                exact = []
                for k in range(4):
                    ck = c * (1j ** k) * j ** k
                    exact.append(cos @ ck.real - sin @ ck.imag)
                    err = np.abs(jet[k] - exact[k].astype(float)).max() / cert.delta_point[k]
                    if k < 3:
                        err = max(err, np.abs(grid[k][pick] - exact[k][:pick.size]).max()
                                  / cert.delta_grid[k])
                    worst = max(worst, err)
                h = 2 * np.pi / N
                (f0, f1), (d0, d1) = (np.split(e[:2 * pick.size], 2) for e in exact[:2])
                mid_exact = 3 * (f1 - f0) / (2 * np.longdouble(np.pi) / N) - d0 - d1
                mid = ((grid[0][pick + 1] - grid[0][pick]) * (3.0 / h)
                       - grid[1][pick] - grid[1][pick + 1])
                rounding = (cert.slope_clearance(h, cert.delta_grid)[1]
                            - cert.slope_clearance(h, np.zeros(4))[0])
                worst = max(worst, float(np.abs(mid - mid_exact).max()) / rounding)
        assert worst < 0.5

    @pytest.mark.parametrize("kind, ell, n, master, pins", [
        ("trig", 3, 1600, 2026, {93: 2246, 121: 2448, 195: 2256, 282: 1792}),
        ("trig", None, 1999, 2030, {14: 2302, 38: 2266, 73: 2298, 80: 2342}),
    ])
    def test_counts_decided_by_local_halvings(self, kind, ell, n, master, pins):
        """Trials whose count needs a local halving, so the pointwise jet
        decides it: each certified count, the same at grid_per_degree 256."""
        model = CoefficientModel(kind=kind, dep="periodic" if ell else "iid", ell=ell)
        for trial, zeros in pins.items():
            s = sample_coefficients(model, n, seed=mix64(master, n, trial))
            rep = count_zeros(s)
            assert (rep.count, rep.stable) == (zeros, True), trial

    def test_periodic_cosine_deterministic_zeros(self):
        """ell = 2, n = 42 (r = 1): every draw is cos(21x) times a random
        factor, so 42 deterministic zeros at odd multiples of pi/42 sit
        beside random ones with no repulsion.  Half-cell nodes on the
        1350-node grid land on some of them (8 of these 40 trials were
        uncertified); all 40 are certified and match the oracle."""
        model = CoefficientModel(kind="cosine", dep="periodic", ell=2)
        decided = 0
        for t in range(40):
            s = sample_coefficients(model, 42, seed=mix64(55, 42, t))
            rep = count_zeros(s)
            assert rep.stable, t
            expected = decided_circle_roots(s)
            if expected is not None:
                assert rep.count == expected, t
                decided += 1
        assert decided >= 30

    @pytest.mark.parametrize("kind, columns", [("trig", 6400), ("cosine", 3200)])
    def test_grid_route_reads_two_grids_of_base_size(self, monkeypatch, kind, columns):
        """T and T' once each per trial, whatever the sample, as the two
        rows of one order=(0, 1) call: the monotone test reads the slope of
        T's Hermite interpolant, not T''.  The grid has N = 6400 nodes, and
        an even (cosine) T is read at N/2 of them."""
        import trigzeros.zeros as zeros_module

        calls = []
        original = zeros_module.evaluate_on_grid

        def spy(sample, num_nodes, offset=0.5, order=0):
            calls.append((num_nodes, order))
            return original(sample, num_nodes, offset, order=order)

        monkeypatch.setattr(zeros_module, "evaluate_on_grid", spy)
        model = CoefficientModel(kind=kind, dep="iid")
        for seed in range(5):
            assert count_zeros(sample_coefficients(model, 199, seed=seed)).grid_size == 6400
        assert calls == [(columns, (0, 1))] * 5


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

    def test_cosine_grid_is_a_multiple_of_four(self):
        """An even T takes the smallest 5-smooth multiple of 4 at or above
        max(256, 32 n), so its N/2 columns pair up with their mirror images:
        640 and 1440 nodes where the whole circle takes 625 and 1350, and
        the same size wherever that is a multiple of 4."""
        for n, trig, cosine in ((19, 625, 640), (42, 1350, 1440), (199, 6400, 6400),
                                (499, 16000, 16000), (5, 256, 256)):
            for kind, size in (("trig", trig), ("cosine", cosine)):
                s = sample_coefficients(CoefficientModel(kind=kind, dep="iid"), n, seed=1)
                assert count_zeros(s).grid_size == size, (kind, n)

    def test_prime_degree_gets_smooth_grid(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 199, seed=5)
        rep = count_zeros(s)
        assert (rep.grid_size, rep.stable) == (6400, True)

    def test_reduced_route_uses_the_same_rule(self):
        """r = 0 samples take the phase route at every grid setting: no grid."""
        model = CoefficientModel(kind="cosine", dep="periodic", ell=3)
        s = sample_coefficients(model, 1199, seed=6)  # r = 0
        expected = count_zeros(s)
        assert (expected.grid_size, expected.doublings_used) == (0, 0)
        for gpd, md in ((1, 0), (128, 7)):
            rep = count_zeros(s, grid_per_degree=gpd, max_doublings=md)
            assert rep == expected


class TestHalfCircle:
    """Cosine samples (T even) are certified on [0, pi] from one transform
    of N/2 columns, their mirror images and two kinds of cell."""

    @pytest.mark.parametrize("dep, ell, n, trials", [
        ("iid", None, 1, 20), ("iid", None, 2, 20), ("iid", None, 10, 20),
        ("iid", None, 50, 20), ("iid", None, 199, 12), ("iid", None, 499, 6),
        ("iid", None, 1999, 3), ("periodic", 2, 40, 20), ("periodic", 2, 42, 20),
        ("periodic", 2, 200, 12), ("periodic", 3, 100, 12), ("periodic", 5, 101, 12),
    ])
    def test_reports_equal_the_whole_circle(self, dep, ell, n, trials):
        """Count, stable flag and roots (within tol) equal those of the
        same coefficients drawn as a trig-kind sample with b = 0, which
        takes the whole circle.  Periodic ell = 2 with even n is cos(n x/2)
        times a random factor: at n = 40 and 200 its deterministic zeros,
        the odd multiples of pi/n, sit on cell midpoints 2 pi k/N of the
        half circle; at n = 42 the whole circle has 1350 nodes and the
        half circle's grid 1440.  A trial unstable on both sides would be
        allowed; none of these is."""
        model = CoefficientModel(kind="cosine", dep=dep, ell=ell)
        trig = CoefficientModel(kind="trig", dep=dep, ell=ell)
        want_roots = n <= 200
        for t in range(trials):
            s = sample_coefficients(model, n, seed=mix64(91, n, t))
            half = count_zeros(s, want_roots=want_roots)
            full = count_zeros(dataclasses.replace(s, model=trig), want_roots=want_roots)
            assert (half.count, half.stable) == (full.count, full.stable), t
            assert half.stable, t
            if want_roots:
                assert half.roots.size == half.count == full.roots.size
                assert np.abs(half.roots - full.roots).max(initial=0.0) <= 1e-10, t

    def test_close_pairs_at_the_split_budget(self):
        """Golden splits shrink the widest piece by g = 0.618 a level, not by
        1/2, so at max_doublings = 4 the half circle's finest piece is
        about 0.18 of 2 pi/N against the whole circle's 0.0625.  On 200
        close zero pairs, a positive local minimum of a cosine sample of
        degree 50 lowered to 1e-12 ... 1e-9 of sum |a_j| below 0, the two
        routes agree wherever both certify, each certifies a few pairs
        the other leaves undecided (the tallies below; a change in either
        stable rate shows here), 49 take the whole circle's full budget,
        and the half circle at max_doublings = 6 certifies every pair that
        the whole circle does at 4."""
        model = CoefficientModel(kind="cosine", dep="iid")
        trig = CoefficientModel(kind="trig", dep="iid")
        tally = dict(both=0, whole=0, half=0, neither=0, at_budget=0)
        for seed in range(20):
            s = sample_coefficients(model, 50, seed=seed)
            x = np.linspace(0.3, np.pi - 0.3, 4001)
            v = np.cos(np.outer(x, np.arange(51))) @ s.a
            i = np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]) & (v[1:-1] > 0))[0] + 1
            x = np.linspace(x[i - 1], x[i + 1], 4001)
            low = (np.cos(np.outer(x, np.arange(51))) @ s.a).min()
            for eps in np.geomspace(1e-12, 1e-9, 10):
                a = s.a.copy()
                a[0] -= low + eps * np.abs(s.a).sum()
                half = dataclasses.replace(s, a=a)
                whole = count_zeros(dataclasses.replace(half, model=trig))
                rep = count_zeros(half)
                if whole.stable and rep.stable:
                    assert whole.count == rep.count, (seed, eps)
                key = {(True, True): "both", (True, False): "whole", (False, True): "half",
                       (False, False): "neither"}[whole.stable, rep.stable]
                tally[key] += 1
                tally["at_budget"] += whole.stable and whole.doublings_used == 4
                if whole.stable:
                    deeper = count_zeros(half, max_doublings=6)
                    assert deeper.stable and deeper.count == whole.count, (seed, eps)
        assert tally == dict(both=170, whole=4, half=11, neither=15, at_budget=49)

    def test_golden_splits_are_irrational(self):
        """The nodes (2k -+ g) h of the half circle are irrational multiples
        of h, but every cell midpoint is a rational multiple 2 pi k/N, where
        the structured zeros of periodic cosine samples lie.  In exact
        arithmetic over Q(g), g = (sqrt 5 - 1)/2, no point of ten levels of
        splits at the golden fraction lo + g (hi - lo) of the three cells
        (-g, g), (g, 2 - g) and (2 - g, 2 + g) is rational (3069 points);
        every other cell is one of them shifted by an even integer.
        Midpoint splits meet three rational points, the first midpoints."""
        from fractions import Fraction

        def times_g(x):  # (a + b g) g = b + (a - b) g, since g^2 = 1 - g
            return (x[1], x[0] - x[1])

        def golden(lo, hi):
            d = times_g((hi[0] - lo[0], hi[1] - lo[1]))
            return (lo[0] + d[0], lo[1] + d[1])

        def midpoint(lo, hi):
            return ((lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2)

        one = Fraction(1)
        cells = [((0, -one), (0, one)), ((0, one), (2, -one)), ((2, -one), (2, one))]
        rational = {}
        for name, split in (("golden", golden), ("midpoint", midpoint)):
            level, points = cells, 0
            rational[name] = 0
            for _ in range(10):
                nxt = []
                for lo, hi in level:
                    mid = split(lo, hi)
                    points += 1
                    rational[name] += mid[1] == 0
                    nxt += [(lo, mid), (mid, hi)]
                level = nxt
            assert points == 3069
        assert rational == {"golden": 0, "midpoint": 3}
        layout = _grid_layout(6400, True)
        assert layout.split == GRID_OFFSET == (np.sqrt(5.0) - 1.0) / 2.0
        h = 2 * np.pi / 6400
        assert np.array_equal(layout.positions(np.arange(5)),
                              h * np.array([-GRID_OFFSET, GRID_OFFSET, 2 - GRID_OFFSET,
                                            2 + GRID_OFFSET, 4 - GRID_OFFSET]))


class TestTrigReportsUnchanged:
    """Trig samples keep the whole circle's N nodes, one cell width and
    midpoint splits: count, grid size, halvings, stable flag and the bits
    of the roots (their SHA-256) as the whole-circle code gave them, on
    i.i.d. and periodic r != 0 samples, coarse grids with local halvings
    included."""

    PINS = [
        ('iid', None, 1, 32, 0, 2, 256, 0, True, '8af3281bd5a7bd6b'),
        ('iid', None, 1, 32, 1, 2, 256, 0, True, 'b6699a7c1b1a13b8'),
        ('iid', None, 10, 32, 0, 14, 320, 0, True, 'b1f135eff7afdd23'),
        ('iid', None, 10, 32, 1, 10, 320, 0, True, 'f7f4e76ffb69f53f'),
        ('iid', None, 199, 32, 0, 206, 6400, 0, True, '13e3604d54176e6c'),
        ('iid', None, 199, 32, 1, 232, 6400, 0, True, '1160db7a6a33aea1'),
        ('iid', None, 100, 3, 0, 108, 300, 2, True, '7d7d9536fb9806de'),
        ('iid', None, 100, 3, 1, 116, 300, 2, True, '12bb7d86f601aef4'),
        ('iid', None, 100, 3, 2, 126, 300, 2, True, 'b7890bb0088dd5e8'),
        ('iid', None, 100, 3, 3, 124, 300, 1, True, '6ddf41ee1a89dd64'),
        ('periodic', 3, 400, 32, 0, 800, 12800, 0, True, '02f5bfc5ff597ece'),
        ('periodic', 3, 400, 32, 1, 638, 12800, 0, True, '5a8c79a48ac2eb0a'),
        ('periodic', 2, 40, 32, 0, 48, 1280, 0, True, '303221eb60be51b5'),
        ('periodic', 2, 40, 32, 1, 60, 1280, 0, True, 'c01a0998c8533624'),
        ('periodic', 2, 42, 32, 0, 54, 1350, 0, True, '3358d41c90278801'),
        ('periodic', 2, 42, 32, 1, 46, 1350, 0, True, '2633d100288b40c5'),
        ('periodic', 5, 101, 4, 0, 120, 405, 2, True, '8e6d51d5dd73b903'),
        ('periodic', 5, 101, 4, 1, 156, 405, 1, True, '490e67db04b93dc2'),
        ('periodic', 5, 101, 4, 2, 162, 405, 3, True, '8e1d1ec4538ffba3'),
        ('periodic', 5, 101, 4, 3, 140, 405, 1, True, '808e4c5255933487'),
    ]

    @pytest.mark.parametrize("dep, ell, n, gpd, trial, count, size, doublings, stable, digest",
                             PINS)
    def test_report(self, dep, ell, n, gpd, trial, count, size, doublings, stable, digest):
        import hashlib

        model = CoefficientModel(kind="trig", dep=dep, ell=ell)
        s = sample_coefficients(model, n, seed=mix64(33, n, trial))
        rep = count_zeros(s, grid_per_degree=gpd, want_roots=True, tol=1e-12)
        assert (rep.count, rep.grid_size, rep.doublings_used, rep.stable) == (
            count, size, doublings, stable)
        assert hashlib.sha256(rep.roots.tobytes()).hexdigest()[:16] == digest


class TestRootRefinement:
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

    def test_residuals_at_the_default_tol(self):
        """n = 1999 at the default tol: the roots re-evaluate below 1e-8 of
        the amplitude sqrt(n+1), although a root known only to within
        tol may leave |T'| tol ~ 1e-5."""
        s = sample_coefficients(CoefficientModel(kind="trig", dep="iid"), 1999, seed=3)
        rep = count_zeros(s, want_roots=True)
        assert (rep.count, rep.stable) == (2326, True)
        assert np.abs(evaluate(s, rep.roots)).max() <= 1e-8 * np.sqrt(s.n + 1.0)

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


def _report_key(rep):
    roots = None if rep.roots is None else rep.roots.tobytes()
    return rep.count, rep.grid_size, rep.doublings_used, rep.stable, rep.pieces, roots


def _pool():
    """The buffers of the active scratch scope's pool (sentinel left out)."""
    return trigpoly._SCRATCH.get()[1:]


class TestScratchTrials:
    def test_interleaved_degrees_equal_fresh_calls(self):
        """Trials that share one scratch scope while alternating between two
        grid sizes, with and without roots, report exactly what trials
        outside any scope report."""
        iid = CoefficientModel(kind="trig", dep="iid")
        periodic = CoefficientModel(kind="trig", dep="periodic", ell=3)
        samples = []
        for t in range(6):
            samples += [sample_coefficients(iid, 199, seed=t),
                        sample_coefficients(periodic, 400, seed=t)]
        for want_roots in (False, True):
            fresh = [_report_key(count_zeros(s, want_roots=want_roots)) for s in samples]
            with scratch_scope():
                shared = [_report_key(count_zeros(s, want_roots=want_roots)) for s in samples]
            assert shared == fresh

    def test_reports_share_no_memory_with_the_pool(self):
        """The pool keeps its buffers for the next trial of a grid size,
        and no report shares their memory."""
        model = CoefficientModel(kind="trig", dep="periodic", ell=3)
        with scratch_scope():
            rep = count_zeros(sample_coefficients(model, 400, seed=1), want_roots=True)
            assert rep.grid_size > 0 and rep.roots.size
            assert not any(np.shares_memory(rep.roots, buf) for buf in _pool())
            buffers = [id(buf) for buf in _pool()]  # ids only: a held buffer is never idle
            count_zeros(sample_coefficients(model, 400, seed=2))
            assert buffers and [id(buf) for buf in _pool()] == buffers

    def test_pool_holds_what_one_trial_holds_at_once(self):
        """After trials on two grid sizes, up and down, the pool holds as
        many buffers as one trial (T and T', their margins, the masks),
        each of the larger grid's size: a buffer too small is replaced,
        not kept beside, so memory stays linear in n."""
        model = CoefficientModel(kind="trig", dep="iid")
        with scratch_scope():
            count_zeros(sample_coefficients(model, 199, seed=0))
            one_trial = len(_pool())
        with scratch_scope():
            for t in range(3):
                for n in (199, 499, 199):
                    N = count_zeros(sample_coefficients(model, n, seed=t)).grid_size
            assert N == 6400
            assert len(_pool()) == one_trial == 3
            assert sorted(buf.nbytes for buf in _pool()) == [3 * 16000, 16 * 16000, 16 * 16000]

    def test_warm_trials_allocate_no_grid(self):
        """Under tracemalloc, warm grid-route trials at n = 1999 (N = 64000)
        in one scratch scope allocate no N-node grid: the median peak of
        nine trials stays below 7 N bytes and every peak below 8 N, the
        size of one N-node array of doubles, against about 34 N when T and
        T' and their margins are allocated per trial.  The rest of the
        peak is the arrays of the hull and monotone tests of about 3900
        open cells."""
        model = CoefficientModel(kind="trig", dep="iid")
        peaks = []
        with scratch_scope():
            count_zeros(sample_coefficients(model, 1999, seed=0))
            for t in range(1, 10):
                s = sample_coefficients(model, 1999, seed=t)
                tracemalloc.start()
                try:
                    assert count_zeros(s).grid_size == 64000
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert np.median(peaks) < 7 * 64000 and max(peaks) < 8 * 64000, peaks


class TestPhaseRouteShortcuts:
    def test_companion_roots_equal_np_roots(self):
        """The companion eigenvalues are np.roots to the last bit, on random
        complex and real vectors, and np.roots itself is used where an end
        coefficient is 0."""
        rng = np.random.default_rng(47)
        for size in range(1, 14):
            for _ in range(20):
                p = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                variants = [p, p.real.copy()]
                for zeros_at in ([0], [-1], [0, -1], [0, 1], [-2, -1]):
                    q = p.copy()
                    q[[i for i in zeros_at if -size <= i < size]] = 0.0
                    variants.append(q)
                for q in variants:
                    got, want = _polynomial_roots(q), np.roots(q)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), q

    def test_deterministic_count_without_roots(self):
        """For ell = 1..6 and m = 2..40 the closed-form count of the
        deterministic zeros gives the report that listing them does."""
        for ell in range(1, 7):
            model = CoefficientModel(kind="trig", dep="periodic", ell=ell)
            for m in range(2, 41):
                n = ell * m - 1
                s = sample_coefficients(model, n, seed=mix64(53, n))
                plain, listed = count_zeros(s), count_zeros(s, want_roots=True)
                assert (plain.count, plain.stable, plain.pieces) == (
                    listed.count, listed.stable, listed.pieces), (ell, m)
                assert listed.roots.size == listed.count
                det = deterministic_zero_set(m, ell)
                assert det.size == n + 1 - ell
                assert np.isin(det, listed.roots).all()
