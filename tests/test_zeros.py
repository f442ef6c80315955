"""Zero-counting tests: known counts, the cell certificate, refinement."""

import concurrent.futures
import dataclasses
import functools
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
    GRID_PER_DEGREE,
    ZeroCountReport,
    _certificate,
    _grid_layout,
    _hull_sides,
    _local_stage,
    _polynomial_roots,
    _refine_roots,
    _settle,
    carrier_phase,
    count_zeros,
    deterministic_zero_set,
    smooth_size,
)

from conftest import unit_sample


def _certificate_of(sample, N, grid_max, gap):
    """The certificate of T for the sample's coefficients on N nodes."""
    return _certificate(trigpoly.frequency_powers(sample.n, 3), sample.a - 1j * sample.b,
                        sample.n, N, grid_max, gap)


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
        phase = carrier_phase(s)
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
            s = _acceptance_sample(kind, ell, n, seed, 3)
            red = reduce_periodic(s)
            phase = carrier_phase(s)
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
            slope = carrier_phase(s).slope
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
    def test_insufficient_doubling_budget_is_flagged(self, monkeypatch, tangent_draw, kind):
        """A double zero is never certified, whatever the halving budget,
        on the whole circle and on the half circle alike; the local stage
        that gives up on it returns no brackets, since no roots are asked
        for."""
        import trigzeros.zeros as zeros_module

        brackets = []
        original = zeros_module._local_stage

        def stage(*args):
            out = original(*args)
            brackets.extend(out[3])
            return out

        monkeypatch.setattr(zeros_module, "_local_stage", stage)
        s = tangent_draw(CoefficientModel(kind=kind, dep="iid"), 1, 0)
        for max_doublings in range(8):
            rep = count_zeros(s, max_doublings=max_doublings)
            assert brackets == [], max_doublings
            assert not rep.stable, max_doublings
            assert rep.doublings_used == max_doublings
            assert rep.grid_size == 256
            # 1 + cos x >= 0 in floating point too (pi is the midpoint of a
            # base cell of the whole circle, where it is exactly +0.0): no
            # sign bit changes on either side
            assert rep.count == 0, max_doublings
        with pytest.raises(ValueError, match="max_doublings"):
            count_zeros(s, max_doublings=-3)

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    @pytest.mark.parametrize("name, value", [
        ("max_doublings", 4.5), ("max_doublings", 4.0), ("grid_per_degree", 31.5),
    ])
    def test_non_integral_budgets_are_rejected(self, kind, name, value):
        """A budget that is not an integer is a ValueError that names it.  At
        4.5 doublings depth == max_doublings would never hold, and a cell
        that no split decides would split until memory ran out; this easy
        sample would have been counted all the same."""
        s = sample_coefficients(CoefficientModel(kind=kind, dep="iid"), 40, seed=11)
        assert count_zeros(s).stable
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            count_zeros(s, **{name: value})

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

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    def test_unrepeated_coefficients_on_the_phase_route_are_rejected(self, kind):
        """The phase route reads a[:ell] and b[:ell] alone, so an r = 0
        sample whose coefficients do not repeat with period ell is an input
        error, not the count of another polynomial; the same coefficients
        as an i.i.d. sample take the grid route."""
        s = sample_coefficients(CoefficientModel(kind=kind, dep="periodic", ell=3), 299, seed=1)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(300)
        b = rng.standard_normal(300) if kind == "trig" else np.zeros(300)
        with pytest.raises(ValueError, match="do not repeat with period ell=3"):
            count_zeros(dataclasses.replace(s, a=a, b=b))
        iid = dataclasses.replace(s, a=a, b=b, model=CoefficientModel(kind=kind, dep="iid"))
        rep = count_zeros(iid)
        assert rep.stable and rep.grid_size > 0
        b[7] = 1.0
        with pytest.raises(ValueError, match="do not repeat"):  # b alone breaks the period
            count_zeros(dataclasses.replace(s, b=b))

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
            s = unit_sample(sample_coefficients(model, n, seed=mix64(7, n, t)))
            N = smooth_size(max(256, 32 * n))
            h = 2 * np.pi / N
            grid = evaluate_on_grid(s, N, GRID_OFFSET)
            cert = _certificate_of(s, N, float(np.abs(grid).max()), 1.0)
            row = cert.clearances(h, cert.delta_grid)[0, 0]
            assert cert.grid_clearance(h) == row

    def test_hermite_error_is_within_the_clearance(self):
        """On every cell of a coarse and a fine grid the cubic Hermite
        interpolant p_k of T^(k) (k <= 2) from end values and slopes stays
        within the interpolation part of the clearance, w^4 n^(k+4) M/384,
        and the slope p_0' within sqrt(3)/216 w^3 n^4 M of T', for an
        i.i.d. and a periodic ell = 3, r = 2 sample, and p_0'' at the cell
        ends within w^2 n^4 M/12 of T'' (2/w times the interpolation part
        of bend_clearance).  The tone cos(n(x - x0)) meets Bernstein's
        inequality with equality, and each miss comes within 2 % of its
        bound, that of p_0'' within 3 %."""
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
                cert = _certificate_of(s, N, float(np.abs(evaluate_on_grid(s, N)).max()), 1.0)
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
                        # p'' at the cell ends, where its miss peaks
                        bend = (np.abs(ends[2, :-1] - (6 * (v1 - v0) - 4 * s0 - 2 * s1) / h**2),
                                np.abs(ends[2, 1:] - (6 * (v0 - v1) + 2 * s0 + 4 * s1) / h**2))
                        miss = max(m.max() for m in bend)
                        allowed = 2.0 / h * cert.bend_clearance(h, np.zeros(4))
                        assert min(tight, 0.97) * allowed < miss <= allowed, (which, gpd, "bend")

    @pytest.mark.parametrize("n", [50, 199])
    def test_close_pairs_below_the_interpolation_error(self, n):
        """T = A + cos(n(x - x0)): with A = 1 - eps every minimum dips to
        -eps, n pairs of zeros about 2 sqrt(2 eps)/n apart; with A = 1 + eps
        none.  For eps <= 1e-6 the dips hide inside the cubic Hermite error
        (nh)^4/384 of the base grid, ~ 6e-5 at the default 16 nodes a degree
        and 4e-6 at 32, so only the local tests see them.  The default
        (16 nodes a degree, 7 splits) certifies every count that 32 nodes a
        degree with 4 splits does; at 16 with 4 the dips 1e-9 above 0 stay
        undecided at n = 199."""
        for eps, zeros in ((1e-6, 2 * n), (1e-9, 2 * n), (-1e-6, 0), (-1e-9, 0)):
            a = np.zeros(n + 1)
            b = np.zeros(n + 1)
            a[0], a[n], b[n] = 1.0 - eps, np.cos(n * 0.1234), np.sin(n * 0.1234)
            s = _rigged_sample(n, a=a, b=b)
            for rep in (count_zeros(s), count_zeros(s, grid_per_degree=32, max_doublings=4)):
                assert (rep.count, rep.stable) == (zeros, True), (eps, rep.grid_size)

    @pytest.mark.parametrize("kind, dep, ell, trials", [
        ("trig", "iid", None, 4), ("cosine", "iid", None, 4),
        ("trig", "periodic", 3, 4), ("trig", "periodic", 4, 4),
        ("cosine", "periodic", 3, 4), ("cosine", "periodic", 4, 4),
        ("trig", "periodic", 23, 6), ("cosine", "periodic", 30, 6),
    ])
    def test_companion_matrix_oracle(self, kind, dep, ell, trials):
        """n <= 60 on the grid route: every certified count is the number of
        unit-circle roots of z^n 2T(z), and every decided sample is
        certified; ell = 23 and 30, where fewer degrees lie in range, draw
        more trials a degree."""
        model = CoefficientModel(kind=kind, dep=dep, ell=ell)
        decided = 0
        for n in range(max(1, (ell or 1) - 1), 61):
            if ell and decompose_degree(n, ell).factors:
                continue  # the phase route
            for t in range(trials):
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
        of evaluate_jet's power table (k <= 3), the rounding part of
        slope_clearance that of the middle control point mid = 3 (f_1 -
        f_0)/h - f_0' - f_1' of p' from grid values, and the part of
        bend_clearance that grows with delta that of the rises mid - f_0'
        and f_1' - mid (without the rounding of their own operations,
        which leaves it smaller), measured against
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
                cert = _certificate_of(s, N, float(np.abs(grid[0]).max()), 1.0)
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
                # the rises of p' from grid values, against the part of
                # bend_clearance that the grid's rounding adds
                rounding = (cert.bend_clearance(h, cert.delta_grid)
                            - cert.bend_clearance(h, np.zeros(4)))
                for rise, exact_rise in ((mid - grid[1][pick], mid_exact - d0),
                                         (grid[1][pick + 1] - mid, d1 - mid_exact)):
                    worst = max(worst, float(np.abs(rise - exact_rise).max()) / rounding)
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

    @pytest.mark.parametrize("kind, columns", [("trig", 3200), ("cosine", 1600)])
    def test_grid_route_reads_two_grids_of_base_size(self, monkeypatch, kind, columns):
        """T and T' once each per trial, whatever the sample, as the two
        rows of one order=(0, 1) call: the monotone test reads the slope of
        T's Hermite interpolant, not T''.  The grid has N = 3200 nodes, and
        an even (cosine) T is read at N/2 of them."""
        import trigzeros.zeros as zeros_module

        calls = []
        original = zeros_module.evaluate_on_grid

        def spy(sample, num_nodes, offset=0.5, order=0, out=None):
            calls.append((num_nodes, order))
            return original(sample, num_nodes, offset, order=order, out=out)

        monkeypatch.setattr(zeros_module, "evaluate_on_grid", spy)
        model = CoefficientModel(kind=kind, dep="iid")
        for seed in range(5):
            assert count_zeros(sample_coefficients(model, 199, seed=seed)).grid_size == 3200
        assert calls == [(columns, (0, 1))] * 5


def _grid_roots(jet, brackets, tol):
    """The roots that _refine_roots finds in (lo, hi, f(lo), f(hi)) brackets,
    with jet(x, idx) the function and its slope."""
    ends = [np.concatenate(column) for column in zip(*brackets)]
    return np.sort(_refine_roots(jet, *ends, tol))


class TestSettle:
    """_settle's table on cells (0, 1) of quadratics f = p0 + p1 x + p2 x^2,
    value rounding delta_0 = 0.01: monotone cells, bent cells whose ends
    lie on the side f bends away from, and cups with no zero, two, or left
    open."""

    P = np.array([
        (-0.5, 1.0, 0.0),  # 0 monotone, sign change: one zero
        (1.0, 1.0, 0.0),  # 1 monotone, no change: none
        (-4.0, 0.0, 1.0),  # 2 convex, negative ends: bends away
        (4.0, 0.0, -1.0),  # 3 concave, positive ends: bends away
        (-0.5, 0.0, 1.0),  # 4 convex, sign change: one zero
        (0.35, -1.0, 1.0),  # 5 convex cup, minimum 0.1: none
        (0.15, -1.0, 1.0),  # 6 convex cup, minimum -0.1: two
        (0.251, -1.0, 1.0),  # 7 convex cup, minimum 0.001: open
        (-0.15, 1.0, -1.0),  # 8 concave cup, maximum 0.1: two
        (-0.5, 1.0, 0.0),  # 9 in no mask: open
    ])
    MONO = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0], bool)
    CONVEX = np.array([0, 0, 1, 0, 1, 1, 1, 1, 0, 0], bool)
    CONCAVE = np.array([0, 0, 0, 1, 0, 0, 0, 0, 1, 0], bool)

    def _run(self, cells, mono, want_roots=True, slope_error=0.0):
        p0, p1, p2 = self.P[cells].T
        lo, hi = np.zeros(cells.size), np.ones(cells.size)
        calls = []

        def jet(y, i):
            calls.append(cells[i])
            return p0[i] + p1[i] * y + p2[i] * y * y, p1[i] + 2.0 * p2[i] * y

        out = _settle(lo, hi, p0, p0 + p1 + p2, p1, p1 + 2.0 * p2, mono, self.CONVEX[cells],
                      self.CONCAVE[cells], jet, np.array([0.01, slope_error]), want_roots)
        return out, calls

    def test_table(self):
        cells = np.arange(10)
        (count, brackets, settled), calls = self._run(cells, self.MONO)
        assert count == 1 + 1 + 2 + 2
        assert settled.tolist() == [True] * 7 + [False, True, False]
        # jet is read at the secant estimate of the cups alone, x = 1/2
        assert [c.tolist() for c in calls] == [[5, 6, 7, 8]]
        ones, left, right = brackets
        assert [a.tolist() for a in ones] == [[0.0, 0.0], [1.0, 1.0], [-0.5, -0.5], [0.5, 0.5]]
        assert left[0].tolist() == [0.0, 0.0] and left[1].tolist() == [0.5, 0.5]
        assert right[0].tolist() == [0.5, 0.5] and right[1].tolist() == [1.0, 1.0]
        assert np.allclose(left[3], [-0.1, 0.1]) and np.array_equal(left[3], right[2])
        assert left[2].tolist() == [0.15, -0.15] and np.allclose(right[3], [0.15, -0.15])
        (count, brackets, settled), _ = self._run(cells, self.MONO, want_roots=False)
        assert (count, brackets, settled.sum()) == (6, [], 8)

    def test_slope_error_widens_the_tangent_test(self):
        """The empty cup's tangent clears 0.1 at most: with 0.2 per unit
        width on the slope it stays open; the cup with two keeps them."""
        (count, _, settled), _ = self._run(np.array([5, 6]), np.False_, slope_error=0.2)
        assert (count, settled.tolist()) == (2, [False, True])

    @pytest.mark.parametrize("mono", [np.False_, np.zeros(8, bool)])
    def test_no_monotone_cells(self, mono):
        """An all-False monotone mask, a numpy bool or an array, leaves
        the monotone cells open and settles the bent ones as above."""
        cells = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        (count, brackets, settled), calls = self._run(cells, mono)
        assert settled.dtype == bool
        assert (count, settled.tolist()) == (3, [False, False] + [True] * 5 + [False])
        assert [c.tolist() for c in calls] == [[5, 6, 7]]
        assert brackets[0][0].size == 1 and brackets[1][1].tolist() == [0.5]


class TestBentCells:
    """Cells that neither the hull nor the monotone test settles are
    settled from the grid's T and T' where T is convex or concave on them,
    before the pointwise local stage sees them."""

    @pytest.mark.parametrize("kind, dep, ell, n, trials, least", [
        ("trig", "iid", None, 199, 60, 23), ("trig", "iid", None, 499, 40, 40),
        ("trig", "iid", None, 1999, 15, 63), ("cosine", "iid", None, 499, 40, 17),
        ("trig", "periodic", 3, 400, 40, 120), ("trig", "periodic", 3, 1600, 8, 29)])
    def test_settled_cells_agree_with_the_local_stage(self, monkeypatch, kind, dep, ell, n,
                                                      trials, least):
        """Every cell that the curvature test settles gets the same count
        from the local stage on that cell alone (max_doublings=4), which
        certifies it, and the same roots within tol; the half circle
        (cosine) counts each cell before its weight.  The cells are those
        whose _settle call in the grid pass settles them, each then passed
        to the grid pass alone.  least is the number of cells that the
        curvature test settles on these trials.  The periodic rows count
        W = 2 sin(ell x/2) T, whose own jet the local stage then reads."""
        import trigzeros.zeros as zeros_module

        calls, settles = [], []
        original, original_settle = zeros_module._grid_cells, zeros_module._settle

        def spy(*args):
            calls.append(args)
            return original(*args)

        def settle(*args):
            out = original_settle(*args)
            settles.append((args[0], out[2]))
            return out

        monkeypatch.setattr(zeros_module, "_grid_cells", spy)
        monkeypatch.setattr(zeros_module, "_settle", settle)
        model = CoefficientModel(kind=kind, dep=dep, ell=ell)
        tol = 1e-10
        settled = 0
        for t in range(trials):
            s = sample_coefficients(model, n, seed=mix64(35, n, t))
            calls.clear()
            count_zeros(s)
            unit = unit_sample(s)
            numerator = dep == "periodic"  # these rows count W
            jet_at = functools.partial(trigpoly.numerator_jet if numerator else evaluate_jet, unit)
            for seq, cells, layout, cert, clear0, jet, _ in calls:
                settles.clear()
                original(seq, cells, layout, cert, clear0, jet, False)
                if not settles:  # no cell reached the curvature test
                    continue
                ((starts, done),) = settles
                for i in np.flatnonzero(np.isin(layout.positions(cells), starts[done])):
                    cell = cells[i:i + 1]
                    found, brackets, (left, *_) = original(seq, cell, layout, cert, clear0, jet,
                                                           True)
                    assert left.size == 0, (t, i)
                    settled += 1
                    lo, hi = layout.positions(np.stack([cell, cell + 1]))
                    f_lo, f_hi = seq[0].take(cell), seq[0].take(cell + 1, mode="wrap")
                    if layout.flip and cell[0] == layout.columns - 1:
                        f_hi = -f_hi  # W(x_0 + 2 pi) = -W(x_0)
                    count, depth, stable, pointwise = _local_stage(
                        cert, jet_at, jet, lo, hi, f_lo, f_hi, layout.split, 4, True)
                    assert (count, stable) == (found, True), (t, i)
                    roots = _grid_roots(jet, brackets, tol)
                    assert roots.size == found
                    assert np.abs(roots - _grid_roots(jet, pointwise, tol)).max(
                        initial=0.0) <= tol, (t, i)
        assert settled >= least, settled

    @pytest.mark.parametrize("case, level, at, zeros", [
        ("sign change", 1.0 - 1e-6, 1.0 - 0.02, 2), ("bends away", None, 0.5, 2),
        ("empty cup", 1.0 + 1e-6, 0.5, 0), ("cup with two", 1.0 - 1e-6, 0.5, 2)])
    def test_crafted_cells_read_the_jet_at_cups_only(self, monkeypatch, case, level, at, zeros):
        """T = level - cos(x - x0) at n = 1 on 256 nodes is convex about its
        minimum x0, placed at the fraction at of cell 100.  With level =
        1 - 1e-6 the minimum dips below 0, with zeros 1.4e-3 on either
        side: at the middle of the cell both lie in it, 2 % of the width
        from its right end only one does.  With 1 + 1e-6 the minimum stays
        above 0, by less than the cell's Hermite control points dip below
        it.  With cos(h/2) - 1e-10 the ends lie 1e-10 below 0, inside the
        base grid's clearance, and T bends away from 0.  Neither the hull
        nor the monotone test settles the cell, the curvature test does
        (its _settle call reads the cell) and the local stage never runs.
        A cup (the last two) makes one order-1 evaluate_jet call, at the
        cell's secant point; the other two make none.  The roots are
        x0 +- arccos(level)."""
        import trigzeros.zeros as zeros_module

        layout = _grid_layout(256, False)
        lo, hi = layout.positions(np.array([100, 101]))
        x0 = lo + at * (hi - lo)
        if level is None:
            level = np.cos(layout.h / 2) - 1e-10
        s = _rigged_sample(1, a=[level, -np.cos(x0)], b=[0.0, -np.sin(x0)])
        jets, grid, settles, stages = [], [], [], []
        original_jet, original_grid = zeros_module.evaluate_jet, zeros_module._grid_cells
        original_settle, original_stage = zeros_module._settle, zeros_module._local_stage

        def jet(*args, **kwargs):
            jets.append((args[1], kwargs))
            return original_jet(*args, **kwargs)

        def spy(*args):
            grid.append((args[0], args[1], original_grid(*args)))
            return grid[-1][2]

        def settle(*args):
            settles.append(args[0])
            return original_settle(*args)

        def stage(*args):
            stages.append(args)
            return original_stage(*args)

        monkeypatch.setattr(zeros_module, "evaluate_jet", jet)
        monkeypatch.setattr(zeros_module, "_grid_cells", spy)
        monkeypatch.setattr(zeros_module, "_settle", settle)
        monkeypatch.setattr(zeros_module, "_local_stage", stage)
        rep = count_zeros(s)
        assert (rep.count, rep.stable, rep.doublings_used) == (zeros, True, 0), case
        ((seq, cells, (_, _, (left, *_))),) = grid
        (starts,) = settles
        assert 100 in cells and lo in starts and left.size == 0, case
        assert stages == [], case
        if "cup" in case:
            # the secant estimate of _settle from the grid's T' at the ends
            d0, d1 = seq[1, 100], seq[1, 101]
            ((points, kwargs),) = jets
            assert kwargs == {"order": 1}, case
            assert points.tolist() == [lo + (hi - lo) * d0 / (d0 - d1)], case
        else:
            assert jets == [], case
        expected = []
        if zeros:
            half = np.arccos(level)
            expected = np.sort(np.mod(x0 + np.array([-half, half]), 2 * np.pi))
        roots = count_zeros(s, want_roots=True).roots
        assert np.allclose(roots, expected, rtol=0.0, atol=1e-12), case

    def test_local_stage_calls(self, monkeypatch):
        """Regression guard: over 300 trials (seeds mix64(35, n, t)) of each
        family, the local-stage calls, the points evaluate_jet reads inside
        the local stage, the points that grid cups read and the unstable
        trials (none).  Before the curvature test the local stage ran in
        88, 193, 295, 122, 256 and 283 of these trials, and while grid cups
        were decided on the Hermite interpolant in 3, 4, 14, 4, 172 and 276
        of them, reading 10, 18, 55, 18, 1150 and 26682 points.  The
        periodic rows counted T on grids that ell = 3 divides (12960 and
        51840 nodes, against 12800 and 51200 before), which took their
        tallies from [157, 1016, 226, 0] and [268, 26410, 432, 0] to
        [154, 957, 230, 0] and [268, 24764, 410, 0]; they now count
        W = 2 sin(ell x/2) T on 6480 and 25920 nodes, whose jets
        (numerator_jet) are tallied alike.  The i.i.d. rows moved from 32 to
        16 nodes a degree, which took their tallies from [2, 7, 26, 0],
        [4, 18, 79, 0], [7, 34, 290, 0] and [1, 9, 40, 0] to those below.
        A change that sends cells back to the pointwise stage shows here."""
        import trigzeros.zeros as zeros_module

        tally = {}
        inside = []
        original_stage = zeros_module._local_stage

        def stage(*args):
            tally[key][0] += 1
            inside.append(True)
            try:
                return original_stage(*args)
            finally:
                inside.pop()

        def spy(original):
            def jet(sample, x, order=3):
                tally[key][1 if inside else 2] += np.size(x)
                return original(sample, x, order)
            return jet

        monkeypatch.setattr(zeros_module, "_local_stage", stage)
        for name in ("evaluate_jet", "numerator_jet"):
            monkeypatch.setattr(zeros_module, name, spy(getattr(zeros_module, name)))
        for kind, dep, ell, n in (("trig", "iid", None, 199), ("trig", "iid", None, 499),
                                  ("trig", "iid", None, 1999), ("cosine", "iid", None, 499),
                                  ("trig", "periodic", 3, 400), ("trig", "periodic", 3, 1600)):
            key = (kind, ell, n)
            tally[key] = [0, 0, 0, 0]
            model = CoefficientModel(kind=kind, dep=dep, ell=ell)
            for t in range(300):
                tally[key][3] += not count_zeros(
                    sample_coefficients(model, n, seed=mix64(35, n, t))).stable
        assert tally == {("trig", None, 199): [14, 56, 111, 0],
                         ("trig", None, 499): [28, 146, 314, 0],
                         ("trig", None, 1999): [84, 442, 1199, 0],
                         ("cosine", None, 499): [22, 105, 192, 0],
                         ("trig", 3, 400): [5, 27, 964, 0],
                         ("trig", 3, 1600): [13, 62, 4087, 0]}


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
        max(256, 16 n) at the default, so its N/2 columns pair up with their
        mirror images: 640 and 720 nodes where the whole circle takes 625 and
        675, and the same size wherever that is a multiple of 4."""
        for n, trig, cosine in ((39, 625, 640), (42, 675, 720), (199, 3200, 3200),
                                (499, 8000, 8000), (5, 256, 256)):
            for kind, size in (("trig", trig), ("cosine", cosine)):
                s = sample_coefficients(CoefficientModel(kind=kind, dep="iid"), n, seed=1)
                assert count_zeros(s).grid_size == size, (kind, n)

    def test_nodes_a_degree_of_the_function_counted(self):
        """At the default, grid_per_degree = 16 nodes a degree of the
        function counted: i.i.d. T on the smallest 5-smooth N >= 16 n (a
        multiple of 4 on a cosine sample's half circle), W = 2 sin(ell x/2) T
        on the smallest multiple of ell with a 5-smooth cofactor at or above
        16 (n + ell/2), for every r != 0 sample, at ell = 23 as at 3."""
        assert GRID_PER_DEGREE == 16
        for kind, dep, ell, n, m_r, size in (
                ("trig", "iid", None, 499, (1, 0), smooth_size(16 * 499)),
                ("cosine", "iid", None, 42, (1, 0), 4 * smooth_size(16 * 42 // 4)),
                ("trig", "periodic", 3, 400, (133, 2), 3 * smooth_size(-(-16 * 803 // 6))),
                ("trig", "periodic", 23, 101, (4, 10), 23 * smooth_size(-(-16 * 225 // 46)))):
            s = sample_coefficients(CoefficientModel(kind=kind, dep=dep, ell=ell), n, seed=3)
            assert (s.split.m, s.split.r) == m_r
            assert count_zeros(s).grid_size == size, (kind, ell, n)
        assert [smooth_size(16 * 499), 4 * smooth_size(16 * 42 // 4)] == [8000, 720]
        assert [3 * smooth_size(-(-16 * 803 // 6)), 23 * smooth_size(-(-16 * 225 // 46))] == [
            6480, 1840]

    def test_prime_degree_gets_smooth_grid(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 199, seed=5)
        rep = count_zeros(s)
        assert (rep.grid_size, rep.stable) == (3200, True)

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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("at", [0.3, 0.9])
    def test_zeros_in_the_own_cells(self, monkeypatch, sign, at):
        """T = sign cos x - cos x0 at n = 1 (N = 256), x0 = at g h, has the
        zeros +-x0 (sign 1) or pi +- x0 (sign -1), both in the half
        circle's cell about 0 or about pi, its own mirror image.  That cell
        is in the weight-1 part of the open cells, and the report is the
        whole circle's: count 2 (weight 2 would count 4, above the ceiling
        2n), stable, no split, and the same roots within 1e-12."""
        import trigzeros.zeros as zeros_module

        layout = _grid_layout(256, True)
        x0 = at * GRID_OFFSET * layout.h
        own = 0 if sign > 0 else layout.cell_count - 1
        parts = []
        original = zeros_module._Layout.parts

        def spy(self, cells):
            out = original(self, cells)
            parts.append([(cells[part], weight) for part, weight in out])
            return out

        monkeypatch.setattr(zeros_module._Layout, "parts", spy)
        s = _rigged_sample(1, a=[-np.cos(x0), sign], b=[0.0, 0.0])
        half = count_zeros(dataclasses.replace(s, model=CoefficientModel(kind="cosine", dep="iid")),
                           want_roots=True)
        assert [weight for cells, weight in parts[0] if own in cells] == [1]
        whole = count_zeros(s, want_roots=True)
        for rep in (half, whole):
            assert (rep.count, rep.grid_size, rep.doublings_used, rep.stable) == (2, 256, 0, True)
        assert np.abs(half.roots - whole.roots).max() <= 1e-12
        expected = np.sort(np.mod(np.pi * (sign < 0) + np.array([-x0, x0]), 2 * np.pi))
        assert np.allclose(half.roots, expected, rtol=0.0, atol=1e-10)

    def test_close_pairs_at_the_split_budget(self):
        """Golden splits shrink the widest piece by g = 0.618 a level, not by
        1/2, so at max_doublings = 4 the half circle's finest piece is
        about 0.18 of 2 pi/N against the whole circle's 0.0625.  On 200
        close zero pairs, a positive local minimum of a cosine sample of
        degree 50 lowered to 1e-12 ... 1e-9 of sum |a_j| below 0, the two
        routes agree wherever both certify, each certifies a few pairs
        the other leaves undecided (the tallies below, on 32 nodes a degree;
        a change in either stable rate shows here), 49 take the whole
        circle's full budget, and the half circle at max_doublings = 6
        certifies every pair that the whole circle does at 4.  The default,
        16 nodes a degree and 7 splits, certifies on each route every pair
        that 32 nodes a degree and 4 splits does, with the same count, and
        leaves 3 of the 400 undecided, all on the half circle."""
        model = CoefficientModel(kind="cosine", dep="iid")
        trig = CoefficientModel(kind="trig", dep="iid")
        tally = dict(both=0, whole=0, half=0, neither=0, at_budget=0)
        default = dict(whole=0, half=0)
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
                whole = count_zeros(dataclasses.replace(half, model=trig), grid_per_degree=32,
                                    max_doublings=4)
                rep = count_zeros(half, grid_per_degree=32, max_doublings=4)
                for route, coarse in (("whole", whole), ("half", rep)):
                    sample = dataclasses.replace(half, model=trig) if route == "whole" else half
                    fine = count_zeros(sample)
                    if coarse.stable:
                        assert fine.stable and fine.count == coarse.count, (route, seed, eps)
                    default[route] += fine.stable
                if whole.stable and rep.stable:
                    assert whole.count == rep.count, (seed, eps)
                key = {(True, True): "both", (True, False): "whole", (False, True): "half",
                       (False, False): "neither"}[whole.stable, rep.stable]
                tally[key] += 1
                tally["at_budget"] += whole.stable and whole.doublings_used == 4
                if whole.stable:
                    deeper = count_zeros(half, grid_per_degree=32, max_doublings=6)
                    assert deeper.stable and deeper.count == whole.count, (seed, eps)
        assert tally == dict(both=170, whole=4, half=11, neither=15, at_budget=49)
        assert default == dict(whole=200, half=197)

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
    included.  The periodic rows count their lattice numerator
    W = 2 sin(ell x/2) T on its own grid, whose nodes a degree are W's
    (ell = 3 at n = 400: 6480 nodes).  Their reference is T itself, the
    same coefficients counted as an i.i.d. sample on twice the nodes a
    degree where m >= 2 (12960 at ell = 3, n = 400), the grid on which
    they once counted T: their counts and stable flags are T's, and their
    roots, refined on T from W's own roots, stay within tol of T's; they
    moved by at most 4.2e-14 when W's roots became their start.
    """

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
        ('periodic', 3, 400, 16, 0, 800, 6480, 0, True, '8d0646d55f3ac02d'),
        ('periodic', 3, 400, 16, 1, 638, 6480, 0, True, '23364b59cb421eeb'),
        ('periodic', 2, 40, 16, 0, 48, 720, 0, True, '2acaf7d471c529f7'),
        ('periodic', 2, 40, 16, 1, 60, 720, 0, True, '2fa3247096e5cf79'),
        ('periodic', 2, 42, 16, 0, 54, 720, 0, True, '57f2cc5f6710f461'),
        ('periodic', 2, 42, 16, 1, 46, 720, 0, True, '4c7d3b7ae7178443'),
        ('periodic', 5, 101, 2, 0, 120, 270, 2, True, '98fd5603d0e02536'),
        ('periodic', 5, 101, 2, 1, 156, 270, 1, True, '869bd922d60ddff8'),
        ('periodic', 5, 101, 2, 2, 162, 270, 2, True, '23c213fcb5f91e01'),
        ('periodic', 5, 101, 2, 3, 140, 270, 1, True, '0e0162cb4228cf1e'),
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
        # T's own count on T's grid: the same coefficients counted as an
        # i.i.d. sample, at twice the nodes a degree where m >= 2
        iid = dataclasses.replace(s, model=CoefficientModel(kind="trig", dep="iid"))
        direct = count_zeros(iid, grid_per_degree=gpd * min(s.split.m, 2), want_roots=True,
                             tol=1e-12)
        assert (direct.count, direct.stable) == (count, stable)
        assert np.abs(rep.roots - direct.roots).max() <= 1e-12


class TestCupReportsUnchanged:
    """Reports of i.i.d. trials whose cups _settle decides, on both
    layouts (cosine samples take the half circle), on the grids of 32
    nodes a degree where their cups were found: count, grid size,
    halvings, stable flag and the bits of the roots (tol=1e-12).  stage
    names a caller whose cup the trial tests.  At the grid level the first
    two of each kind settle a cup as two zeros and as none; the next four
    had their cups settled in the local stage while the grid decided cups
    on the Hermite interpolant of its T and T', and now settle them at the
    grid.  In the local stage (the last four, each with one split) the
    first of each kind holds none and the second two.  Where a grid cup
    holds two zeros (trig 199/10, cosine 499/1 and cosine 199/329) its
    brackets end at T(y) in place of the interpolant's value, and the
    roots moved by at most 9.5e-14 when they took these digests."""

    PINS = [
        ("trig", 199, 10, "_grid_cells", 234, 6400, 0, True, "83544c6589ee479e"),
        ("trig", 199, 12, "_grid_cells", 222, 6400, 0, True, "5a4a60dea421df9d"),
        ("cosine", 499, 1, "_grid_cells", 618, 16000, 0, True, "a59f218e9eabda5e"),
        ("cosine", 499, 10, "_grid_cells", 572, 16000, 0, True, "8d53db8028215edd"),
        ("trig", 99, 185, "_grid_cells", 114, 3200, 0, True, "560eeb7ddb5d90e0"),
        ("trig", 499, 315, "_grid_cells", 580, 16000, 0, True, "2f6366ea68a7dc2c"),
        ("cosine", 199, 329, "_grid_cells", 220, 6400, 0, True, "7af5bc4940972c20"),
        ("cosine", 499, 320, "_grid_cells", 582, 16000, 0, True, "6e53838994d524d4"),
        ("trig", 199, 238, "_local_stage", 220, 6400, 1, True, "60b98aebac9952ab"),
        ("trig", 499, 356, "_local_stage", 572, 16000, 1, True, "6dbf236f53bedb86"),
        ("cosine", 499, 5, "_local_stage", 572, 16000, 1, True, "57e68133115d4422"),
        ("cosine", 499, 421, "_local_stage", 564, 16000, 1, True, "3493b14a6f4f2fd7"),
    ]

    @pytest.mark.parametrize("kind, n, trial, stage, count, size, doublings, stable, digest",
                             PINS)
    def test_report(self, monkeypatch, kind, n, trial, stage, count, size, doublings, stable,
                    digest):
        import hashlib
        import sys

        import trigzeros.zeros as zeros_module

        cups = set()
        original = zeros_module._settle

        def spy(*args):
            caller, jet = sys._getframe(1).f_code.co_name, args[9]

            def traced(y, i):
                cups.add(caller)
                return jet(y, i)

            return original(*args[:9], traced, *args[10:])

        monkeypatch.setattr(zeros_module, "_settle", spy)
        s = sample_coefficients(CoefficientModel(kind=kind, dep="iid"), n,
                                seed=mix64(36, n, trial))
        rep = count_zeros(s, grid_per_degree=32, want_roots=True, tol=1e-12)
        assert stage in cups
        assert (rep.count, rep.grid_size, rep.doublings_used, rep.stable) == (
            count, size, doublings, stable)
        assert hashlib.sha256(rep.roots.tobytes()).hexdigest()[:16] == digest


class TestPhaseReportsUnchanged:
    """The phase route keeps its reports to the bit: count, stable flag,
    pieces and root bytes of five r = 0 trials at each m in (2, 3, 10,
    400), as the route gave them when it read a reduced copy of the
    sample; sum of counts, stable trials and the SHA-256 of the reports
    per kind and ell."""

    PINS = [
        ("trig", 1, 4110, 20, "0fa2f03d26eb90c7"),
        ("trig", 2, 8238, 20, "dbe796f592dc1610"),
        ("trig", 3, 12382, 20, "11d61c3fc5d73ece"),
        ("trig", 5, 20638, 20, "bc4393549b840975"),
        ("trig", 7, 28904, 20, "6d7a5c824c0806a7"),
        ("cosine", 1, 4110, 20, "41e63ca02aa612a0"),
        ("cosine", 2, 8236, 20, "81262c7ce802bd46"),
        ("cosine", 3, 12374, 20, "876999c9d4a09930"),
        ("cosine", 5, 20648, 20, "e2aa5be6a998d9a6"),
        ("cosine", 7, 28908, 20, "16ca42336e446f05"),
    ]

    @pytest.mark.parametrize("kind, ell, total, stable, digest", PINS)
    def test_reports(self, kind, ell, total, stable, digest):
        import hashlib

        model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
        h = hashlib.sha256()
        counts = settled = 0
        for m in (2, 3, 10, 400):
            n = ell * m - 1
            for t in range(5):
                s = sample_coefficients(model, n, seed=mix64(34, n, t))
                rep = count_zeros(s, want_roots=True, tol=1e-12)
                h.update(np.array([rep.count, rep.stable, rep.pieces], dtype=np.int64).tobytes())
                h.update(rep.roots.tobytes())
                counts += rep.count
                settled += rep.stable
        assert (counts, settled, h.hexdigest()[:16]) == (total, stable, digest)


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


def _pool():
    """The buffers of the active scratch scope's pool (sentinel left out)."""
    return trigpoly._SCRATCH.get()[1:]


class TestTrialsAllocatePlainly:
    ROUTES = [
        ("trig", "iid", None, 199),  # grid route, whole circle
        ("cosine", "iid", None, 199),  # grid route, half circle
        ("trig", "periodic", 3, 400),  # grid route, r = 2
        ("trig", "periodic", 5, 499),  # phase route, r = 0
    ]

    @pytest.mark.parametrize("kind, dep, ell, n", ROUTES)
    @pytest.mark.parametrize("want_roots", [False, True])
    def test_trials_leave_the_scratch_pool_empty(self, kind, dep, ell, n, want_roots):
        """A trial takes no buffer from an open scratch scope: the pool is
        the Kac-Rice quadrature's alone, and a count allocates its arrays
        plainly, on either route."""
        model = CoefficientModel(kind=kind, dep=dep, ell=ell)
        with scratch_scope():
            for t in range(3):
                count_zeros(sample_coefficients(model, n, seed=t), want_roots=want_roots)
            assert _pool() == []

    def test_warm_trial_memory_is_linear_in_the_grid(self):
        """Under tracemalloc, warm grid-route trials at n = 1999 (N = 32000)
        peak below 16 N bytes: the masks and the arrays of about 3900 open
        cells, about 13 N, which stays linear in N.  T, T' and their margins
        (32 N more) live in the thread's scratch rows from the first trial."""
        model = CoefficientModel(kind="trig", dep="iid")
        count_zeros(sample_coefficients(model, 1999, seed=0))
        peaks = []
        for t in range(1, 6):
            s = sample_coefficients(model, 1999, seed=t)
            tracemalloc.start()
            try:
                assert count_zeros(s).grid_size == 32000
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 16 * 32000, peaks

    def test_threads_keep_their_own_rows(self):
        """The grid route's rows of T and T' are scratch that the next trial
        of the thread reuses: two threads counting samples of three grid
        sizes at once give the reports, roots included, of one thread."""
        model = CoefficientModel(kind="trig", dep="iid")
        samples = [sample_coefficients(model, n, seed=t) for t in range(8) for n in (199, 1999, 499)]
        samples += samples[::-1]

        def report(s):
            r = count_zeros(s, want_roots=True)
            return r.count, r.grid_size, r.stable, r.roots.tobytes()

        serial = [report(s) for s in samples]
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            for _ in range(3):
                assert list(pool.map(report, samples)) == serial


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


class TestLatticeNumerator:
    """Periodic samples with r != 0 are counted from W = 2 sin(ell x/2) T,
    as count(W) - ell (zeros, Lattice numerator)."""

    def test_roots_are_the_zeros_of_t(self):
        """On 200 r != 0 samples (ell = 2..7, trig and cosine, m = 1
        included at ell <= 5) counted from W, the roots are as many as the
        count, T changes sign across each (its dense values at the midpoints
        between neighbouring roots alternate), and none lies within 1e-9
        of a lattice point 2 pi k/ell: the single-zero brackets of the
        lattice points were dropped before Newton."""
        import trigzeros.zeros as zeros_module

        trials = 0
        for kind in ("trig", "cosine"):
            for ell in range(2, 8):
                model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
                degrees = (ell + 1, 4 * ell + 1, 101, 333) if ell <= 5 else (61, 80, 101, 333)
                for t in range(17 if ell < 6 else 16):
                    n = degrees[t % 4]
                    if (n + 1) % ell == 0:
                        n += 1
                    s = sample_coefficients(model, n, seed=mix64(43, n, t))
                    rep = count_zeros(s, want_roots=True, tol=1e-12)
                    N = zeros_module._grid_size(n + ell / 2, 16, ell)
                    assert rep.grid_size == N, (kind, ell, n)
                    assert rep.stable and rep.roots.size == rep.count, (kind, ell, n, t)
                    x = np.sort(rep.roots)
                    mid = 0.5 * (x + np.append(x[1:], x[0] + 2 * np.pi))
                    signs = np.signbit(evaluate(s, mid))
                    assert np.all(signs != np.roll(signs, 1)), (kind, ell, n, t)
                    lattice = 2 * np.pi / ell
                    gap = np.abs(x / lattice - np.rint(x / lattice)) * lattice
                    assert gap.min() > 1e-9, (kind, ell, n, t)
                    trials += 1
        assert trials == 200

    @pytest.mark.parametrize("kind, n", [("trig", 400), ("trig", 1600), ("cosine", 400)])
    def test_a_trial_reads_ell_coefficients(self, monkeypatch, kind, n):
        """A W trial (ell = 3, r = 2) normalizes the ell drawn coefficient
        pairs alone: no normalization of the n + 1 entries, whose bits W
        never reads past the first ell.  Every call of models._scaled is
        tallied with the size of its a."""
        import trigzeros.models as models

        calls = []
        scaled = models._scaled
        monkeypatch.setattr(models, "_scaled",
                            lambda a, b, peak: calls.append(np.size(a)) or scaled(a, b, peak))
        model = CoefficientModel(kind=kind, dep="periodic", ell=3)
        for t in range(10):
            sample = sample_coefficients(model, n, seed=mix64(47, n, t))
            assert sample.split.r == 2
            assert count_zeros(sample).stable
        assert calls == [3] * 10

    def test_unstable_numerator_is_counted_on_t(self):
        """trig ell = 128, n = 4000 (m = 31, r = 33): T has a zero 6.4e-9
        from the lattice point 2 pi 18/128, a close pair of W whose dip
        lies below W's pointwise rounding, so W's count stays unstable
        whatever its split budget.  count_zeros then counts T itself, a
        second call on T's record, whose report it returns: stable, with
        the count that T certified on twice the nodes a degree and the
        roots of the same coefficients counted as an i.i.d. sample."""
        import trigzeros.zeros as zeros_module

        model = CoefficientModel(kind="trig", dep="periodic", ell=128)
        s = sample_coefficients(model, 4000, seed=mix64(46, 128, 4000, 3))
        assert (s.split.m, s.split.r) == (31, 33)
        terms = trigpoly._NumeratorTerms.of(unit_sample(s))  # count_zeros' record of W
        for budget in (7, 20):
            _, size, _, stable, _ = zeros_module._certified_count(s, terms, 16, budget, False,
                                                                  1e-10)
            assert (size, stable) == (65536, False), budget
        rep = count_zeros(s, want_roots=True)
        assert (rep.count, rep.grid_size, rep.doublings_used, rep.stable) == (6236, 64000, 1, True)
        iid = count_zeros(dataclasses.replace(s, model=CoefficientModel(kind="trig", dep="iid")),
                          want_roots=True)
        assert np.array_equal(rep.roots, iid.roots)
        lattice = 2 * np.pi / 128
        gap = np.abs(rep.roots / lattice - np.rint(rep.roots / lattice)) * lattice
        assert gap.min() < 1e-8
