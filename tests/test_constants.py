"""Limit-constant tests: identities, bounds, oracles, memo, theory table."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from trigzeros import constants
from trigzeros.models import CoefficientModel
from trigzeros.constants import (
    _C_GRADING,
    _K_GRADING,
    _limit_integrand_k,
    _ridge_split_integral,
    _sheared_g,
    _sheared_sine_ratio,
    compute_C,
    compute_I_alpha,
    compute_J,
    compute_K,
    grading_gap,
    limit_integrand_g,
    monte_carlo_C,
    monte_carlo_K,
    theoretical_mean,
)


def _sine_ratio_integrand(p: float, q: float, s, t):
    """Integrand of J and I_alpha: sin s / (p sin^2 t + q sin^2(s+t))."""
    den = p * np.sin(t) ** 2 + q * np.sin(s + t) ** 2
    return np.sin(s) / np.maximum(den, 1e-300)


def _at_angles(sheared):
    """A sheared integrand, which takes the phases e^{is}, e^{ix}, called
    on the angles s, x."""
    return lambda s, x: sheared(np.exp(1j * s), np.exp(1j * x))


def _per_triangle_ridge_split(func, grading, ratio: float) -> float:
    """_ridge_split_integral as four separate passes, one per Duffy
    triangle, each taking the sine and cosine of its own angles: the
    reference for the phases that the four triangles share."""
    h = math.pi / 2
    levels = (grading[0], grading[1] + max(0, math.ceil(math.log2(ratio) / 2) - 3))
    xi, xi_w, eta, eta_w = constants._graded_rule(levels)
    total = 0.0
    for sign in (1.0, -1.0):
        total += constants._row_blocks(
            lambda c: func(constants._phase(h * c), constants._phase(sign * h * c * eta)),
            xi, xi_w, eta_w)
        total += constants._row_blocks(
            lambda c: func(constants._phase(h * c * eta), constants._phase(sign * h * c)),
            xi, xi_w, eta_w)
    return 2.0 * (h * h * total)


class TestJIdentity:
    def test_J_equals_one_everywhere(self):
        """The companion integral is exactly 1 for every 0 < r < ell <= 6,
        and for the coefficient ratios 999 of ell = 1000."""
        cases = [(ell, r) for ell in range(2, 7) for r in range(1, ell)]
        for ell, r in cases + [(1000, 1), (1000, 999)]:
            assert abs(compute_J(ell, r) - 1.0) < 1e-12, (ell, r)

    def test_J_rejects_degenerate_r(self):
        with pytest.raises(ValueError):
            compute_J(3, 0)
        with pytest.raises(ValueError):
            compute_J(3, 3)


class TestIAlphaIdentity:
    def test_closed_form_across_angles(self):
        """Also near the ends, where the ratio cot^2 alpha of the
        denominator's coefficients reaches 1e8 or 1e-6."""
        ends = [1e-4, 1e-3, 0.01, math.pi / 2 - 1e-3]
        for alpha in np.concatenate([np.linspace(0.1, math.pi / 2 - 0.1, 20), ends]):
            want = math.pi**2 / (math.sin(alpha) * math.cos(alpha))
            got = compute_I_alpha(float(alpha))
            assert abs(got - want) < 1e-12 * want, alpha

    def test_rejects_boundary(self):
        for bad in (0.0, math.pi / 2, -0.3, 2.0):
            with pytest.raises(ValueError):
                compute_I_alpha(bad)


class TestCConstant:
    def test_bounds_hold_for_all_small_cases(self):
        """sqrt(2) < C <= 2 for every 0 < r < ell <= 8."""
        for ell in range(2, 9):
            for r in range(1, ell):
                c = compute_C(ell, r, use_cache=False)
                assert c > math.sqrt(2.0) + 1e-6, (ell, r)
                assert c <= 2.0 + 1e-9, (ell, r)

    def test_r0_is_exactly_one(self):
        for ell in (1, 2, 5):
            assert compute_C(ell, 0) == 1.0

    def test_jensen_floor(self):
        # Jensen on the concave sqrt gives C >= sqrt(1 + J^2) = sqrt(2)
        for ell, r in ((2, 1), (5, 3), (7, 6)):
            c = compute_C(ell, r, use_cache=False)
            j = compute_J(ell, r)
            assert c >= math.sqrt(1.0 + j * j) - 1e-6

    def test_complement_symmetry(self):
        # t |-> pi - s - t (mod pi) swaps r and ell - r in the denominator
        for ell, r in ((3, 1), (5, 2), (7, 3)):
            a = compute_C(ell, r, use_cache=False)
            b = compute_C(ell, ell - r, use_cache=False)
            assert a == pytest.approx(b, abs=1e-9)

    def test_common_factor_invariance(self):
        a = compute_C(2, 1, use_cache=False)
        b = compute_C(4, 2, use_cache=False)
        assert a == pytest.approx(b, abs=1e-12)

    def test_monte_carlo_oracle_agrees(self):
        for ell, r, seed in ((2, 1, 9), (3, 1, 5), (3, 2, 11)):
            mean, stderr = monte_carlo_C(ell, r, n_points=2_000_000, seed=seed)
            quad = compute_C(ell, r, use_cache=False)
            assert abs(mean - quad) < 4.0 * stderr + 5e-4, (ell, r)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_C(0, 0)
        with pytest.raises(ValueError):
            compute_C(3, 3)
        with pytest.raises(ValueError):
            monte_carlo_C(3, 0)
        for bad in (1, 0, -5):  # one point has no spread to state an error
            with pytest.raises(ValueError, match="n_points >= 2"):
                monte_carlo_C(3, 1, n_points=bad)


class TestKConstant:
    def test_unit_block_is_half(self):
        assert compute_K(1) == 0.5

    def test_monte_carlo_oracle_agrees(self):
        for ell, seed in ((2, 7), (3, 13)):
            mean, stderr = monte_carlo_K(ell, n_points=2_000_000, seed=seed)
            quad = compute_K(ell, use_cache=False)
            assert abs(mean - quad) < 4.0 * stderr + 5e-4, ell

    def test_values_exceed_iid_level(self):
        # identified blocks only add zeros: K_ell > 1 means more than 2n/sqrt3
        for ell in (2, 3, 4):
            assert compute_K(ell, use_cache=False) > 1.0

    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            compute_K(0)
        for bad in (1, 0, -5):
            with pytest.raises(ValueError, match="n_points >= 2"):
                monte_carlo_K(3, n_points=bad)

    def test_integrand_at_the_corner_matches_extended_precision(self):
        """Near (0, pi), 1 - u^2 and 1 + u cos t both cancel in the plain
        form; the integrand must still match a 50-digit evaluation at the
        same double inputs.  The points within 1e-6 of the corner are
        where the plain form lost about 1 %; the others straddle the
        series window ell |s| = 1 and sit far from the corner."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        near = [(1e-7, 3e-7), (3e-7, 1e-7), (5e-7, 8e-7), (1e-9, 2e-9)]
        for ell in (2, 3, 4, 7, 12):
            far = [(0.99 / ell, 0.3), (1.01 / ell, 1e-3), (1.3, 2.0)]
            s = np.array([p[0] for p in near + far])
            t = math.pi - np.array([p[1] for p in near + far])
            got = _limit_integrand_k(ell, s, t)
            for si, ti, gi in zip(s, t, got):
                ms, mt = mpmath.mpf(float(si)), mpmath.mpf(float(ti))
                u = mpmath.sin(ell * ms) / (ell * mpmath.sin(ms))
                want = mpmath.sqrt(1 + 3 * (1 - u * u) / (1 + u * mpmath.cos(mt)) ** 2)
                assert abs(gi - want) <= 1e-13 * want, (ell, si, ti)


class TestCornerRule:
    """The Duffy triangles, their node counts and their stated error."""

    @staticmethod
    def _smooth(es, ex):
        """1 + cos s sin(x + 1/2) + sin 2s cos 3x at the phases e^{is}, e^{ix}."""
        return 1.0 + es.real * (ex * np.exp(0.5j)).imag + (es * es).imag * (ex**3).real

    def test_half_square_triangles_are_exact_on_smooth_integrands(self):
        """The four triangles tile [0, pi/2] x [-pi/2, pi/2], which the
        ridge split doubles: they give twice its area pi^2/2, and twice
        the integral of a trig polynomial that is neither even nor odd in
        x, to rounding."""
        area = _ridge_split_integral(lambda es, ex: np.ones(np.broadcast(es, ex).shape),
                                     _C_GRADING, 1.0)
        assert area == pytest.approx(math.pi**2, rel=1e-14)
        want = math.pi**2 + 4.0 * math.sin(0.5) - 4.0 / 3.0
        got = _ridge_split_integral(self._smooth, _C_GRADING, 1.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_shared_phases_equal_per_triangle_angles(self, monkeypatch):
        """One phase per node, shared by the four triangles, gives C and J
        (2 <= ell <= 8) and I_alpha bit for bit as when each triangle
        takes the sine and cosine of its own angles."""
        def values():
            out = {}
            for ell in range(2, 9):
                for r in range(1, ell):
                    out["C", ell, r] = compute_C(ell, r, use_cache=False)
                    out["J", ell, r] = compute_J(ell, r)
            for alpha in (1e-4, 0.3, 0.7, 1.2, math.pi / 2 - 1e-3):
                out["I", alpha] = compute_I_alpha(alpha)
            return out

        shared = values()
        monkeypatch.setattr(constants, "_ridge_split_integral", _per_triangle_ridge_split)
        assert values() == shared

    def test_k_layout_is_exact_on_smooth_integrands(self):
        """K's Duffy square and smooth square tile [0, pi/2] x [0, pi]."""
        for panels in (1, 3):
            area = constants._tensor_integral(
                lambda s, t: np.ones(np.broadcast(s, t).shape), _K_GRADING, panels)
            assert area == pytest.approx(math.pi**2 / 2, rel=1e-14)
            # int_0^{pi/2} cos s ds = 1, int_0^pi cos(t/3) dt = 3 sin(pi/3)
            got = constants._tensor_integral(
                lambda s, t: np.cos(s) * np.cos(t / 3.0), _K_GRADING, panels)
            assert got == pytest.approx(3.0 * math.sin(math.pi / 3), rel=1e-14)

    @pytest.mark.parametrize(
        "compute, integral, nodes",
        [
            (lambda: compute_C(5, 2, use_cache=False), "_ridge_split_integral", 71_680),
            (lambda: compute_J(5, 2), "_ridge_split_integral", 16_384),
            (lambda: compute_K(2, use_cache=False), "_tensor_integral", 36_096),
            (lambda: compute_K(4, use_cache=False), "_tensor_integral", 36_864),
            (lambda: compute_K(8, use_cache=False), "_tensor_integral", 57_600),
        ],
        ids=["C", "J", "K2", "K4", "K8"],
    )
    def test_node_counts(self, compute, integral, nodes, monkeypatch):
        """Integrand nodes per constant, counted by a wrapped integrand."""
        seen = []
        original = getattr(constants, integral)

        def counting(func, *args):
            def counted(s, x):
                seen.append(np.broadcast(s, x).size)
                return func(s, x)
            return original(counted, *args)

        monkeypatch.setattr(constants, integral, counting)
        compute()
        assert sum(seen) == nodes

    def test_stated_error(self):
        """Each constant moves by at most 1e-13 one grading level deeper."""
        for ell in range(2, 9):
            assert grading_gap("K", ell) <= 1e-13, ell
            for r in range(1, ell):
                assert grading_gap("C", ell, r) <= 1e-13, (ell, r)
                assert grading_gap("J", ell, r) <= 1e-13, (ell, r)


class TestCache:
    @pytest.mark.parametrize(
        "compute, integral",
        [
            (lambda cache: compute_C(3, 1, use_cache=cache), "_ridge_split_integral"),
            (lambda cache: compute_K(2, use_cache=cache), "_tensor_integral"),
        ],
        ids=["C", "K"],
    )
    def test_memo_is_exact_and_integrates_once(self, compute, integral, monkeypatch):
        """A cached value equals the uncached one bit for bit, and a
        repeated cached call takes it from the memo without integrating."""
        first = compute(True)
        assert first == compute(False)
        calls = []
        original = getattr(constants, integral)
        monkeypatch.setattr(
            constants, integral, lambda *a: calls.append(a) or original(*a)
        )
        assert compute(True) == first
        assert calls == []
        assert compute(False) == first
        assert len(calls) == 1


# C: values of an earlier full-square tensor quadrature on the unsheared
# square; the corner rule agrees with them to rounding.  K: the corner rule
# on the cancellation-free integrand, confirmed within 2e-15 by that
# integrand on the earlier dyadically graded tensor rule (40 and 50
# levels); the plain integrand had put them 2.5e-9 to 5.7e-9 lower.
PINNED_C = {
    (2, 1): 1.5238429977259413, (3, 1): 1.533470221543412,
    (3, 2): 1.5334702215434126, (4, 1): 1.5472710905452358,
    (4, 2): 1.5238429977259413, (4, 3): 1.547271090545237,
    (5, 1): 1.5600451309577146, (5, 2): 1.5271846000823472,
    (5, 3): 1.5271846000823472, (5, 4): 1.5600451309577161,
}
PINNED_K = {2: 1.0642374529118535, 3: 1.0408330389936047, 4: 1.0301606988135583}


class TestQuadratureLayout:
    """The sheared corner rule reproduces the full grid."""

    def test_pinned_values(self):
        for (ell, r), want in PINNED_C.items():
            assert abs(compute_C(ell, r, use_cache=False) - want) < 1e-12, (ell, r)
        for ell, r in PINNED_C:
            assert abs(compute_J(ell, r) - 1.0) < 1e-12, (ell, r)
        for ell, want in PINNED_K.items():
            assert abs(compute_K(ell, use_cache=False) - want) < 1e-12, ell

    @pytest.mark.parametrize(
        "integrand",
        [
            lambda s, t: limit_integrand_g(5, 2, s, t),
            lambda s, t: limit_integrand_g(3, 1, s, t),
            lambda s, t: _sine_ratio_integrand(3.0, 2.0, s, t),
            lambda s, t: _sine_ratio_integrand(math.sin(0.3) ** 2, math.cos(0.3) ** 2, s, t),
            _at_angles(partial(_sheared_g, 5, 2)),
            _at_angles(partial(_sheared_g, 4, 2)),
            _at_angles(partial(_sheared_g, 5, 3)),
            _at_angles(partial(_sheared_sine_ratio, 3.0, 2.0)),
            _at_angles(partial(_sheared_sine_ratio, math.sin(0.3) ** 2, math.cos(0.3) ** 2)),
            _at_angles(partial(_sheared_sine_ratio, math.sin(1.2) ** 2, math.cos(1.2) ** 2)),
        ],
        ids=[
            "C(5,2)", "C(3,1)", "J(5,2)", "I(0.3)", "sheared-C(5,2)",
            "sheared-C(4,2)", "sheared-C(5,3)", "sheared-J(5,2)",
            "sheared-I(0.3)", "sheared-I(1.2)",
        ],
    )
    def test_integrands_have_central_symmetry(self, integrand):
        """_ridge_split_integral doubles the half-square s < pi/2 of the
        sheared square, which is right only when func(s, x) == func(pi - s,
        pi - x).
        The shear x = t or s + t (mod pi) carries the central symmetry of
        the unsheared integrands over to the sheared ones."""
        rng = np.random.default_rng(12)
        s, t = rng.uniform(0.0, math.pi, (2, 20_000))
        here = integrand(s, t)
        there = integrand(math.pi - s, math.pi - t)
        np.testing.assert_allclose(there, here, rtol=1e-9, atol=0.0)

    @staticmethod
    def _unsheared_t(p, q, s, x):
        """t of the sheared node (s, x): x itself when q < p, else x - s."""
        return x if q < p else np.mod(x - s, math.pi)

    @pytest.mark.parametrize("ell, r", [(5, 2), (4, 2), (5, 3)],
                             ids=["r<ell-r", "r=ell-r", "r>ell-r"])
    def test_sheared_g_is_the_integrand_at_its_node(self, ell, r):
        """Both column choices give limit_integrand_g at the unsheared t."""
        rng = np.random.default_rng(ell * 10 + r)
        s, x = rng.uniform(0.0, math.pi, (2, 20_000))
        t = self._unsheared_t(ell - r, r, s, x)
        np.testing.assert_allclose(
            _at_angles(partial(_sheared_g, ell, r))(s, x),
            limit_integrand_g(ell, r, s, t),
            rtol=1e-12, atol=0.0,
        )

    @pytest.mark.parametrize(
        "p, q",
        [(3.0, 2.0), (2.0, 3.0), (math.sin(0.3) ** 2, math.cos(0.3) ** 2),
         (math.sin(1.2) ** 2, math.cos(1.2) ** 2)],
        ids=["J(5,2)", "J(5,3)", "I(0.3)", "I(1.2)"],
    )
    def test_sheared_sine_ratio_is_the_integrand_at_its_node(self, p, q):
        """The J and I_alpha integrand on both sides of q = p (alpha = pi/4)."""
        rng = np.random.default_rng(7)
        s, x = rng.uniform(0.0, math.pi, (2, 20_000))
        t = self._unsheared_t(p, q, s, x)
        np.testing.assert_allclose(
            _at_angles(partial(_sheared_sine_ratio, p, q))(s, x),
            _sine_ratio_integrand(p, q, s, t),
            rtol=1e-12, atol=0.0,
        )

    @pytest.mark.parametrize(
        "compute",
        [lambda: compute_C(5, 2, use_cache=False), lambda: compute_K(4, use_cache=False)],
        ids=["C(5,2)", "K(4)"],
    )
    def test_memory_is_bounded_by_the_row_block(self, compute):
        """Row blocks bound the temporaries, whatever the node count."""
        tracemalloc.start()
        try:
            compute()
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 16.0


class TestTheoryTable:
    def test_iid_trig_exact(self):
        model = CoefficientModel(kind="trig", dep="iid")
        value, tag = theoretical_mean(model, 300)
        assert value == pytest.approx(2 * math.sqrt(300 * 601 / 6.0), rel=1e-15)
        assert tag == "exact"

    def test_iid_cosine_universal(self):
        model = CoefficientModel(kind="cosine", dep="iid")
        value, tag = theoretical_mean(model, 300)
        assert value == pytest.approx(600 / math.sqrt(3.0), rel=1e-15)
        assert tag == "o(n)"

    def test_periodic_trig_full_blocks(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=3)
        value, tag = theoretical_mean(model, 299)
        assert value == pytest.approx(297 + math.sqrt(299**2 + 8 / 3.0))
        assert tag == "exact"

    def test_periodic_trig_partial_block(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=2)
        value, tag = theoretical_mean(model, 300)
        assert value == pytest.approx(300 * compute_C(2, 1), rel=1e-12)
        assert tag == "O(n^(4/5))"

    def test_periodic_cosine_full_blocks(self):
        model = CoefficientModel(kind="cosine", dep="periodic", ell=4)
        value, tag = theoretical_mean(model, 399)
        assert (value, tag) == (798.0, "O(n^(2/3))")

    def test_periodic_cosine_unit_block_is_deterministic(self):
        model = CoefficientModel(kind="cosine", dep="periodic", ell=1)
        assert theoretical_mean(model, 50) == (100.0, "exact")

    def test_vacuous_period_falls_back_to_iid(self):
        periodic = CoefficientModel(kind="trig", dep="periodic", ell=31)
        iid = CoefficientModel(kind="trig", dep="iid")
        assert theoretical_mean(periodic, 30) == theoretical_mean(iid, 30)

    def test_partially_repeated_period_is_not_iid(self):
        """ell = 7, n = 12: m = 1 but r = 6, so six residue classes repeat
        once.  The mean is not the i.i.d. value (Kac-Rice reads 15.343,
        the i.i.d. formula 14.142), so the r != 0 entries apply."""
        periodic = CoefficientModel(kind="trig", dep="periodic", ell=7)
        iid = CoefficientModel(kind="trig", dep="iid")
        value, tag = theoretical_mean(periodic, 12)
        assert (value, tag) == (12 * compute_C(7, 6), "O(n^(4/5))")
        assert value != theoretical_mean(iid, 12)[0]
        with pytest.raises(ValueError):
            theoretical_mean(CoefficientModel(kind="cosine", dep="periodic", ell=7), 12)

    def test_periodic_cosine_partial_block_unsupported(self):
        model = CoefficientModel(kind="cosine", dep="periodic", ell=3)
        with pytest.raises(ValueError):
            theoretical_mean(model, 300)
