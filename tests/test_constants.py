"""Limit-constant tests: identities, bounds, oracles, memo, theory table."""

import math
import tracemalloc

import numpy as np
import pytest

from trigzeros import constants
from trigzeros.models import CoefficientModel
from trigzeros.constants import (
    _GRADE_LEVELS,
    _NODES,
    _graded_edges,
    _sheared_g,
    _sheared_sine_ratio,
    _sine_ratio_integrand,
    compute_C,
    compute_I_alpha,
    compute_J,
    compute_K,
    limit_integrand_g,
    monte_carlo_C,
    monte_carlo_K,
    theoretical_mean,
)
from trigzeros.kacrice import composite_gauss_legendre


def poisson_average(u: float) -> float:
    """(1/pi) int_0^pi dt / (1 - u cos t), which equals 1/sqrt(1 - u^2).

    Machinery check: the graded axis must resolve the near-pole at t = 0 as
    |u| -> 1, the same boundary behavior the constants' integrands have.
    """
    if not -1.0 < u < 1.0:
        raise ValueError("u must lie strictly inside (-1, 1)")
    edges = _graded_edges(0.0, math.pi, _GRADE_LEVELS)
    tx, tw = composite_gauss_legendre(edges, _NODES)
    vals = 1.0 / (1.0 - u * np.cos(tx))
    return float(np.dot(vals, tw)) / math.pi


class TestJIdentity:
    def test_J_equals_one_everywhere(self):
        """The companion integral is exactly 1 for every 0 < r < ell <= 6."""
        for ell in range(2, 7):
            for r in range(1, ell):
                assert abs(compute_J(ell, r) - 1.0) < 1e-12, (ell, r)

    def test_J_rejects_degenerate_r(self):
        with pytest.raises(ValueError):
            compute_J(3, 0)
        with pytest.raises(ValueError):
            compute_J(3, 3)


class TestIAlphaIdentity:
    def test_closed_form_across_angles(self):
        for alpha in np.linspace(0.1, math.pi / 2 - 0.1, 20):
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


class TestQuadratureMachinery:
    def test_poisson_average_near_edge(self):
        """1/pi int dt/(1 - u cos t) = 1/sqrt(1-u^2), u pushed toward +-1."""
        for u in (0.9, -0.9, 0.9999, -0.9999, 0.999999):
            want = 1.0 / math.sqrt(1.0 - u * u)
            got = poisson_average(u)
            assert abs(got - want) < 1e-8 * want, u

    def test_poisson_rejects_unit_u(self):
        with pytest.raises(ValueError):
            poisson_average(1.0)


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


# Values of an earlier full-square tensor quadrature on the unsheared square;
# the row-blocked, sheared half-square rule agrees with them to rounding.
PINNED_C = {
    (2, 1): 1.5238429977259413, (3, 1): 1.533470221543412,
    (3, 2): 1.5334702215434126, (4, 1): 1.5472710905452358,
    (4, 2): 1.5238429977259413, (4, 3): 1.547271090545237,
    (5, 1): 1.5600451309577146, (5, 2): 1.5271846000823472,
    (5, 3): 1.5271846000823472, (5, 4): 1.5600451309577161,
}
PINNED_K = {2: 1.064237447196125, 3: 1.0408330356020878, 4: 1.0301606963560836}


class TestQuadratureLayout:
    """The row-blocked, sheared half-square rule reproduces the full grid."""

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
            lambda s, x: _sheared_g(5, 2, s, x),
            lambda s, x: _sheared_g(4, 2, s, x),
            lambda s, x: _sheared_g(5, 3, s, x),
            lambda s, x: _sheared_sine_ratio(3.0, 2.0, s, x),
            lambda s, x: _sheared_sine_ratio(math.sin(0.3) ** 2, math.cos(0.3) ** 2, s, x),
            lambda s, x: _sheared_sine_ratio(math.sin(1.2) ** 2, math.cos(1.2) ** 2, s, x),
        ],
        ids=[
            "C(5,2)", "C(3,1)", "J(5,2)", "I(0.3)", "sheared-C(5,2)",
            "sheared-C(4,2)", "sheared-C(5,3)", "sheared-J(5,2)",
            "sheared-I(0.3)", "sheared-I(1.2)",
        ],
    )
    def test_integrands_have_central_symmetry(self, integrand):
        """_ridge_split_integral doubles the rows s < pi/2 of the sheared
        square, which is right only when func(s, x) == func(pi - s, pi - x).
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
            _sheared_g(ell, r, s, x), limit_integrand_g(ell, r, s, t),
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
            _sheared_sine_ratio(p, q, s, x), _sine_ratio_integrand(p, q, s, t),
            rtol=1e-12, atol=0.0,
        )

    @pytest.mark.parametrize(
        "compute",
        [lambda: compute_C(5, 2, use_cache=False), lambda: compute_K(4, use_cache=False)],
        ids=["C(5,2)", "K(4)"],
    )
    def test_memory_is_bounded_by_the_row_block(self, compute):
        """The full 1296 x 1296 node grid would hold ~90-120 MB of
        temporaries; row blocks keep the peak at a few MB."""
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
