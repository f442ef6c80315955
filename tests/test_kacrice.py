"""Kac-Rice engine tests: closed forms vs literal sums, quadrature, limits."""

import contextlib
import contextvars
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from trigzeros import kacrice, trigpoly
from trigzeros.models import (
    CoefficientModel,
    decompose_degree,
    sample_coefficients,
)
from trigzeros.kacrice import (
    TWO_PI,
    AbcTriple,
    PanelNodes,
    abc_closed,
    abc_direct,
    abc_reduced,
    composite_gauss_legendre,
    expected_zeros_exact_r0,
    expected_zeros_quadrature,
)
from trigzeros.constants import limit_integrand_g, theoretical_mean
from trigzeros.zeros import count_zeros
from trigzeros.trigpoly import (
    dirichlet_pair,
    dirichlet_pairs,
    reduce_periodic,
    scratch,
    scratch_scope,
)


def _sample(kind, dep, n, ell=None, seed=0, sigma=1.0):
    model = CoefficientModel(kind=kind, dep=dep, ell=ell, sigma=sigma)
    return sample_coefficients(model, n, seed=seed)


def _interior_grid(points=257):
    return np.linspace(0.05, 2 * np.pi - 0.05, points)


def abc_leading_order(sample, x) -> AbcTriple:
    """Truncated large-n forms for the periodic trig model with r != 0.

    Valid away from the lattice x = 2 pi k / ell; the dropped remainders are
    O(n^{1+4a}) in B^2 and O(n^{1+2a}) in C when the lattice is excluded at
    distance ~ (2/ell) m^{-a}.  B is returned with the sign of the exact B;
    only B^2 is asymptotically meaningful here.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    model = sample.model
    if model.dep != "periodic" or model.kind != "trig":
        raise ValueError("leading-order forms cover periodic trig only")
    dec = decompose_degree(sample.n, model.ell)
    ell, m, r = dec.ell, dec.m, dec.r
    if r == 0:
        raise ValueError("leading-order forms require r != 0")
    phi, phid = dirichlet_pair(m, ell, x)
    D = 0.5 * (m + 1) * ell * x
    half = np.sin(0.5 * ell * x)
    cos2m1 = np.cos(0.5 * (2 * m + 1) * ell * x)
    A = ell * phi * phi + r + 2.0 * r * phi * np.cos(D)
    B2 = (
        (ell * phi * phid) ** 2
        + (r * m * ell * cos2m1) ** 2 / (4.0 * half * half)
        + r * m * ell * ell * phi * phid * cos2m1 / half
    )
    C = (
        0.25 * (m * ell) ** 2 * A
        + 0.25 * r * (m * ell) ** 2
        - r * m * ell * phid * np.sin(D)
        + ell * phid * phid
    )
    B = np.sign(ell * phi * phid) * np.sqrt(np.maximum(B2, 0.0))
    return AbcTriple(A=A, B=B, C=C)


def limit_integrand_fpm(ell, n, x, sign):
    """f_n^{+/-}(x) = sqrt(1 - u^2) / (1 +/- u cos(n x)), u = sin(ell x)/(ell sin x).

    The large-n Kac-Rice density of the reduced periodic cosine model, up to
    the factor n/2; its circle averages tend to 1/2.
    """
    x = np.asarray(x, dtype=float)
    u = dirichlet_pair(ell, 2, x)[0] / ell
    den = 1.0 + sign * u * np.cos(n * x)
    den = np.maximum(den, 1e-300)
    return np.sqrt(np.maximum(1.0 - u * u, 0.0)) / den


def _beside(centers):
    """The interior grid plus points 1e-12 ... 1e-2 either side of centers."""
    offsets = 10.0 ** np.arange(-12, -1)
    x = np.concatenate(
        [_interior_grid(257)] + [c + sign * offsets for c in centers for sign in (-1, 1)]
    )
    return x[(x > 0) & (x < TWO_PI)]


def _assert_closed_matches_direct(sample, x, d=None):
    """abc_closed against abc_direct, or against d when given."""
    d = abc_direct(sample, x) if d is None else d
    c = abc_closed(sample, x)
    scale_a = np.maximum(np.abs(d.A), 1.0)
    scale_b = np.maximum(np.abs(d.B), float(sample.n))
    scale_c = np.maximum(np.abs(d.C), 1.0)
    assert (np.abs(d.A - c.A) / scale_a).max() < 1e-10
    assert (np.abs(d.B - c.B) / scale_b).max() < 1e-9
    assert (np.abs(d.C - c.C) / scale_c).max() < 1e-10


def _refuse_the_oracle(sample, x):
    raise AssertionError("a Kac-Rice route summed the oracle's basis literally")


class TestClosedVersusDirect:
    """abc_closed must reproduce the literal basis sums to roundoff."""

    def test_iid_trig_constants_are_exact_identities(self):
        s = _sample("trig", "iid", 37)
        x = _interior_grid(101)
        d = abc_direct(s, x)
        assert np.allclose(d.A, 38.0, rtol=1e-12)
        assert np.abs(d.B).max() < 1e-9 * 37**2
        assert np.allclose(d.C, 37 * 38 * 75 / 6.0, rtol=1e-12)
        c = abc_closed(s, x)
        assert np.array_equal(c.A, np.full_like(x, 38.0))
        assert np.array_equal(c.B, np.zeros_like(x))

    @pytest.mark.parametrize("kind, dep, ell", [
        ("trig", "iid", None), ("cosine", "iid", None), ("trig", "periodic", 3)])
    def test_points_of_any_shape_are_ravelled(self, kind, dep, ell):
        """A (3, 4) array of points gives abc_direct and abc_closed the
        triple of its ravelled 1-D array, to the bit."""
        s = _sample(kind, dep, 20, ell=ell)
        x = np.linspace(0.1, 3.0, 12)
        flat = abc_direct(s, x)
        for route in (abc_direct, abc_closed):
            got = route(s, x.reshape(3, 4))
            want = flat if route is abc_direct else route(s, x)
            for name in ("A", "B", "C"):
                value = getattr(got, name)
                assert value.shape == (12,), (route.__name__, name)
                assert value.tobytes() == getattr(want, name).tobytes(), (route.__name__, name)

    @pytest.mark.parametrize(
        "ell,n", [(4, 47), (3, 100), (5, 102), (2, 31), (7, 90)]
    )
    def test_periodic_trig_all_remainders(self, ell, n):
        s = _sample("trig", "periodic", n, ell=ell)
        _assert_closed_matches_direct(s, _interior_grid(257))

    @pytest.mark.parametrize("ell,n", [(3, 400), (3, 1000), (5, 402)])
    def test_periodic_trig_integrand_beside_the_lattice(self, ell, n):
        """The Kac-Rice density of the grouped core, up to 1e-12 from the
        lattice where A, B and C grow like n^2 to n^4 and cancel in AC - B^2."""
        s = _sample("trig", "periodic", n, ell=ell)
        assert decompose_degree(n, ell).r != 0
        x = _beside(TWO_PI * np.arange(ell + 1) / ell)
        want = abc_direct(s, x).integrand()
        got = abc_closed(s, x).integrand()
        assert (np.abs(got - want) / want).max() < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 37, 400])
    def test_iid_cosine_including_the_lattice(self, n):
        s = _sample("cosine", "iid", n)
        x = _beside(np.pi * np.arange(3))
        _assert_closed_matches_direct(s, x)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 7])
    def test_periodic_cosine_all_remainders(self, ell):
        x = _beside(TWO_PI * np.arange(ell + 1) / ell)
        for r in range(ell):
            n = 12 * ell + r - 1
            assert decompose_degree(n, ell).r == r
            _assert_closed_matches_direct(_sample("cosine", "periodic", n, ell=ell), x)

    @pytest.mark.parametrize(
        "kind,ell,n",
        [pytest.param(kind, ell, n, id=f"{name}-{kind}")
         for name, ell, n in [("r2", 3, 100), ("r3", 5, 102), ("r0-m20", 3, 59),
                              ("r0-m10", 4, 39), ("m1-r6", 7, 12), ("m1-r0", 5, 4)]
         for kind in ("trig", "cosine")],
    )
    def test_periodic_beside_the_lattice_without_literal_sums(
        self, monkeypatch, kind, ell, n
    ):
        """abc_closed reproduces the oracle up to 1e-12 from the lattice
        with the oracle's basis out of reach: dirichlet_pair's series keeps
        phi_M' of the grouped core accurate there, and cosine with m = 1,
        r = 0 (the i.i.d. cosine route) reads its Taylor table beside 0
        and pi."""
        sample = _sample(kind, "periodic", n, ell=ell)
        x = _beside(TWO_PI * np.arange(ell + 1) / ell)
        direct = abc_direct(sample, x)
        monkeypatch.setattr(kacrice, "_basis_functions", _refuse_the_oracle)
        _assert_closed_matches_direct(sample, x, d=direct)


class TestReducedForms:
    def test_trig_reduced_is_stationary(self):
        s = _sample("trig", "periodic", 59, ell=4)  # m = 15, r = 0
        x = _interior_grid(64)
        red = abc_reduced(s, x)
        n, ell = 59, 4
        c_expected = ell * (3 * n**2 + ell**2 - 1) / 12.0
        assert np.array_equal(red.A, np.full_like(x, float(ell)))
        assert np.array_equal(red.B, np.zeros_like(x))
        assert np.allclose(red.C, c_expected, rtol=1e-14)

    def test_trig_reduced_matches_frequency_sum(self):
        s = _sample("trig", "periodic", 119, ell=6)
        red = reduce_periodic(s)
        nu = red.frequencies()
        got = abc_reduced(s, np.array([0.3])).C[0]
        assert got == pytest.approx(float((nu * nu).sum()), rel=1e-15)

    def test_cosine_reduced_against_literal_sums(self):
        s = _sample("cosine", "periodic", 53, ell=6)  # m = 9, r = 0
        red = reduce_periodic(s)
        nu = red.frequencies()
        x = _interior_grid(97)
        got = abc_reduced(s, x)
        fx = np.cos(np.multiply.outer(nu, x))
        fdx = -nu[:, None] * np.sin(np.multiply.outer(nu, x))
        assert np.allclose(got.A, (fx * fx).sum(axis=0), atol=1e-11 * 6)
        assert np.allclose(got.B, (fx * fdx).sum(axis=0), atol=1e-9 * 53)
        assert np.allclose(
            got.C, (fdx * fdx).sum(axis=0), atol=1e-9 * 53**2
        )

    def test_reduced_form_refuses_iid_and_partial_blocks(self):
        for sample in (_sample("trig", "iid", 59), _sample("cosine", "iid", 59),
                       _sample("trig", "periodic", 60, ell=4)):  # r = 1
            with pytest.raises(ValueError):
                abc_reduced(sample, np.array([0.3]))

    def test_cosine_reduced_A_vanishes_only_at_known_points(self):
        # ell = 3, n = 299: A*(pi) = (3/2)(1 + cos(299 pi)) = 0
        s = _sample("cosine", "periodic", 299, ell=3)
        at_pi = abc_reduced(s, np.array([np.pi])).A[0]
        assert abs(at_pi) < 1e-10
        x = np.linspace(0.2, np.pi - 0.2, 500)
        assert abc_reduced(s, x).A.min() > 0.01


class TestDiscriminant:
    def test_cauchy_schwarz_everywhere(self):
        x = _interior_grid(401)
        cases = [
            _sample("trig", "iid", 40),
            _sample("cosine", "iid", 40),
            _sample("trig", "periodic", 41, ell=3),
            _sample("trig", "periodic", 40, ell=3),
            _sample("cosine", "periodic", 41, ell=2),
        ]
        for s in cases:
            d = abc_direct(s, x)
            disc = d.discriminant()
            assert np.all(disc >= 0.0)
            assert np.all(d.A > 0.0)

    def test_error_reports_the_compared_quantity(self):
        """A*C underflows to 0 here: the message reports d / max(A*C, 1)
        = -B^2, the quantity that the check compares, with no overflow."""
        triple = AbcTriple(A=np.array([1e-200, 1.0]), B=np.array([1e10, 0.0]),
                           C=np.array([1e-200, 1.0]))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match=r"relative -1\.000e\+20\)"):
                triple.discriminant()

    def test_sigma_cancels(self):
        x = _interior_grid(33)
        narrow = _sample("trig", "periodic", 41, ell=3, sigma=1.0)
        wide = _sample("trig", "periodic", 41, ell=3, sigma=5.0)
        a = abc_closed(narrow, x)
        b = abc_closed(wide, x)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.C, b.C)


def _unscreened_discriminant(triple):
    """The discriminant without the one-minimum screen: the oracle of
    TestDiscriminantScreen."""
    ac = triple.A * triple.C
    d = ac - triple.B * triple.B
    scale = np.maximum(ac, 1.0)
    if np.any(d < -1e-12 * scale):
        worst = float((d / scale).min())
        raise FloatingPointError(
            f"A*C - B^2 < 0 beyond roundoff (relative {worst:.3e})"
        )
    return np.maximum(d, 0.0)


class TestDiscriminantScreen:
    """AbcTriple.discriminant screens A*C - B^2 with one minimum; values
    and error messages equal the unscreened formula's, and A, B, C stay."""

    TRIPLES = {
        "positive": ([1.0, 2.0, 3.0], [0.5, 1.0, -1.0], [1.0, 4.0, 9.0]),
        "exact-zeros": ([4.0, 1.0, 0.0, 2.0], [6.0, -1.0, 0.0, 0.0], [9.0, 1.0, 5.0, 0.0]),
        "within-roundoff": ([1.0, 1e8, 3.0], [1.0 + 4e-15, 1e8 * (1.0 + 1e-14), 0.0],
                            [1.0, 1e8, 1.0]),
        "beyond-roundoff": ([1.0, 1.0], [1.0 + 1e-10, 0.0], [1.0, 1.0]),
        "scaled-beyond": ([1e8, 1.0], [1e8 * (1.0 + 1e-10), 0.0], [1e8, 1.0]),
        "underflowing-ac": ([1e-200, 1.0], [1e10, 0.0], [1e-200, 1.0]),
        "nan-alone": ([np.nan, 1.0], [0.0, 0.5], [1.0, 1.0]),
        # NaN < 0 is False: a screen of d.min() < 0 alone would pass it
        "nan-beside-violation": ([np.nan, 1.0], [0.0, 2.0], [1.0, 1.0]),
        "empty": ([], [], []),
        "two-dimensional": ([[1.0, 2.0], [3.0, 0.0]], [[0.5, 1.0], [-1.0, 0.0]],
                            [[1.0, 4.0], [9.0, 5.0]]),
    }

    @staticmethod
    def _outcome(func, triple):
        try:
            return func(triple), None
        except FloatingPointError as exc:
            return None, str(exc)

    @pytest.mark.parametrize("name", list(TRIPLES))
    def test_equals_the_unscreened_formula(self, name):
        triple = AbcTriple(*(np.array(v, dtype=float) for v in self.TRIPLES[name]))
        before = [v.copy() for v in (triple.A, triple.B, triple.C)]
        got, got_error = self._outcome(AbcTriple.discriminant, triple)
        want, want_error = self._outcome(_unscreened_discriminant, triple)
        assert got_error == want_error
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want, equal_nan=True)
        for old, new in zip(before, (triple.A, triple.B, triple.C)):
            assert np.array_equal(old, new, equal_nan=True)

    @pytest.mark.parametrize("name", list(TRIPLES))
    def test_in_a_used_scope_equals_fresh_arrays(self, name):
        """The same triple in a scratch scope whose buffers hold NaN from
        earlier use: equal values, or the same error message."""
        values = [np.array(v, dtype=float) for v in self.TRIPLES[name]]
        want = self._outcome(AbcTriple.discriminant, AbcTriple(*values))
        with scratch_scope():
            _fill_pool_with_nan(values[0].size)
            got = self._outcome(AbcTriple.discriminant, AbcTriple(*values))
        assert got[1] == want[1]
        assert (got[0] is None) == (want[0] is None)
        if want[0] is not None:
            assert np.array_equal(got[0], want[0], equal_nan=True)


def _fill_pool_with_nan(size):
    """Eight buffers of size doubles in the active scratch pool, all idle
    and holding NaN."""
    for held in [scratch(size) for _ in range(8)]:
        held.fill(np.nan)


class TestExactCount:
    def test_small_example(self):
        # ell = 2, n = 5: 4 lattice zeros plus sqrt(25 + 1) random ones
        assert expected_zeros_exact_r0(5, 2) == pytest.approx(
            4 + math.sqrt(26), rel=1e-15
        )

    def test_degree_299_example(self):
        got = expected_zeros_exact_r0(299, 3)
        assert got == pytest.approx(297 + math.sqrt(299**2 + 8 / 3.0), rel=1e-15)
        assert got == pytest.approx(596.004459, abs=5e-6)

    def test_period_one_gives_2n(self):
        for n in (5, 50, 321):
            assert expected_zeros_exact_r0(n, 1) == pytest.approx(
                2.0 * n, rel=1e-15
            )

    def test_rejects_nonzero_remainder(self):
        with pytest.raises(ValueError):
            expected_zeros_exact_r0(100, 3)

    def test_vacuous_period_is_the_iid_law(self):
        """ell = n + 1 (m = 1, no coefficient repeats) gives the i.i.d. trig
        law 2 sqrt(n (2n+1)/6), within 1 ulp, and so does the theory table's
        i.i.d. trig entry, which reads the same split."""
        iid = CoefficientModel(kind="trig", dep="iid")
        for n in range(1, 2001):
            want = 2.0 * math.sqrt(n * (2 * n + 1) / 6.0)
            assert abs(expected_zeros_exact_r0(n, n + 1) - want) <= math.ulp(want), n
            assert theoretical_mean(iid, n) == (expected_zeros_exact_r0(n, n + 1), "exact")


class TestQuadrature:
    def test_iid_trig_closed_value(self):
        s = _sample("trig", "iid", 200)
        res = expected_zeros_quadrature(s)
        theory = 2.0 * math.sqrt(200 * 401 / 6.0)
        assert res.value == pytest.approx(theory, rel=1e-15)
        assert res.abs_error_estimate == 0.0
        assert res.value == pytest.approx(2 * 200 / math.sqrt(3), rel=5e-3)

    def test_iid_cosine_near_universal_asymptote(self):
        s = _sample("cosine", "iid", 120)
        res = expected_zeros_quadrature(s)
        assert res.abs_error_estimate < 1e-6
        assert res.value == pytest.approx(240 / math.sqrt(3), rel=0.02)

    @pytest.mark.parametrize("ell,n", [(2, 199), (3, 299), (5, 499), (1, 60)])
    def test_r0_quadrature_matches_exact(self, ell, n):
        s = _sample("trig", "periodic", n, ell=ell)
        res = expected_zeros_quadrature(s)
        exact = expected_zeros_exact_r0(n, ell)
        assert res.total() == pytest.approx(exact, rel=1e-9)
        if ell > 1:
            assert res.deterministic_zeros == n + 1 - ell

    @pytest.mark.parametrize("n", [100, 299])
    def test_rank_one_periodic_cosine_is_exactly_2n(self, n):
        """ell = 1 cosine draws are multiples of sum_j cos jx: 2n zeros,
        every draw (a double zero at pi for odd n), with zero error."""
        res = expected_zeros_quadrature(_sample("cosine", "periodic", n, ell=1))
        assert (res.total(), res.abs_error_estimate) == (2 * n, 0.0)
        for seed in range(3):
            s = _sample("cosine", "periodic", n, ell=1, seed=seed)
            rep = count_zeros(s)
            assert (rep.count, rep.stable) == (2 * n, True)

    def test_panel_doubling_self_consistency(self, monkeypatch):
        s = _sample("cosine", "iid", 60)
        v8 = expected_zeros_quadrature(s)
        monkeypatch.setattr(kacrice, "_PANELS_PER_DEGREE", 16)
        v16 = expected_zeros_quadrature(s)
        assert v16.panels_used == 2 * v8.panels_used
        assert abs(v8.value - v16.value) < 1e-6

    def test_lattice_windows_reported_for_nonzero_r(self):
        s = _sample("trig", "periodic", 100, ell=3)  # r = 1
        res = expected_zeros_quadrature(s)
        assert len(res.excluded_windows) == 4  # 0, 2pi/3, 4pi/3, 2pi
        assert res.excluded_mass_estimate > 0
        assert res.deterministic_zeros == 0

    def test_cosine_r0_windows_cover_singularities(self):
        s = _sample("cosine", "periodic", 299, ell=3)
        res = expected_zeros_quadrature(s)
        assert res.deterministic_zeros == 297
        lows = [a for a, b in res.excluded_windows]
        assert any(a <= np.pi <= b for a, b in res.excluded_windows)
        assert res.total() <= 2 * 299 + 0.5
        assert abs(res.total() - 2 * 299) <= 2 * res.abs_error_estimate

    def test_cosine_r0_total_tracks_2n_at_two_thirds_order(self):
        for n in (149, 299, 599):
            s = _sample("cosine", "periodic", n, ell=3)
            res = expected_zeros_quadrature(s)
            gap = abs(res.total() - 2.0 * n)
            assert gap <= 5.0 * n ** (2.0 / 3.0)

    def test_sigma_invariance_of_value(self):
        a = expected_zeros_quadrature(_sample("trig", "periodic", 100, ell=3))
        b = expected_zeros_quadrature(
            _sample("trig", "periodic", 100, ell=3, sigma=7.0)
        )
        assert a.value == b.value


class TestClosedRoutes:
    """Every raw model integrates abc_closed; abc_direct is only an oracle."""

    @pytest.mark.parametrize(
        "kind,dep,ell,n,route",
        [
            ("cosine", "iid", None, 60, "abc_closed"),
            ("cosine", "periodic", 3, 61, "abc_closed"),  # r = 2
            ("trig", "periodic", 3, 61, "abc_closed"),  # r = 2
            ("cosine", "periodic", 4, 3, "abc_closed"),  # r = 0, m = 1
            ("trig", "periodic", 4, 3, "abc_closed"),  # r = 0, m = 1
            ("cosine", "periodic", 3, 59, "abc_reduced"),  # r = 0, m = 20
        ],
    )
    def test_dispatch(self, monkeypatch, kind, dep, ell, n, route):
        def refuse(sample, x):
            raise AssertionError("wrong (A, B, C) route")

        for name in ("abc_closed", "abc_reduced", "abc_direct"):
            if name != route:
                monkeypatch.setattr(kacrice, name, refuse)
        assert expected_zeros_quadrature(_sample(kind, dep, n, ell=ell)).total() > 0

    @pytest.mark.parametrize("ell", [2, 5, 12])
    def test_vacuous_period_trig_equals_iid_closed_form(self, ell):
        n = ell - 1  # r = 0, m = 1: the coefficients never repeat
        res = expected_zeros_quadrature(_sample("trig", "periodic", n, ell=ell))
        assert res.deterministic_zeros == 0
        assert res.total() == pytest.approx(
            2.0 * math.sqrt(n * (2 * n + 1) / 6.0), rel=1e-13
        )

    @pytest.mark.parametrize("ell", [2, 5, 12])
    def test_vacuous_period_cosine_equals_iid_cosine(self, ell):
        n = ell - 1
        periodic = expected_zeros_quadrature(_sample("cosine", "periodic", n, ell=ell))
        iid = expected_zeros_quadrature(_sample("cosine", "iid", n))
        assert periodic.deterministic_zeros == 0
        assert periodic.total() == pytest.approx(iid.total(), rel=1e-12)

    def test_vacuous_period_cosine_takes_the_iid_route(self, monkeypatch):
        """Cosine with ell = n + 1 has the i.i.d. covariance, and its split
        sends it to _cosine_closed, never to the O(n)-per-node grouped core."""
        n = 400

        def refuse(*args):
            raise AssertionError("ell = n + 1 cosine summed over the grouped core")

        monkeypatch.setattr(kacrice, "_grouped_abc", refuse)
        periodic = expected_zeros_quadrature(_sample("cosine", "periodic", n, ell=n + 1))
        iid = expected_zeros_quadrature(_sample("cosine", "iid", n))
        assert periodic.total() == pytest.approx(iid.total(), rel=1e-13)
        assert periodic.panels_used == iid.panels_used


def _route(sample):
    """(deterministic zeros, (A, B, C) route) that expected_zeros_quadrature uses."""
    model, n = sample.model, sample.n
    if model.dep == "periodic" and decompose_degree(n, model.ell).factors:
        return n + 1 - model.ell, abc_reduced
    return 0, abc_closed


def _whole_circle_rule(sample):
    """The unfolded rule: the route over the excised circle on P and 2P panels.

    Returns (total of the 2P pass, |I(2P) - I(P)|).
    """
    det, route = _route(sample)
    windows = kacrice._exclusion_windows(sample.model.kind, sample.model.period(sample.n))
    intervals, _ = kacrice._excise(0.0, TWO_PI, windows)
    length = sum(b - a for a, b in intervals)
    panels = max(kacrice._MIN_PANELS, kacrice._PANELS_PER_DEGREE * sample.n)
    values = []
    for p in (panels, 2 * panels):
        value = 0.0
        for lo, hi in intervals:
            edges = np.linspace(lo, hi, max(1, round(p * (hi - lo) / length)) + 1)
            for first in range(0, edges.size - 1, 2048):
                xs, ws = composite_gauss_legendre(
                    edges[first:first + 2049], kacrice._NODES)
                value += float(route(sample, xs).integrand() @ ws)
        values.append(value)
    return det + values[1], abs(values[1] - values[0])


def _direct_whole_circle(sample, panels_per_degree=40):
    """Deterministic zeros plus abc_direct over the whole circle, no windows."""
    edges = np.linspace(0.0, TWO_PI, panels_per_degree * sample.n + 1)
    xs, ws = composite_gauss_legendre(edges, 16)
    return _route(sample)[0] + float(abc_direct(sample, xs).integrand() @ ws)


class TestFoldedQuadrature:
    """expected_zeros_quadrature integrates one symmetry cell [0, pi/q]."""

    @pytest.mark.parametrize(
        "kind,dep,ell,n,q",
        [("trig", "periodic", ell, 12 * ell + r - 1, ell)
         for ell in range(2, 6) for r in range(ell)]
        + [
            ("trig", "periodic", 7, 12, 7),  # m = 1, r = 6
            ("trig", "periodic", 5, 4, 5),  # m = 1, r = 0
            ("cosine", "iid", None, 37, 2),
            ("cosine", "iid", None, 60, 2),
            ("cosine", "periodic", 3, 59, 1),  # r = 0, half-integer nu_k
            ("cosine", "periodic", 3, 17, 1),  # r = 0, half-integer nu_k
            ("cosine", "periodic", 4, 39, 1),  # r = 0, integer nu_k
            ("cosine", "periodic", 7, 12, 1),  # m = 1, r = 6
            ("cosine", "periodic", 4, 3, 2),  # m = 1, r = 0: the i.i.d. route
        ]
        + [("cosine", "periodic", ell, 6 * ell + r - 1, 1)
           for ell in range(2, 6) for r in range(1, ell)],
    )
    def test_density_is_even_and_periodic(self, kind, dep, ell, n, q):
        """A, C and the density agree at x, 2 pi - x, 2 pi/q - x and
        x + 2 pi/q, and B changes sign under the reflections.

        The density is compared relative to the larger of itself and its
        mean, where the discriminant AC - B^2 keeps at least 1e-2 of AC: the
        ell = 2 cosine densities vanish at isolated points, where the square
        root of a cancelled discriminant has no relative accuracy, and
        x + 2 pi carries the rounding of 2 pi into the phases.
        """
        sample = _sample(kind, dep, n, ell=ell)
        assert kacrice._fold_order(kind, sample.model.period(n)) == q
        _, route = _route(sample)
        L = 2 if ell is None else ell
        x = (math.pi / q) * (np.arange(997) + 0.6180339887498949) / 997
        keep = np.abs(np.sin(0.5 * L * x)) > 0.05  # off the kernel lattice
        if route is abc_reduced and kind == "cosine":
            keep &= np.abs(np.sin(x)) > 0.05  # off the zeros of the reduced A
        at_x = route(sample, x[keep])
        f = at_x.integrand()
        scale = np.maximum(f, f.mean())
        conditioned = at_x.discriminant() >= 1e-2 * at_x.A * at_x.C
        scale_b = math.sqrt(at_x.A.max() * at_x.C.max())
        for y, sign in ((TWO_PI - x, -1), (TWO_PI / q - x, -1), (x + TWO_PI / q, 1)):
            at_y = route(sample, y[keep])
            assert np.abs(at_y.A - at_x.A).max() < 1e-12 * at_x.A.max()
            assert np.abs(at_y.C - at_x.C).max() < 1e-12 * at_x.C.max()
            assert np.abs(at_y.B - sign * at_x.B).max() < 1e-12 * scale_b
            g = at_y.integrand()
            assert (np.abs(g - f) / scale)[conditioned].max() < 1e-12

    @pytest.mark.parametrize(
        "kind,dep,ell,n",
        [
            ("trig", "periodic", 3, 400),
            ("trig", "periodic", 3, 1000),
            ("trig", "periodic", 3, 299),
            ("cosine", "periodic", 3, 1199),
            ("cosine", "iid", None, 200),
            ("cosine", "iid", None, 400),
            ("cosine", "periodic", 3, 201),
            ("trig", "periodic", 4, 402),
            ("trig", "periodic", 5, 402),
            ("trig", "periodic", 7, 12),
            ("trig", "periodic", 5, 7),
            ("cosine", "periodic", 4, 402),
            ("cosine", "periodic", 7, 12),
            ("cosine", "iid", None, 2),
        ],
    )
    def test_matches_the_whole_circle_rule(self, kind, dep, ell, n):
        sample = _sample(kind, dep, n, ell=ell)
        res = expected_zeros_quadrature(sample)
        want, _ = _whole_circle_rule(sample)
        assert res.total() == pytest.approx(want, rel=1e-12, abs=0.0)
        windows = kacrice._exclusion_windows(kind, sample.model.period(n))
        _, cuts = kacrice._excise(0.0, TWO_PI, windows)
        assert res.excluded_windows == tuple(cuts)
        assert res.excluded_mass_estimate == sum(b - a for a, b in cuts) * n / math.pi
        fold = 2 * kacrice._fold_order(kind, sample.model.period(n))
        assert res.panels_used % fold == 0
        assert abs(res.panels_used - 2 * max(64, 8 * n)) <= 2 * fold

    def test_moved_panel_edge_stays_within_the_doubling_gap(self):
        """cosine ell = 5, n = 401: the circle rule puts an odd panel count on
        the interval around pi, which the cell cuts at a panel edge, so the
        nodes differ; the totals then agree to the doubling gap of the rule,
        not to roundoff."""
        sample = _sample("cosine", "periodic", 401, ell=5)
        want, gap = _whole_circle_rule(sample)
        assert abs(expected_zeros_quadrature(sample).total() - want) <= gap

    @pytest.mark.parametrize(
        "kind,dep,ell,n",
        [
            ("trig", "periodic", 3, 100),  # r = 1
            ("trig", "periodic", 4, 41),  # r = 2
            ("trig", "periodic", 3, 59),  # r = 0: reduced route
            ("trig", "periodic", 2, 39),  # r = 0: reduced route
            ("trig", "periodic", 7, 12),  # m = 1
            ("trig", "periodic", 5, 7),  # m = 1
            ("cosine", "iid", None, 37),
            ("cosine", "iid", None, 60),
            ("cosine", "periodic", 3, 61),  # r = 2
            ("cosine", "periodic", 5, 41),  # r = 2
            ("cosine", "periodic", 3, 59),  # r = 0: reduced route
            ("cosine", "periodic", 4, 39),  # r = 0: reduced route
            ("cosine", "periodic", 7, 12),  # m = 1
            ("cosine", "periodic", 5, 4),  # m = 1
        ],
    )
    def test_within_its_estimate_of_the_direct_whole_circle(self, kind, dep, ell, n):
        """Against abc_direct on 40n panels over the circle, no windows; the
        estimate gets a 1e-12 relative floor for roundoff where it is 0."""
        sample = _sample(kind, dep, n, ell=ell)
        res = expected_zeros_quadrature(sample)
        want = _direct_whole_circle(sample)
        assert abs(res.total() - want) <= res.abs_error_estimate + 1e-12 * want


_U = np.finfo(float).eps / 2  # unit roundoff


def _quadrature_blocks(sample):
    """The PanelNodes blocks that expected_zeros_quadrature hands its route."""
    blocks = []
    _, route = _route(sample)

    def record(sample, x):
        blocks.append(x)
        return route(sample, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kacrice, route.__name__, record)
        expected_zeros_quadrature(sample)
    return blocks


def _route_frequencies(sample):
    """Every f whose phases cos(f x), sin(f x) a route takes from its block."""
    model, n = sample.model, sample.n
    if model.dep == "iid":
        return [1.0, float(n)]
    if decompose_degree(n, model.ell).factors:
        return (reduce_periodic(sample).freq_twice / 2.0).tolist()
    return (decompose_degree(n, model.ell).directions()[1] / 2.0).tolist()


class TestPanelPhases:
    """PanelNodes.cis(f): cos(f x) and sin(f x) from the panel phases
    e^{i f mid} and the node phases e^{i f half z}.

    Against np.cos and np.sin of f x the phases stay within 8u(1 + |f x|),
    u the unit roundoff: both sides round the angle f x to about u |f x|,
    and the angle addition adds a few u more while |f half| < 1, as on the
    quadrature's panels (f <= n, half about pi/(8n)).
    """

    @staticmethod
    def _assert_phases(block, f):
        c, s = block.cis(f)
        fx = f * block.x
        bound = 8 * _U * (1 + np.abs(fx))
        assert np.all(np.abs(c - np.cos(fx)) <= bound)
        assert np.all(np.abs(s - np.sin(fx)) <= bound)

    @pytest.mark.parametrize(
        "kind,dep,ell,n",
        [
            ("cosine", "iid", None, 400),  # cell [0, pi/2] from x = 0
            ("cosine", "periodic", 3, 201),  # r = 1: lattice windows
            ("cosine", "periodic", 3, 299),  # r = 0: reduced, windows at 0, pi
            ("cosine", "periodic", 7, 12),  # m = 1
        ],
    )
    def test_quadrature_blocks_at_every_route_frequency(self, kind, dep, ell, n):
        """Every block of the quadrature and every frequency of its route,
        the first and last nodes of the cell and of each window edge
        included (there 1 + z = 0.0106, where the addition cancels most)."""
        sample = _sample(kind, dep, n, ell=ell)
        blocks = _quadrature_blocks(sample)
        assert all(isinstance(b, PanelNodes) and b.half > 0 for b in blocks)
        for f in _route_frequencies(sample):
            for block in blocks:
                self._assert_phases(block, f)

    @pytest.mark.parametrize("ell", [1, 2, 3, 5])
    def test_panels_beside_the_lattice(self, ell):
        """Panels that end on, or 1e-12 to 1e-3 from, the lattice points
        2 pi k/ell, at the frequencies of a degree-1000 sample."""
        lattice = TWO_PI * np.arange(ell + 1) / ell
        half = math.pi / 8000
        gaps = np.concatenate([[0.0], 10.0 ** np.arange(-12.0, -2.0)])
        z = kacrice._legendre_rule(kacrice._NODES)[0]
        for sign in (-1.0, 1.0):
            mid = (lattice[:, None] + sign * (gaps + half)).ravel()
            block = PanelNodes(mid, half, z)
            for f in (1.0, 0.5 * ell, 333.5, 500.0, 1000.0):
                self._assert_phases(block, f)

    def test_plain_array_is_bit_for_bit(self):
        x = np.concatenate([_beside(TWO_PI * np.arange(4) / 3), [0.0, math.pi, 7.5]])
        block = PanelNodes.of(x)
        assert block.half == 0.0 and np.size(block) == x.size
        assert np.array_equal(block.x, x)
        for f in (1.0, 2.5, 150.0, 401.0, 1199.5):
            c, s = block.cis(f)
            assert np.array_equal(c, np.cos(f * x))
            assert np.array_equal(s, np.sin(f * x))


def _general_grouped_abc(kind, ell, directions, block):
    """The grouped core with one formula for every M, (phi, phi') =
    (1.0, 0.0) for M = 1, accumulated from zeros: the oracle of
    TestUnitDirections."""
    M, freq_twice = directions
    sizes = sorted(set(M.tolist()), reverse=True)
    orders = sorted(size for size in sizes if size > 1)
    pairs = dict(zip(orders, dirichlet_pairs(orders[0], ell, block, len(orders)))) if orders else {}
    A = np.zeros(block.size)
    B = np.zeros(block.size)
    C = np.zeros(block.size)
    for size in sizes:
        nus = freq_twice[M == size] / 2.0
        phi, phid = pairs.pop(size, (1.0, 0.0))
        if kind == "trig":
            A += nus.size * phi * phi
            B += nus.size * phi * phid
            C += nus.size * phid * phid + float((nus * nus).sum()) * phi * phi
            continue
        for nu in nus.tolist():
            cos_nu, sin_nu = block.cis(nu)
            g = phi * cos_nu
            gd = phid * cos_nu - nu * phi * sin_nu
            A += g * g
            B += g * gd
            C += gd * gd
    return A, B, C


class TestUnitDirections:
    """Directions of size M = 1 skip the products with phi = 1 and
    phi' = 0; A, B and C equal the general formula's (np.array_equal,
    which takes -0.0 == 0.0) on every quadrature block."""

    @pytest.mark.parametrize(
        "kind,ell,n,sizes",
        [
            ("cosine", 3, 1199, {1}),  # reduced route: every M is 1
            ("trig", 3, 299, {1}),  # reduced route: stationary
            ("cosine", 5, 6, {2, 1}),  # m = 1, r = 2: closed route, both sizes
            ("trig", 5, 6, {2, 1}),
            ("cosine", 3, 201, {68, 67}),  # r = 1: no M = 1
        ],
    )
    def test_equals_the_general_formula(self, kind, ell, n, sizes):
        sample = _sample(kind, "periodic", n, ell=ell)
        dec = sample.split
        if dec.factors:
            red = reduce_periodic(sample)
            directions = (np.ones_like(red.freq_twice), red.freq_twice)
        else:
            directions = dec.directions()
        assert set(directions[0].tolist()) == sizes
        blocks = _quadrature_blocks(sample)
        assert blocks
        for block in blocks:
            got = kacrice._grouped_abc(kind, ell, directions, block)
            want = _general_grouped_abc(kind, ell, directions, block)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g, w)


_BENCH_CASES = [
    ("trig", "periodic", 3, 400),
    ("trig", "periodic", 3, 1000),
    ("trig", "periodic", 3, 299),
    ("cosine", "periodic", 3, 1199),
    ("cosine", "iid", None, 200),
    ("cosine", "iid", None, 400),
    ("cosine", "periodic", 3, 201),
]


@pytest.mark.parametrize(
    "kind,dep,ell,n,total,estimate,panels",
    [
        ("trig", "periodic", 3, 400, 449.3043344778791, 191.51367131169894, 6408),
        ("trig", "periodic", 3, 1000, 1186.3012380628434, 398.49352762603695, 16008),
        ("trig", "periodic", 3, 299, 596.0044592755544, 0.0, 4788),
        ("cosine", "periodic", 3, 1199, 2324.639332489707, 143.6998258599191, 19184),
        ("cosine", "iid", None, 200, 230.50018700357447, 2.842170943040401e-14, 3200),
        ("cosine", "iid", None, 400, 461.4386800864369, 0.0, 6400),
        ("cosine", "periodic", 3, 201, 209.86502253031708, 100.50003208151853, 3216),
    ],
)
class TestBenchCasePins:
    """The seven Kac-Rice cases of the analytic benchmark, restated here:
    total(), abs_error_estimate and panels_used of the excising rule, to
    the bit.  The draw never enters.  These values move when the rule
    does (the adaptive whole-circle rule of ROADMAP item 2)."""

    def test_bit_for_bit(self, kind, dep, ell, n, total, estimate, panels):
        result = expected_zeros_quadrature(_sample(kind, dep, n, ell=ell, seed=7))
        assert result.total() == total
        assert result.abs_error_estimate == estimate
        assert result.panels_used == panels

    def test_without_the_oracle(self, monkeypatch, kind, dep, ell, n, total, estimate,
                                panels):
        """The whole quadrature runs with the oracle's basis out of reach:
        no route sums O(n) terms per node."""
        monkeypatch.setattr(kacrice, "_basis_functions", _refuse_the_oracle)
        result = expected_zeros_quadrature(_sample(kind, dep, n, ell=ell, seed=7))
        assert _result_key(result) == (total, estimate, panels)


def _result_key(result):
    return result.total(), result.abs_error_estimate, result.panels_used


def _refuse_literal_series(a, b, freqs, x):
    raise AssertionError("a production route summed the series literally")


class TestNoLiteralSumsInProduction:
    """With both O(n)-per-point evaluators raising (the series sum of
    trigpoly.evaluate and the oracle's Kac-Rice basis), the zero counter
    runs every route, roots included, and the quadrature every benchmark
    case, to the same results."""

    @pytest.fixture
    def refused(self, monkeypatch):
        def patch():
            monkeypatch.setattr(trigpoly, "_eval_series_freq", _refuse_literal_series)
            monkeypatch.setattr(kacrice, "_basis_functions", _refuse_the_oracle)
        return patch

    @pytest.mark.parametrize("kind,dep,ell,n,phase", [
        ("trig", "iid", None, 199, False),
        ("cosine", "iid", None, 200, False),
        ("trig", "periodic", 3, 400, False),  # r = 2
        ("cosine", "periodic", 3, 201, False),  # r = 1
        ("trig", "periodic", 3, 299, True),  # r = 0: the phase route
        ("cosine", "periodic", 3, 299, True),
    ])
    def test_count_zeros_every_route(self, refused, kind, dep, ell, n, phase):
        sample = _sample(kind, dep, n, ell=ell, seed=7)
        want = count_zeros(sample, want_roots=True)
        refused()
        got = count_zeros(sample, want_roots=True)
        assert bool(got.pieces) == phase and got.stable
        assert got.count == want.count and np.array_equal(got.roots, want.roots)

    @pytest.mark.parametrize("kind,dep,ell,n", _BENCH_CASES)
    def test_quadrature_bench_cases(self, refused, kind, dep, ell, n):
        sample = _sample(kind, dep, n, ell=ell, seed=7)
        want = _result_key(expected_zeros_quadrature(sample))
        refused()
        assert _result_key(expected_zeros_quadrature(sample)) == want


def _active_pool():
    return trigpoly._SCRATCH.get()


def _outside_any_scope(func, *args):
    """func(*args) in an empty context, where scratch hands out fresh arrays."""
    return contextvars.Context().run(func, *args)


class TestScratchBlocks:
    """Every block of a quadrature runs in the call's one scratch scope; on
    each block, while the quadrature runs and the pool holds the earlier
    blocks' buffers, the route's A, B, C and density equal those of the
    same block outside any scope (np.array_equal)."""

    @pytest.mark.parametrize("kind,dep,ell,n", _BENCH_CASES)
    def test_equals_fresh_arrays(self, kind, dep, ell, n):
        sample = _sample(kind, dep, n, ell=ell, seed=7)
        route = _route(sample)[1]
        pools = []

        def fresh(block):
            t = route(sample, block)
            return t.A, t.B, t.C, t.integrand()

        def checked(sample, block):
            got = route(sample, block)
            want = _outside_any_scope(fresh, block)
            for g, w in zip((got.A, got.B, got.C, got.integrand()), want):
                assert np.array_equal(g, w)
            pools.append(_active_pool())
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kacrice, route.__name__, checked)
            result = expected_zeros_quadrature(sample)
        assert _result_key(result) == _result_key(expected_zeros_quadrature(sample))
        assert len(pools) >= 2 and pools[0] is not None  # both passes
        assert all(pool is pools[0] for pool in pools)
        assert _active_pool() is None  # released with the call


class TestScratchIsolation:
    """Quadratures share no buffer: run one after another, inside one
    another or on several threads, each reproduces its own outcome, and
    arrays that a caller holds are never overwritten."""

    def test_interleaved(self):
        a = _sample("cosine", "periodic", 1199, ell=3, seed=7)  # abc_reduced
        b = _sample("cosine", "periodic", 201, ell=3, seed=7)  # abc_closed
        want = {id(s): _result_key(expected_zeros_quadrature(s)) for s in (a, b)}
        assert [_result_key(expected_zeros_quadrature(s)) for s in (a, b, a)] == [
            want[id(a)], want[id(b)], want[id(a)]]
        # b's whole quadrature runs inside each route call of a's, between
        # a's triple and its density
        pools = {id(a): [], id(b): []}  # held, so no id is reused
        nested = []
        routes = {name: getattr(kacrice, name) for name in ("abc_reduced", "abc_closed")}

        def recording(name):
            def call(sample, block):
                pools[id(sample)].append(_active_pool())
                triple = routes[name](sample, block)
                if sample is a:
                    nested.append(_result_key(expected_zeros_quadrature(b)))
                return triple
            return call

        with pytest.MonkeyPatch.context() as mp:
            for name in routes:
                mp.setattr(kacrice, name, recording(name))
            outer = expected_zeros_quadrature(a)
        assert _result_key(outer) == want[id(a)]
        assert nested and set(nested) == {want[id(b)]}
        per_call = [{id(pool) for pool in pools[id(s)]} for s in (a, b)]
        assert len(per_call[0]) == 1 and len(per_call[1]) == len(nested)
        assert per_call[0].isdisjoint(per_call[1])

    def test_threads(self):
        """Four threads on two cores, switching every 10 us."""
        samples = [_sample(kind, dep, n, ell=ell, seed=7)
                   for kind, dep, ell, n in (_BENCH_CASES[0], _BENCH_CASES[3],
                                             _BENCH_CASES[4], _BENCH_CASES[6])]
        want = [_result_key(expected_zeros_quadrature(s)) for s in samples]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(lambda s: _result_key(expected_zeros_quadrature(s)), s)
                           for s in samples * 3]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 3

    @staticmethod
    def _producers():
        """name -> arrays of one public call at x (points or a block)."""
        closed = _sample("cosine", "periodic", 201, ell=3)
        iid = _sample("cosine", "iid", 200)
        reduced = _sample("cosine", "periodic", 299, ell=3)

        def triple(t):
            return [t.A, t.B, t.C, t.discriminant(), t.integrand()]

        return {
            "abc_closed": lambda x: triple(abc_closed(closed, x)),
            "abc_closed iid cosine": lambda x: triple(abc_closed(iid, x)),
            "abc_reduced": lambda x: triple(abc_reduced(reduced, x)),
            "dirichlet_pairs": lambda x: [a for pair in dirichlet_pairs(67, 3, x, 2) for a in pair],
            "cis": lambda x: list(PanelNodes.of(x).cis(40.5)),
        }

    @pytest.mark.parametrize("in_scope", [False, True])
    def test_held_arrays_are_left_untouched(self, in_scope):
        """Arrays of a first call on plain points, or on a block in a used
        scratch scope, keep their values through a second call at other
        points, and share no memory with its arrays."""
        z = kacrice._legendre_rule(kacrice._NODES)[0]
        half = math.pi / 3200
        mids = [np.linspace(0.1, 3.0, 40), np.linspace(0.2, 3.1, 40)]
        if in_scope:
            points = [PanelNodes(mid, half, z) for mid in mids]
        else:
            points = [PanelNodes(mid, half, z).x for mid in mids]
        with scratch_scope() if in_scope else contextlib.nullcontext():
            if in_scope:
                _fill_pool_with_nan(mids[0].size * z.size)
            for name, produce in self._producers().items():
                first = produce(points[0])
                kept = [a.copy() for a in first]
                second = produce(points[1])
                for held, value in zip(first, kept):
                    assert np.array_equal(held, value), name
                    assert not any(np.shares_memory(held, other) for other in second), name


_LD_PI = 4 * np.arctan(np.longdouble(1))


def _exact_nodes(block):
    """The nodes mid + half z of a block in long double, where the product
    and the sum round to 2^-64 of themselves."""
    ld = np.longdouble
    return (block.mid.astype(ld)[:, None] + ld(block.half) * block.z.astype(ld)).ravel()


def _long_double_pairs(M, ell, block):
    """(phi_M, phi_M') at the exact nodes of a block, in long double: the
    quotients of the reduced argument s, and their series where
    M|s| < 1e-3 (the first term left out is below 1e-24 of M).  Beside
    that window the quotient phi_M' loses about 2^-64/(M|s|) of ell M^2."""
    ld = np.longdouble
    x = _exact_nodes(block)
    period = 2 * _LD_PI / ell
    k = np.rint(x / period)
    s = ell * (x - k * period) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.sin(M * s) / np.sin(s)
        phid = ell * (M * np.cos(M * s) * np.sin(s) - np.sin(M * s) * np.cos(s)) / (2 * np.sin(s) ** 2)
    near = np.abs(M * s) < 1e-3
    z = s[near]
    zz = z * z
    MM = ld(M)
    s2 = MM * (MM * MM - 1) / 3
    s4 = s2 * (3 * MM * MM - 7) / 5
    s6 = s2 * (3 * MM**4 - 18 * MM * MM + 31) / 7
    phi[near] = MM - zz * (s2 / 2 - zz * (s4 / 24 - zz * (s6 / 720)))
    phid[near] = ell * z * (-s2 + zz * (s4 / 6 - zz * (s6 / 120))) / 2
    if (M - 1) % 2:
        odd = np.fmod(k, 2) != 0
        phi[odd] = -phi[odd]
        phid[odd] = -phid[odd]
    return phi, phid


def _kernel_errors(m, ell, block, orders):
    """Worst |phi_M error|/M and |phi_M' error|/(ell M^2) over the orders
    against _long_double_pairs: row 0 for dirichlet_pairs on the block,
    row 1 for the per-node reduction of the rounded nodes block.x."""
    worst = np.zeros((2, 2))
    block_pairs = dirichlet_pairs(m, ell, block, orders)
    node_pairs = dirichlet_pairs(m, ell, block.x, orders)
    for M, *both in zip(range(m, m + orders), block_pairs, node_pairs):
        ref = _long_double_pairs(M, ell, block)
        for row, got in enumerate(both):
            for col, scale in enumerate((M, ell * M * M)):
                err = float(np.abs(got[col] - ref[col]).max()) / scale
                worst[row, col] = max(worst[row, col], err)
    return worst


def _kernel_calls(sample):
    """(m, ell, x, orders) of every Dirichlet kernel call of the routes in
    one expected_zeros_quadrature."""
    calls = []

    def pairs(m, ell, x, orders):
        calls.append((m, ell, x, orders))
        return dirichlet_pairs(m, ell, x, orders)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kacrice, "dirichlet_pairs", pairs)
        mp.setattr(kacrice, "dirichlet_pair", lambda m, ell, x: pairs(m, ell, x, 1)[0])
        expected_zeros_quadrature(sample)
    return calls


class TestKernelOnBlocks:
    """dirichlet_pairs on PanelNodes blocks against long-double phi_M and
    phi_M' at the rule's exact nodes mid + half z.  Its worst error never
    exceeds that of the per-node reduction of the rounded nodes block.x,
    which pays u |x| ell/2 in s for rounding x, against the same reference."""

    @pytest.mark.parametrize(
        "kind,dep,ell,n",
        [
            ("trig", "periodic", 3, 400),  # m = 133, r = 2
            ("trig", "periodic", 3, 1000),  # m = 333, r = 2
            ("cosine", "periodic", 3, 201),  # m = 67, r = 1
            ("cosine", "iid", None, 200),  # phi_201(2x; 1) on the doubled block
            ("cosine", "iid", None, 400),
        ],
    )
    def test_every_quadrature_block(self, kind, dep, ell, n):
        """Every kernel call of the benchmark's closed-route cases."""
        calls = _kernel_calls(_sample(kind, dep, n, ell=ell))
        assert calls and all(isinstance(x, PanelNodes) and x.half > 0 for *_, x, _ in calls)
        worst = np.zeros((2, 2))
        for m, ell_k, block, orders in calls:
            worst = np.maximum(worst, _kernel_errors(m, ell_k, block, orders))
        assert np.all(worst[0] <= worst[1]), worst

    @pytest.mark.parametrize("ell,m", [(1, 401), (2, 100), (3, 333), (5, 200)])
    def test_panels_beside_the_lattice(self, ell, m):
        """Orders m and m+1 on panels of the first-pass width whose ends lie
        on, or 1e-12 to 1e-3 from, the lattice points 2 pi k/ell, on panels
        centred on them, on panels that straddle (k + 1/2) period, and on
        panels whose outermost node sits at, just inside or just outside
        M|s| = _PAIR_SERIES_WINDOW and _PAIR_DIRECT_WINDOW."""
        half = math.pi / (8 * m * ell)
        z = kacrice._legendre_rule(kacrice._NODES)[0]
        period = TWO_PI / ell
        lattice = period * np.arange(ell + 1)
        gaps = np.concatenate([[0.0], 10.0 ** np.arange(-12.0, -2.0)])
        tau_max = 0.5 * ell * half * np.abs(z).max()
        edges = np.array([(w / M + tau_max) * (2 / ell) * (1 + e)
                          for M in (m, m + 1)
                          for w in (trigpoly._PAIR_SERIES_WINDOW, trigpoly._PAIR_DIRECT_WINDOW)
                          for e in (-1e-9, 0.0, 1e-9, -0.5, 0.5)])
        offsets = np.concatenate([gaps + half, -gaps - half, [0.0], edges, -edges])
        straddle = period * (np.arange(ell) + 0.5)
        mid = np.concatenate([(lattice[:, None] + offsets).ravel(),
                              (straddle[:, None] + half * np.array([-0.5, 0.0, 0.5])).ravel()])
        worst = _kernel_errors(m, ell, PanelNodes(mid, half, z), 2)
        assert np.all(worst[0] <= worst[1]), worst


class TestIidCosineAccuracy:
    """i.i.d. cosine A, B and C at n = 2000 against long-double literal sums
    at the exact nodes, over the powers of e^{ix} (their error is about
    j 2^-64 at frequency j).  The pins are the measured errors, A, B (of
    sqrt(AC)) and C: 1.15e-16, 2.26e-15 and 5.38e-15 at the Taylor-table
    nodes |sin x| < 1/n, C's worst at the node 1.04e-6 next to 0, where
    rounding half z costs y its last digits, and 2.53e-16, 3.04e-16 and
    5.06e-16 at the closed ones (the per-node kernel's errors)."""

    def test_abc_at_every_24th_panel(self):
        n = 2000
        sample = _sample("cosine", "iid", n)
        worst = np.zeros((2, 3))
        for block in _quadrature_blocks(sample):
            sub = PanelNodes(block.mid[::24], block.half, block.z)
            got = abc_closed(sample, sub)
            x = _exact_nodes(sub)
            ref = np.zeros((3, x.size), dtype=np.longdouble)
            cos_x, sin_x = np.cos(x), np.sin(x)
            cos_j, sin_j = np.ones_like(x), np.zeros_like(x)
            for j in range(n + 1):
                ref[0] += cos_j * cos_j
                ref[1] -= j * cos_j * sin_j
                ref[2] += (j * sin_j) ** 2
                cos_j, sin_j = cos_j * cos_x - sin_j * sin_x, sin_j * cos_x + cos_j * sin_x
            scales = (ref[0], np.sqrt(ref[0] * ref[2]), ref[2])
            taylor = np.abs(sub.cis(1.0)[1]) < 1.0 / n
            for col, (value, want, scale) in enumerate(zip((got.A, got.B, got.C), ref, scales)):
                err = (np.abs(value - want) / scale).astype(float)
                for row, nodes in enumerate((taylor, ~taylor)):
                    worst[row, col] = max(worst[row, col], err[nodes].max(initial=0.0))
        pins = np.array([[1.15e-16, 2.26e-15, 5.38e-15], [2.53e-16, 3.04e-16, 5.06e-16]])
        assert np.all(worst <= pins), worst

    @pytest.mark.parametrize("n", [1, 2, 3, 400, 12001])
    def test_both_sides_of_the_switch(self, n):
        """At |sin x| = 1/n the route switches from the closed forms to the
        Taylor table.  Against long-double literal sums at the offset y of
        x from k pi (pi in two parts, so y is exact to 2^-64 of itself),
        both sides hold to 2e-15 of A, sqrt(AC) and C: the table at
        (1 - 1e-6) asin(1/n) either side of 0, pi and 2 pi and at 0 and pi
        themselves, the closed forms at (1 + 1e-6) asin(1/n) either side
        of 0, pi and 2 pi, which they reach through the same offset y."""
        edge = math.asin(1.0 / n)
        x = np.array([c + sign * factor * edge for factor in (1 - 1e-6, 1 + 1e-6)
                      for c in (0.0, math.pi, TWO_PI) for sign in (-1, 1)]
                     + [0.0, math.pi])
        got = abc_closed(_sample("cosine", "iid", n), x)
        ld = np.longdouble
        k = np.rint(x / math.pi).astype(ld)
        y = (x.astype(ld) - k * ld(math.pi)) - k * ld("1.2246467991473531772e-16")  # pi - math.pi
        j = np.arange(n + 1, dtype=ld)
        cos_j, sin_j = np.cos(np.multiply.outer(y, j)), np.sin(np.multiply.outer(y, j))
        A = (cos_j * cos_j).sum(axis=1)
        B = -(j * cos_j * sin_j).sum(axis=1)
        C = ((j * sin_j) ** 2).sum(axis=1)
        for value, want, scale in zip((got.A, got.B, got.C), (A, B, C), (A, np.sqrt(A * C), C)):
            assert np.isfinite(value).all()
            assert np.all(np.abs(value - want) <= 2e-15 * scale), (value - want) / scale


class TestCosineTaylorTable:
    def test_built_once_per_degree(self):
        """Both passes of repeated i.i.d. cosine quadratures at two degrees
        build the table once per degree, reuse it in every later block,
        and cannot write to it."""
        table = kacrice._cosine_taylor
        table.cache_clear()
        for n in (200, 400, 200):
            expected_zeros_quadrature(_sample("cosine", "iid", n))
        info = table.cache_info()
        assert (info.misses, info.currsize, info.hits > 0) == (2, 2, True)
        for n in (200, 400):
            assert not table(n).flags.writeable
            with pytest.raises(ValueError):
                table(n)[0, 0] = 0.0


class TestPanelBlocks:
    """What the quadrature hands its routes, as the tracer and the
    dispatch tests see it."""

    @pytest.mark.parametrize("lo,hi,panels", [(0.0, math.pi / 2, 3200),
                                              (0.31, 2.1, 4097), (1.0, 1.5, 1)])
    def test_blocks_are_the_composite_rule(self, lo, hi, panels):
        """The blocks cover the composite Gauss-Legendre rule in order: their
        nodes within 4 ulp of 2 pi of its abscissae, np.size(block) their
        node count, at most _BLOCK_POINTS each, and its weights."""
        blocks = []

        def record(block):
            blocks.append(block)
            return np.cos(block.x)

        total, used = kacrice._integrate_panels(record, [(lo, hi)], panels)
        xs, ws = composite_gauss_legendre(np.linspace(lo, hi, panels + 1), kacrice._NODES)
        assert used == panels
        assert total == pytest.approx(math.sin(hi) - math.sin(lo), rel=1e-14)
        assert total == pytest.approx(float(np.cos(xs) @ ws), rel=1e-15)
        assert [np.size(b) for b in blocks] == [b.x.size for b in blocks]
        assert max(np.size(b) for b in blocks) <= kacrice._BLOCK_POINTS
        x = np.concatenate([b.x for b in blocks])
        assert x.size == xs.size
        assert np.abs(x - xs).max() <= 4 * np.spacing(TWO_PI)


class TestTranscendentalBudget:
    """np.sin and np.cos elements per node that the routes evaluate in one
    expected_zeros_quadrature: the phases cost 2 per panel and frequency,
    2/16 per node, and a lattice reduction 4 per panel, 4/16 per node, plus
    4 per node on the few panels beside the lattice that it reduces node by
    node (none where the quadrature excises the lattice)."""

    @pytest.mark.parametrize(
        "kind,dep,ell,n,budget",
        [
            ("cosine", "periodic", 3, 1199, 2 * 3 / 16 + 0.01),  # reduced
            ("trig", "periodic", 3, 1000, 4 / 16 + 0.01),  # r = 2
            ("cosine", "periodic", 3, 1201, (4 + 2 * 3) / 16 + 0.025),  # r = 2
            ("cosine", "iid", None, 400, 0.52),  # phases of x and n x, and the kernel
        ],
    )
    def test_per_node(self, monkeypatch, kind, dep, ell, n, budget):
        sample = _sample(kind, dep, n, ell=ell)
        counts = {"trig": 0, "nodes": 0}

        def counted(func, key):
            def wrapper(*args, **kwargs):
                counts[key] += np.size(args[1] if key == "nodes" else args[0])
                return func(*args, **kwargs)
            return wrapper

        for name in ("abc_closed", "abc_reduced"):
            monkeypatch.setattr(kacrice, name, counted(getattr(kacrice, name), "nodes"))
        for name in ("sin", "cos"):
            monkeypatch.setattr(np, name, counted(getattr(np, name), "trig"))
        expected_zeros_quadrature(sample)
        assert counts["nodes"] > 0
        assert counts["trig"] / counts["nodes"] <= budget


def _peak_mb(func):
    tracemalloc.start()
    try:
        out = func()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryLinearInDegree:
    """The (points x n) basis matrices of the literal sums never materialise,
    and the quadrature hands its integrand at most _BLOCK_POINTS nodes.

    Unchunked, each call below needs gigabytes: abc_direct at n = 2000 over
    2e4 points holds ~2 GB of basis arrays, and the literal i.i.d. cosine
    quadrature at n = 2000 would hold ~8 GB.  With closed forms but one
    block per pass, the two quadratures peak at about 71 and 33 MB.
    """

    def test_abc_direct_is_chunked(self):
        s = _sample("cosine", "iid", 2000)
        x = np.linspace(0.0, TWO_PI, 20_000)
        t, peak = _peak_mb(lambda: abc_direct(s, x))
        assert t.A.shape == x.shape
        assert peak < 64.0

    def test_iid_cosine_quadrature(self):
        n = 2000
        res, peak = _peak_mb(lambda: expected_zeros_quadrature(_sample("cosine", "iid", n)))
        assert peak < 16.0
        iid_trig = 2.0 * math.sqrt(n * (2 * n + 1) / 6.0)
        assert res.total() == pytest.approx(iid_trig, rel=5e-3)

    def test_periodic_cosine_quadrature(self):
        s = _sample("cosine", "periodic", 2001, ell=3)
        assert decompose_degree(2001, 3).r == 1
        res, peak = _peak_mb(lambda: expected_zeros_quadrature(s))
        assert peak < 16.0
        assert 0.0 < res.total() <= 2 * 2001 + 0.5


class TestLeadingOrderRemainders:
    """Truncation errors of the large-n forms shrink at the documented rates.

    With lattice windows of half-width (2/ell) m^{-a} excluded and a = 0.225,
    the B^2 truncation error is O(n^{1+4a}) = O(n^1.9) and the C truncation
    error is O(n^{1+2a}) = O(n^1.45).  The constants are calibrated on the two
    smallest degrees and the larger degrees must stay within 3x of them.
    """

    ELL, R, A_EXP = 3, 1, 0.225
    DEGREES = (99, 201, 399, 801)

    def _sup_gaps(self, n):
        dec = decompose_degree(n, self.ELL)
        w = 2.0 * dec.m ** (-self.A_EXP) / self.ELL
        x = np.linspace(w, 2 * np.pi / self.ELL - w, 4001)
        s = _sample("trig", "periodic", n, ell=self.ELL)
        exact = abc_closed(s, x)
        trunc = abc_leading_order(s, x)
        gap_b2 = np.abs(exact.B**2 - trunc.B**2).max()
        gap_c = np.abs(exact.C - trunc.C).max()
        return gap_b2, gap_c

    def test_remainder_orders(self):
        sups = {n: self._sup_gaps(n) for n in self.DEGREES}
        k_b2 = max(sups[n][0] / n**1.9 for n in self.DEGREES[:2])
        k_c = max(sups[n][1] / n**1.45 for n in self.DEGREES[:2])
        assert k_b2 > 0 and k_c > 0  # the forms genuinely differ
        for n in self.DEGREES[2:]:
            assert sups[n][0] <= 3.0 * k_b2 * n**1.9
            assert sups[n][1] <= 3.0 * k_c * n**1.45

    def test_rejects_r0_and_iid(self):
        with pytest.raises(ValueError):
            abc_leading_order(_sample("trig", "periodic", 59, ell=3), 1.0)
        with pytest.raises(ValueError):
            abc_leading_order(_sample("trig", "iid", 59), 1.0)


class TestLimitIntegrands:
    def test_g_at_least_one_and_reaches_above(self):
        s = np.linspace(0.1, np.pi - 0.1, 40)
        t = np.linspace(0.1, np.pi - 0.1, 40)
        ss, tt = np.meshgrid(s, t)
        g = limit_integrand_g(3, 1, ss, tt)
        assert np.all(g >= 1.0)
        assert g.max() > 1.1

    def test_fpm_positive_and_unit_free(self):
        x = np.linspace(1e-3, np.pi / 2, 1000)
        fp = limit_integrand_fpm(3, 200, x, +1)
        fm = limit_integrand_fpm(3, 200, x, -1)
        assert np.all(fp >= 0) and np.all(fm >= 0)
        u = dirichlet_pair(3, 2, x)[0] / 3
        assert np.allclose(
            fp * (1 + u * np.cos(200 * x)), np.sqrt(1 - u * u), atol=1e-12
        )

    @staticmethod
    def _i_pm(ell, n, sign, panels_per_degree=60):
        lo = math.pi / (2 * n) if sign < 0 else 0.0
        edges = np.linspace(lo, math.pi / 2, panels_per_degree * n + 1)
        xs, ws = composite_gauss_legendre(edges, 8)
        return float(np.dot(limit_integrand_fpm(ell, n, xs, sign), ws)) / math.pi

    def test_circle_averages_tend_to_half(self):
        """I+-(n) = 1/2 + O(n^{-1/3}), constant calibrated at n <= 200."""
        degs = (100, 200, 400, 800)
        gaps = {
            n: (
                abs(self._i_pm(3, n, +1) - 0.5),
                abs(self._i_pm(3, n, -1) - 0.5),
            )
            for n in degs
        }
        k = max(max(gaps[n]) * n ** (1.0 / 3.0) for n in degs[:2])
        for n in degs[2:]:
            assert max(gaps[n]) <= 3.0 * k * n ** (-1.0 / 3.0)
