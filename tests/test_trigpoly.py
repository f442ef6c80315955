"""Evaluation and identity tests against independent references.

Oracles used here, all computed inside the tests themselves:
  - compensated termwise summation via math.fsum (evaluation accuracy)
  - literal frequency-by-frequency sums (Dirichlet closed forms)
  - central finite differences (derivatives)
"""

import dataclasses
import math
import re
import threading

import numpy as np
import pytest

from trigzeros import models, trigpoly, zeros
from trigzeros.harness import ExperimentConfig, run_experiment
from trigzeros.models import CoefficientModel, decompose_degree, sample_coefficients
from trigzeros.zeros import GRID_OFFSET, carrier_phase, count_zeros
from trigzeros.trigpoly import (
    PanelNodes,
    dirichlet_pair,
    dirichlet_pairs,
    evaluate,
    evaluate_jet,
    evaluate_on_grid,
    grid_nodes,
    reduce_periodic,
    scratch,
    scratch_scope,
)

from conftest import unit_sample


def fsum_reference(a, b, x):
    """Compensated reference for sum a_j cos(jx) + b_j sin(jx)."""
    terms = []
    for j in range(len(a)):
        terms.append(a[j] * math.cos(j * x))
        if b[j] != 0.0:
            terms.append(b[j] * math.sin(j * x))
    return math.fsum(terms)


def reduced_derivative(red, x):
    """T*' at scalar x: termwise, cosine coefficients f_k b_k and sine
    coefficients -f_k a_k at the reduced frequencies f_k."""
    f = red.frequencies()
    return float(np.sum(f * red.b * np.cos(f * x) - f * red.a * np.sin(f * x)))


class TestEvaluate:
    def test_all_ones_at_zero(self):
        model = CoefficientModel(kind="cosine", dep="iid")
        s = sample_coefficients(model, 17, seed=1)
        ones = np.ones(18)
        object.__setattr__(s, "a", ones)  # frozen dataclass, test rig only
        assert evaluate(s, 0.0) == pytest.approx(18.0, abs=1e-12)

    def test_matches_compensated_reference_large_degree(self):
        """1e-12 relative accuracy (coefficient l1 scale) at n = 10^4."""
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 10_000, seed=3)
        scale = np.sum(np.abs(s.a)) + np.sum(np.abs(s.b))
        for x in (0.1234, 1.0, 2.718281828, 4.4, 6.28):
            ref = fsum_reference(s.a, s.b, x)
            assert abs(evaluate(s, x) - ref) <= 1e-12 * scale

    def test_scalar_and_array_agree(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 25, seed=8)
        xs = np.array([0.3, 1.7, 5.0])
        arr = evaluate(s, xs)
        scale = np.abs(s.a).sum() + np.abs(s.b).sum()
        for i, x in enumerate(xs):
            # batched BLAS reductions may reorder sums by a few ulp
            assert arr[i] == pytest.approx(evaluate(s, float(x)), abs=1e-14 * scale)

    def test_two_pi_periodicity(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=2)
        s = sample_coefficients(model, 21, seed=4)
        xs = np.linspace(0.0, 2 * np.pi, 11)
        assert np.allclose(evaluate(s, xs), evaluate(s, xs + 2 * np.pi), atol=1e-9)


def fsum_reference_jet(a, b, x, k):
    """Compensated reference for T^(k)(x) = Re sum_j (a_j - i b_j)(i j)^k e^{ijx}."""
    terms = []
    for j in range(len(a)):
        c = (a[j] - 1j * b[j]) * (1j * j) ** k
        terms += [c.real * math.cos(j * x), -c.imag * math.sin(j * x)]
    return math.fsum(terms)


class TestEvaluateJet:
    def test_rows_match_termwise_reference(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 300, seed=11)
        x = np.array([0.5, 2.2, 5.9, 2 * np.pi + 0.01])
        jet = evaluate_jet(s, x)
        assert jet.shape == (4, 4)
        j = np.arange(301)
        for k in range(4):
            scale = np.sum(j ** k * (np.abs(s.a) + np.abs(s.b)))
            ref = [fsum_reference_jet(s.a, s.b, xi, k) for xi in x]
            assert np.abs(jet[k] - ref).max() <= 1e-12 * scale, k

    def test_first_rows_are_the_dense_sums(self):
        model = CoefficientModel(kind="cosine", dep="iid")
        s = sample_coefficients(model, 80, seed=12)
        x = np.linspace(0.0, 2 * np.pi, 50)
        jet = evaluate_jet(s, x, order=1)
        assert jet.shape == (2, 50)
        scale = np.sum(np.arange(81) * np.abs(s.a))
        assert np.abs(jet[0] - evaluate(s, x)).max() <= 1e-13 * scale
        ref = [fsum_reference_jet(s.a, s.b, xi, 1) for xi in x]
        assert np.abs(jet[1] - ref).max() <= 1e-13 * scale

    def test_first_derivative_matches_finite_difference(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 40, seed=12)
        h = 1e-6
        for x in (0.7, 3.1, 5.5):
            fd = (evaluate(s, x + h) - evaluate(s, x - h)) / (2 * h)
            # FD truncation ~ |T'''| h^2 / 6 with |T'''| <~ n^3 * coeff scale
            assert abs(evaluate_jet(s, x, order=1)[1, 0] - fd) < 1e-2

    def test_negative_order_raises_as_the_grid_does(self):
        s = sample_coefficients(CoefficientModel(kind="trig", dep="iid"), 40, seed=12)
        with pytest.raises(ValueError, match=r"need a derivative order >= 0, got -1"):
            evaluate_jet(s, [0.7, 3.1], order=-1)


class TestEvaluateOnGrid:
    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    def test_derivative_orders_on_every_grid_shape(self, kind):
        """order = k gives T^(k) on the grid, folded or not."""
        model = CoefficientModel(kind=kind, dep="iid")
        n = 60
        s = sample_coefficients(model, n, seed=25)
        j = np.arange(n + 1)
        for k in (1, 2, 3):
            scale = np.sum(j ** k * (np.abs(s.a) + np.abs(s.b)))
            for num in (1, 7, n, 2 * n, 2 * n + 1, 256, 6400):
                for offset in (0.0, 0.5):
                    g = evaluate_on_grid(s, num, offset=offset, order=k)
                    d = evaluate_jet(s, grid_nodes(num, offset=offset))[k]
                    assert np.abs(g - d).max() <= 1e-11 * scale, (k, num, offset)
        with pytest.raises(ValueError, match="order"):
            evaluate_on_grid(s, 64, order=-1)

    @pytest.mark.parametrize("num_nodes, order, message", [
        (64, (), r"^order must name at least one derivative order, got \(\)$"),
        (1.5, 0, r"^num_nodes must be an integer >= 1, got 1\.5$"),
        (64.0, (0, 1), r"^num_nodes must be an integer >= 1, got 64\.0$"),
        (0, 0, r"^num_nodes must be an integer >= 1, got 0$"),
    ])
    def test_bad_arguments_are_named(self, num_nodes, order, message):
        """An empty tuple of orders or a node count that is not an integer
        is a ValueError that names the argument, as a negative order is;
        1.5 nodes are not one node."""
        s = sample_coefficients(CoefficientModel(kind="trig", dep="iid"), 40, seed=12)
        with pytest.raises(ValueError, match=message):
            evaluate_on_grid(s, num_nodes, order=order)

    @pytest.mark.parametrize("num_nodes", [2.5, 64.0, 0])
    def test_grid_nodes_refuse_a_size_that_is_not_an_integer(self, num_nodes):
        """grid_nodes refuses what evaluate_on_grid refuses, with the same
        message: let through, 2.5 would give three nodes, the last at 2 pi."""
        message = f"^num_nodes must be an integer >= 1, got {re.escape(repr(num_nodes))}$"
        with pytest.raises(ValueError, match=message):
            grid_nodes(num_nodes)

    def test_matches_direct_evaluation(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 300, seed=21)
        scale = np.sum(np.abs(s.a)) + np.sum(np.abs(s.b))
        for num in (512, 1024, 4096):
            g = evaluate_on_grid(s, num)
            d = evaluate(s, grid_nodes(num))
            assert np.abs(g - d).max() <= 1e-11 * scale

    def test_folding_below_degree(self):
        """Grids smaller than n+1 alias exactly, not approximately."""
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 100, seed=22)
        g = evaluate_on_grid(s, 32)
        d = evaluate(s, grid_nodes(32))
        assert np.abs(g - d).max() <= 1e-11 * (np.abs(s.a).sum() + np.abs(s.b).sum())

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_real_transform_on_every_grid_shape(self, kind, offset):
        """The Hermitian half spectrum reproduces direct summation on odd N,
        N = n+1 (no folding from here up) and 2n+1 (the plain half spectrum
        from here up), N <= n with folded frequencies above N/2, and the
        degenerate N = 1, 2."""
        model = CoefficientModel(kind=kind, dep="iid")
        n = 60
        s = sample_coefficients(model, n, seed=24)
        scale = np.abs(s.a).sum() + np.abs(s.b).sum()
        for num in (1, 2, 3, 7, 24, 25, 45, n, n + 1, n + 2, 2 * n, 2 * n + 1,
                    2 * n + 2, 255, 256, 6400):
            g = evaluate_on_grid(s, num, offset=offset)
            d = evaluate(s, grid_nodes(num, offset=offset))
            assert g.shape == (num,)
            assert np.abs(g - d).max() <= 1e-11 * scale, num

    def test_offset_zero_hits_lattice(self):
        model = CoefficientModel(kind="cosine", dep="iid")
        s = sample_coefficients(model, 50, seed=23)
        g = evaluate_on_grid(s, 128, offset=0.0)
        assert g[0] == pytest.approx(float(np.sum(s.a)), rel=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    @pytest.mark.parametrize("kind, ell, n", [
        ("trig", 3, 11),  # m = 4: half-integer frequencies 4.5, 5.5, 6.5
        ("trig", 4, 59),  # m = 15: integer frequencies 28, 29, 30, 31
        ("cosine", 3, 299),  # m = 100: half-integer, cosines only
        ("trig", 1, 20),  # ell = 1, m = 21: the single frequency 10
        ("trig", 1, 21),  # ell = 1, m = 22: the single frequency 10.5
        ("trig", 5, 4),  # m = 1: integer frequencies 0..4
    ])
    def test_reduced_factor_on_every_grid_shape(self, kind, ell, n, offset):
        """T* has no spectral grid: the counter reads it through its carrier
        phase, and 2^e |P(e^{ix})| cos theta(x) reproduces its dense
        summation on the grids of every shape, x = 0 included."""
        model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
        s = sample_coefficients(model, n, seed=25)
        red = reduce_periodic(s)
        phase = carrier_phase(s)
        scale = np.abs(red.a).sum() + np.abs(red.b).sum()
        top = int(red.freq_twice.max())  # twice the largest frequency
        for num in (1, 2, 3, 5, top // 2, top, top + 1, 2 * top, 2 * top + 1, 6400):
            x = grid_nodes(num, offset=offset)
            amp = np.abs(np.polyval(phase.coeffs[::-1], np.exp(1j * x)))
            g = np.ldexp(amp * np.cos(phase(x)), phase.exponent)
            d = red.evaluate(x)
            assert g.shape == (num,)
            assert np.abs(g - d).max() <= 1e-11 * scale, num

    @pytest.mark.parametrize("dep, ell, n, reduced", [
        ("iid", None, 40, False),
        ("periodic", 3, 40, False),  # r = 2
        ("periodic", 3, 38, True),  # r = 0, integer frequencies
        ("periodic", 3, 41, True),  # r = 0, half-integer frequencies
    ])
    def test_power_of_two_scaling_is_exact(self, dep, ell, n, reduced):
        """Scaling the coefficients by 2^k scales every grid value by exactly
        2^k, down to nearly subnormal and up to nearly overflowing values; a
        reduced factor keeps its normalized carrier coefficients, phase and
        breakpoints to the last bit and moves only its exponent."""
        model = CoefficientModel(kind="trig", dep=dep, ell=ell)
        s = sample_coefficients(model, n, seed=26)
        for num in (7, 4 * n, 6400):
            x = grid_nodes(num)
            if reduced:
                base = carrier_phase(s)
            else:
                base = evaluate_on_grid(s, num)
            for k in (-1000, -900, -3, 1, 500, 1000, 1015):
                scaled = dataclasses.replace(s, a=np.ldexp(s.a, k), b=np.ldexp(s.b, k))
                if not reduced:
                    assert np.array_equal(evaluate_on_grid(scaled, num),
                                          np.ldexp(base, k)), (num, k)
                    continue
                phase = carrier_phase(scaled)
                assert phase.exponent == base.exponent + k
                assert np.array_equal(phase.coeffs, base.coeffs)
                assert np.array_equal(phase(x), base(x)), (num, k)
                assert np.array_equal(phase.breakpoints(), base.breakpoints())


class TestTwoRowGrid:
    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    @pytest.mark.parametrize("sigma", [1.0, 1e200, 1e-200])
    def test_rows_equal_single_order_calls(self, kind, sigma):
        """order=(0, 1) gives T and T' bit for bit as the two single-order
        calls do, signs of zero included: on grids with 2n < N and on folded
        grids 2n >= N, at sigma 1, 1e200 and 1e-200, outside any scratch
        scope and inside one whose buffers hold NaN from earlier use."""
        n = 150
        s = sample_coefficients(CoefficientModel(kind=kind, dep="iid", sigma=sigma), n, seed=43)
        assert s.normalized[1] != 0  # the values are scaled back by 2^e
        for num in (7, n, 2 * n, 2 * n + 1, 256, 32 * n):
            for offset in (0.5, GRID_OFFSET):
                single = np.stack([evaluate_on_grid(s, num, offset, order=k) for k in (0, 1)])
                rows = evaluate_on_grid(s, num, offset, order=(0, 1))
                assert rows.tobytes() == single.tobytes(), (num, offset)
                with scratch_scope():
                    for held in [scratch(2 * num) for _ in range(3)]:
                        held.fill(np.nan)
                    rows = evaluate_on_grid(s, num, offset, order=(0, 1))
                    pooled = [evaluate_on_grid(s, num, offset, order=k) for k in (0, 1)]
                    assert rows.tobytes() == np.stack(pooled).tobytes() == single.tobytes()


def uncached_grid(sample, num_nodes, offset, order):
    """evaluate_on_grid with every table built in place: normalization,
    (i j)^order, the twist, the fold and the real inverse transform."""
    freqs = np.arange(sample.n + 1)
    e = int(np.frexp(max(np.abs(sample.a).max(), np.abs(sample.b).max()))[1])
    c = np.ldexp(sample.a, -e) - 1j * np.ldexp(sample.b, -e)
    if order:
        c = c * (1j ** order * freqs.astype(float) ** order)
    d = c * np.exp((2j * np.pi * offset / num_nodes) * freqs)
    half = num_nodes // 2 + 1
    if 2 * sample.n < num_nodes:
        H = np.zeros(half, dtype=complex)
        H[: sample.n + 1] = 0.5 * d
        H[0] = 2.0 * H[0].real
    else:
        folded = freqs % num_nodes
        F = (np.bincount(folded, weights=d.real, minlength=num_nodes)
             + 1j * np.bincount(folded, weights=d.imag, minlength=num_nodes))
        k = np.arange(half)
        H = 0.5 * (F[k] + np.conj(F[-k % num_nodes]))
    vals = np.fft.irfft(H, num_nodes, norm="forward")
    with np.errstate(over="ignore"):
        return np.ldexp(vals, e)


class TestPerDegreeTables:
    @pytest.mark.parametrize("dep, ell, n, scale", [
        ("iid", None, 60, 0), ("periodic", 3, 400, 0), ("iid", None, 199, 700),
    ])
    def test_grid_values_equal_the_uncached_reference(self, dep, ell, n, scale):
        """Cached twist, powers and normalization change no bit, on grids
        with N > 2n and on folding grids N <= 2n."""
        s = sample_coefficients(CoefficientModel(kind="trig", dep=dep, ell=ell), n, seed=41)
        s = dataclasses.replace(s, a=np.ldexp(s.a, scale), b=np.ldexp(s.b, scale))
        for num in (7, n, 2 * n, 2 * n + 1, 32 * n):
            for offset in (0.0, 0.5, GRID_OFFSET):
                for order in range(3):
                    assert np.array_equal(evaluate_on_grid(s, num, offset, order=order),
                                          uncached_grid(s, num, offset, order)), \
                        (num, offset, order)

    def test_each_table_is_built_once_per_row(self, monkeypatch):
        """A 12-trial row at one degree builds W's frequencies, their powers
        and W's table once each, and the tables derived from them (the
        certificate's factors, the cell layout) once per key, and every
        later trial reuses them.  Its samples (ell = 3, n = 100, N = 270)
        are counted from W, whose table holds products of sines, so the
        transform's twist, T's power table and the Dirichlet kernel are
        never built."""
        tables = (trigpoly.numerator_frequencies, zeros._numerator_powers,
                  trigpoly._numerator_table, zeros._certificate_factors, zeros._grid_layout)
        unused = (trigpoly._twist, trigpoly._power_table, trigpoly._jet_plan)
        for table in tables + unused:
            table.cache_clear()
        kernel, builds = trigpoly.dirichlet_pairs, []
        monkeypatch.setattr(trigpoly, "dirichlet_pairs",
                            lambda m, ell, *rest: builds.append((m, ell)) or kernel(m, ell, *rest))
        config = ExperimentConfig(kind="trig", dep="periodic", ell=3, degrees=(100,),
                                  trials=12, master_seed=7, grid_per_degree=2)
        run_experiment(config)
        for table in tables:
            info = table.cache_info()
            assert info.misses == info.currsize, table
        for table in tables[:3]:
            assert table.cache_info().misses == 1, table
        for table in tables:  # read in every trial
            assert table.cache_info().hits > 0, table
        for table in unused:
            assert table.cache_info().misses == 0, table
        assert builds == []
        assert _holds_table(decompose_degree(100, 3), 270, GRID_OFFSET)

    @pytest.mark.parametrize("kind, dep, ell, n", [
        ("trig", "iid", None, 100),
        ("cosine", "periodic", 3, 1199),  # r = 0: the phase route
        ("trig", "periodic", 5, 499),  # r = 0: the phase route
    ])
    def test_one_normalization_per_trial(self, monkeypatch, kind, dep, ell, n):
        """count_zeros normalizes the sample once, with the largest
        coefficient that the sampler handed over; its checks, the unit
        copy, its three grids, the local halvings and the root refinement
        reuse both.  The carrier phase of an r = 0 sample builds no
        reduced factor and normalizes only the ell coefficients of P."""
        calls = []
        for name in ("_peak", "_scaled"):
            original = getattr(models, name)

            def spy(a, b, *rest, name=name, original=original):
                calls.append((name, a.size))
                return original(a, b, *rest)

            monkeypatch.setattr(models, name, spy)
        init = trigpoly.ReducedSample.__init__

        def reduced(self, *args, **kwargs):
            calls.append(("ReducedSample", None))
            init(self, *args, **kwargs)

        monkeypatch.setattr(trigpoly.ReducedSample, "__init__", reduced)
        s = sample_coefficients(CoefficientModel(kind=kind, dep=dep, ell=ell), n, seed=42)
        count_zeros(s, grid_per_degree=3, want_roots=True)
        assert calls == [("_scaled", n + 1 if ell is None else ell)]


def _phi(m, ell, x):
    """phi_m(x) = sin(m ell x/2)/sin(ell x/2), the first of dirichlet_pair."""
    return dirichlet_pair(m, ell, x)[0]


def _numerator_size(sample, grid_per_degree):
    """The zero counter's grid size for the sample's lattice numerator W,
    of degree n + ell/2."""
    ell = sample.split.ell
    return zeros._grid_size(sample.n + ell / 2, grid_per_degree, ell)


def _table_layout(sample):
    """The layout of count_zeros' grid for the sample's lattice numerator W
    at 32 nodes a degree of W, twice the default."""
    return zeros._grid_layout(_numerator_size(sample, 32), False,
                              sample.split.ell % 2 == 1)


def _unit_sample(kind, ell, n, seed):
    model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
    return unit_sample(sample_coefficients(model, n, seed=models.mix64(40, n, seed)))


def _holds_table(split, columns, offset):
    """Whether the cache holds W's folded table of this key."""
    misses = trigpoly._numerator_table.cache_info().misses
    trigpoly._numerator_table(split, columns, offset)
    return trigpoly._numerator_table.cache_info().misses == misses


def _numerator_certificate(sample, layout, grid_max):
    """The zero counter's certificate of W for the unit sample."""
    return zeros._certificate(zeros._numerator_powers(sample.split),
                              trigpoly._NumeratorTerms.of(sample).d,
                              sample.n + sample.split.ell / 2, layout.size, grid_max, layout.gap,
                              sample.split.ell)


def _numerator_exact(sample, x, top):
    """W = 2 sin(ell x/2) T_n and its derivatives up to order top (rows) at
    x, by Leibniz's rule on the dense sum of T in np.longdouble: an oracle
    that shares nothing with W's own terms."""
    x = np.asarray(x, dtype=np.longdouble)
    j = np.arange(sample.n + 1, dtype=np.longdouble)
    a, b = sample.a.astype(np.longdouble), sample.b.astype(np.longdouble)
    angle = np.outer(x, j)
    cos, sin = np.cos(angle), np.sin(angle)
    t = [cos @ a + sin @ b, (cos * j) @ b - (sin * j) @ a,
         -(cos * j**2) @ a - (sin * j**2) @ b, (sin * j**3) @ a - (cos * j**3) @ b]
    ell = sample.split.ell
    half = ell * x / 2
    s = [2 * np.sin(half), ell * np.cos(half), -ell**2 / 2 * np.sin(half),
         -ell**3 / 4 * np.cos(half)]
    return np.array([sum(math.comb(k, i) * s[i] * t[k - i] for i in range(k + 1))
                     for k in range(top + 1)])


def _is_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


# a sample of the periods above 22: primes, powers of two and round numbers
_LARGE_ELLS = (23, 25, 31, 40, 47, 60, 64, 97, 100, 128, 150, 199, 256, 300)


class TestDirectionTable:
    """Periodic samples with r != 0 are counted from their lattice numerator
    W = 2 sin(ell x/2) T, whose values and slopes on the counter's grid come
    from a cached table of its ell classes on the first N/ell nodes, folded
    by the lattice shift (numerator_on_grid), and whose pointwise jet is
    its own sum of 2 ell sinusoids (numerator_jet)."""

    @staticmethod
    def _degrees(ell):
        """Degrees ell <= n <= 250 with r != 0, m = 1 with r = 1 included:
        ell, ell + 1, 2 ell, 3 ell, 11, 30, 60, 101 and 250."""
        return [n for n in sorted({ell, ell + 1, 2 * ell, 3 * ell, 11, 30, 60, 101, 250})
                if ell <= n <= 250 and ((n + 1) % ell or (n + 1) // ell < 2)]

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    @pytest.mark.parametrize("ell", [*range(2, 8), 22, 40, 100])
    def test_rows_lie_within_the_grid_bound(self, kind, ell):
        """Both rows of W's table lie within delta_grid (the certificate of
        W) of the np.longdouble sum of 2 sin(ell x/2) T at the float nodes,
        on the counter's grid at 32 nodes a degree (at most 0.12
        delta_grid when measured; 0.054 and 0.041 at ell = 40 and 100,
        where one seed a degree is drawn and the table's tally widens
        delta_grid at 100), and the table is built once and cached."""
        for n in self._degrees(ell):
            for seed in range(2 if ell <= 22 else 1):
                s = _unit_sample(kind, ell, n, seed)
                layout = _table_layout(s)
                assert layout.columns % ell == 0 and not layout.mirror
                trigpoly._numerator_table.cache_clear()
                rows = trigpoly.numerator_on_grid(s, layout.columns, layout.offset)
                assert trigpoly._numerator_table.cache_info().misses == 1
                assert _holds_table(s.split, layout.columns, layout.offset)
                cert = _numerator_certificate(s, layout, np.abs(rows[0]).max())
                exact = _numerator_exact(s, grid_nodes(layout.columns, layout.offset), 1)
                gap = np.abs(rows - exact).max(axis=1).astype(float)
                assert np.all(gap <= cert.delta_grid[:2]), (n, seed, gap / cert.delta_grid[:2])

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    @pytest.mark.parametrize("ell", [2, 3, 4, 7])
    def test_rows_at_chosen_nodes_are_the_grid_rows(self, kind, ell):
        """numerator_at_nodes reads W and W' at any of the grid's nodes from
        the same table, the products summed in another order: within
        delta_grid of the np.longdouble sum of 2 sin(ell x/2) T at those
        float nodes, and within 1e-13 of the grid rows relative to their
        largest value, at the ends of the lattice runs and inside them."""
        for n in self._degrees(ell):
            s = _unit_sample(kind, ell, n, 0)
            layout = _table_layout(s)
            N = layout.columns
            rows = trigpoly.numerator_on_grid(s, N, layout.offset)
            at = np.unique(np.concatenate([np.arange(0, N, N // ell), np.arange(N // ell - 1, N,
                                                                                N // ell),
                                           np.random.default_rng(n).integers(0, N, 40)]))
            got = trigpoly.numerator_at_nodes(s, N, layout.offset, at)
            assert got.shape == (2, at.size)
            scale = np.abs(rows).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - rows[:, at]) <= 1e-13 * scale), n
            cert = _numerator_certificate(s, layout, np.abs(rows[0]).max())
            exact = _numerator_exact(s, grid_nodes(N, layout.offset)[at], 1)
            gap = np.abs(got - exact).max(axis=1).astype(float)
            assert np.all(gap <= cert.delta_grid[:2]), (n, gap / cert.delta_grid[:2])

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    def test_table_tally_floors_the_transform_term(self, kind):
        """W's delta_grid takes the larger of the transform term and the
        table's tally 2 u (13 + 2.9 ell) sum_p |f_p|^k |d_p|.  On the
        counter's default grids the transform term is the larger at every
        ell <= 22, so delta_grid is the transform and node terms alone to
        the bit; at ell = 100 and 300 and n = ell the tally raises it."""
        for ell in (2, 7, 22, 100, 300):
            for n in (ell, 2 * ell + 1, 1000, 4000):
                if (n + 1) % ell == 0:
                    n += 1
                s = _unit_sample(kind, ell, n, 0)
                layout = zeros._grid_layout(_numerator_size(s, 16), False, ell % 2 == 1)
                args = (zeros._numerator_powers(s.split), trigpoly._NumeratorTerms.of(s).d,
                        n + ell / 2, layout.size, 1.0, layout.gap)
                table, plain = (zeros._certificate(*args, w).delta_grid for w in (ell, 0))
                assert np.all(table >= plain), (ell, n)
                if ell <= 22:
                    assert np.array_equal(table, plain), (ell, n)
                elif n == ell:
                    assert table[0] > plain[0], (ell, n)

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    def test_matches_a_long_double_sum(self, kind):
        """At n <= 60 both rows of W's table match 2 sin(ell x/2) T summed in
        np.longdouble at the route's own nodes t_k + 2 pi s/ell, the
        table's nodes shifted exactly, within a tenth of the node term
        16 u n^(k+1) sum |d_p| of delta_grid (n = n + ell/2, the degree of
        W; 0.07 measured), and at the float nodes themselves, where the
        certificate places the values, within a quarter of it (0.19
        measured; zeros: it covers the shifted nodes)."""
        pi = np.arccos(np.longdouble(-1))
        for ell in range(2, 8):
            for n in self._degrees(ell)[:-2]:
                for seed in range(2):
                    s = _unit_sample(kind, ell, n, seed)
                    layout = _table_layout(s)
                    float_nodes = grid_nodes(layout.columns, layout.offset)
                    table_nodes = trigpoly._table_nodes(layout.columns, layout.offset, ell)
                    shifted = (table_nodes.astype(np.longdouble)
                               + 2 * pi * np.arange(ell, dtype=np.longdouble)[:, None] / ell)
                    rows = trigpoly.numerator_on_grid(s, layout.columns, layout.offset)
                    node = zeros._certificate_factors(n + ell / 2, layout.size, layout.gap)[1][:2]
                    node = node * np.abs(trigpoly._NumeratorTerms.of(s).d).sum()
                    for x, share in ((shifted.ravel(), 0.1), (float_nodes, 0.25)):
                        err = np.abs(rows - _numerator_exact(s, x, 1)).max(axis=1).astype(float)
                        assert np.all(err <= share * node), (ell, n, seed, err / node)

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    @pytest.mark.parametrize("ell", [*range(2, 8), 22, 40, 100])
    def test_jet_lies_within_the_pointwise_bound(self, kind, ell):
        """numerator_jet, orders 0 to 3, lies within delta_point (the
        certificate of W) of the np.longdouble sum of 2 sin(ell x/2) T and
        its derivatives, at random points of the range the counter reads
        and at the lattice points 2 pi k/ell and 1e-16 ... 0.03 beside
        them, where W needs no window (at most 0.09 delta_point when
        measured)."""
        rng = np.random.default_rng(ell)
        lattice = 2 * np.pi * np.arange(ell + 1) / ell
        offsets = np.concatenate([[0.0], 10.0 ** np.arange(-16.0, -1.0, 0.5)])
        beside = (lattice[:, None] + np.concatenate([offsets, -offsets])).ravel()
        points = np.concatenate([rng.uniform(-0.001, 2 * np.pi + 0.001, 200), beside])
        for n in self._degrees(ell)[:-2]:
            for seed in range(2):
                s = _unit_sample(kind, ell, n, seed)
                layout = _table_layout(s)
                rows = trigpoly.numerator_on_grid(s, layout.columns, layout.offset)
                cert = _numerator_certificate(s, layout, np.abs(rows[0]).max())
                jet = trigpoly.numerator_jet(s, points)
                err = np.abs(jet - _numerator_exact(s, points, 3)).max(axis=1).astype(float)
                assert np.all(err <= cert.delta_point), (n, seed, err / cert.delta_point)

    def test_counts_equal_counting_t(self):
        """Over 320 periodic trials, trig and cosine, ell = 2..7, 12, 15 and
        22 (m = 1 included), on fine and coarse grids, W's count (count,
        stable flag) is T's wherever that is stable, T counted as an
        i.i.d. sample of the same coefficients on twice the nodes a degree
        where m >= 2; W's root count is its count, and every root is within
        tol of T's root.  Each degree builds one table."""
        cases = [("trig", 2, 40, 16), ("trig", 3, 100, 16), ("trig", 4, 61, 16),
                 ("trig", 5, 101, 2), ("trig", 7, 80, 16), ("trig", 3, 400, 2),
                 ("cosine", 2, 42, 16), ("cosine", 3, 100, 16), ("cosine", 5, 101, 16),
                 ("cosine", 6, 200, 16), ("trig", 12, 12, 16), ("cosine", 12, 60, 16),
                 ("trig", 15, 101, 16), ("cosine", 15, 20, 16), ("trig", 22, 30, 16),
                 ("cosine", 22, 101, 16)]
        trials = 0
        for kind, ell, n, gpd in cases:
            model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
            trigpoly._numerator_table.cache_clear()
            for t in range(20):
                s = sample_coefficients(model, n, seed=models.mix64(41, n, t))
                got = count_zeros(s, grid_per_degree=gpd, want_roots=True, tol=1e-12)
                assert got.grid_size == _numerator_size(s, gpd), (kind, ell, n)
                iid = dataclasses.replace(s, model=CoefficientModel(kind=kind, dep="iid"))
                want = count_zeros(iid, grid_per_degree=gpd * min(s.split.m, 2), want_roots=True,
                                   tol=1e-12)
                assert got.roots.size == got.count and got.stable, (kind, n, t)
                if want.stable:
                    assert (got.count, got.stable) == (want.count, want.stable), (kind, n, t)
                    assert np.abs(got.roots - want.roots).max(initial=0.0) <= 1e-12
                trials += 1
            assert trigpoly._numerator_table.cache_info().misses == 1, (kind, ell, n)
        assert trials == 320

    def test_route_and_cache_budget(self, monkeypatch):
        """ell = 3 at n = 400 (N = 6480) and at n = 1600 (N = 25920) count W
        from its table, and so do n = 12000 (N = 194400, a table of
        6.2 MB) and n = 16500 (N = 270000, 8.6 MB), stably; i.i.d. n = 199
        (ell = 200 > n) counts T on its transform, and a periodic sample
        whose coefficients do not repeat is a ValueError.  Counting samples
        at several degrees leaves at most two tables in the cache, the
        latest, each of 32 N bytes, and a run that alternates two degrees
        builds each table once.  W's grid route itself: the carrier proof,
        which reads the table only for its windows left to the grid, is
        disabled."""
        monkeypatch.setattr(zeros, "_carrier_count", lambda *args: None)
        table = trigpoly._numerator_table
        periodic = CoefficientModel(kind="trig", dep="periodic", ell=3)
        table.cache_clear()
        for n, N in ((400, 6480), (1600, 25920)):
            assert count_zeros(sample_coefficients(periodic, n, seed=1)).grid_size == N
            assert _holds_table(decompose_degree(n, 3), N, GRID_OFFSET)
        assert table.cache_info().misses == 2
        for n in (400, 1600, 400, 1600):
            count_zeros(sample_coefficients(periodic, n, seed=2))
        assert table.cache_info().misses == 2
        assert _numerator_size(sample_coefficients(periodic, 12000, seed=2), 16) == 194400
        table.cache_clear()
        iid = sample_coefficients(CoefficientModel(kind="trig", dep="iid"), 199, seed=1)
        assert count_zeros(iid).grid_size == 3200
        s = sample_coefficients(periodic, 100, seed=2)
        a = s.a.copy()
        a[-1] += 1.0
        rigged = dataclasses.replace(s, a=a)
        assert not rigged.repeats
        with pytest.raises(ValueError, match="do not repeat with period ell=3"):
            count_zeros(rigged)
        assert table.cache_info().misses == 0
        for n in (100, 199, 301, 400, 499, 601, 1600, 199, 100):  # r != 0
            s = sample_coefficients(periodic, n, seed=3)
            columns = count_zeros(s).grid_size
            assert table.cache_info().currsize <= 2
            assert _holds_table(s.split, columns, GRID_OFFSET)
            assert table(s.split, columns, GRID_OFFSET).nbytes == 32 * columns
        big = sample_coefficients(periodic, 16500, seed=models.mix64(41, 16500, 0))
        report = count_zeros(big)
        assert (report.grid_size, report.stable) == (270000, True)
        assert _holds_table(big.split, 270000, GRID_OFFSET)

    def test_rotations_are_exact_at_half_and_quarter_turns(self):
        """(-1)^s omega^(qs) is 1, i, -1 or -i to the bit where 4 qs is a
        multiple of ell, and elsewhere within u of (-1)^s e^(2 pi i qs/ell)
        at ell <= 14 (0.77 u measured), within 1.3 u at ell = 15..22
        (1.27 u measured, at ell = 17) and within 1.8 u on a sample of
        ell = 23..300 (1.75 u measured); _rotations states 4.7 u."""
        pi = np.arccos(np.longdouble(-1))
        for ell in (*range(1, 23), *_LARGE_ELLS):
            rot = trigpoly._rotations(ell)
            s = np.arange(ell)[:, None]
            turns = (s * np.arange(ell)) % ell
            exact = np.array([1, 1j, -1, -1j])[(4 * turns // ell + 2 * s) % 4]
            quarter = 4 * turns % ell == 0
            assert np.array_equal(rot[quarter], exact[quarter]), ell
            angle = 2 * pi * turns / ell + pi * s
            want = np.cos(angle) + 1j * np.sin(angle)
            bound = 1.0 if ell <= 14 else 1.3 if ell <= 22 else 1.8
            assert np.abs(rot - want).max() <= bound * np.finfo(float).eps / 2, ell

    def test_shifted_nodes_lie_near_the_float_nodes(self):
        """The route's nodes t_k + 2 pi s/ell lie within 8.2 u of the float
        nodes of grid_nodes on the grids that W's rule sizes (whole circle,
        ell times a 5-smooth cofactor, at least 256 nodes) at ell = 2..22:
        each of the 2953 up to 65536 columns, and one larger grid per ell,
        2^17 to 2^21 columns, with 4.2e6 more at ell = 22 (8.14 u at most
        when measured, on every tenth grid up to 4.2e6 too; zeros: the
        node term covers the shift); and on a sample of ell = 23..300, the
        default grids of n = ell, 2 ell + 1, 1000, 4000, 12000 and 30000
        (7.58 u at most when measured).  Placing the table at the float nodes
        x_k themselves would miss by up to 13.8 u.  The distance is
        t_k - (x_(sK+k) - c_s) + (2 pi s/ell - c_s), c_s the double nearest
        2 pi s/ell: both differences of doubles are exact (Sterbenz's
        lemma), so only the last sum rounds.  At ell = 1 the table's nodes
        are the float nodes."""
        pi = np.arccos(np.longdouble(-1))
        u = np.finfo(float).eps / 2
        smooth = [k for k in range(1, 65537) if _is_smooth(k)]
        grids = [(ell, ell * k) for ell in range(2, 23) for k in smooth if 256 <= ell * k <= 65536]
        assert len(grids) == 2953
        grids += [(ell, ell * zeros.smooth_size(-(-(1 << (17 + ell % 5)) // ell)))
                  for ell in range(2, 23)]
        grids.append((22, 4224000))
        grids += [(ell, zeros._grid_size(n + ell / 2, 16, ell))
                  for ell in _LARGE_ELLS for n in (ell, 2 * ell + 1, 1000, 4000, 12000, 30000)]
        worst = 0.0
        for ell, columns in grids:
            turns = 2 * pi * np.arange(ell, dtype=np.longdouble) / ell
            near = turns.astype(float)
            x = grid_nodes(columns, GRID_OFFSET).reshape(ell, -1) - near[:, None]
            t = trigpoly._table_nodes(columns, GRID_OFFSET, ell)
            gap = (t - x) + (turns - near).astype(float)[:, None]
            worst = max(worst, np.abs(gap).max() / u)
        assert worst <= 8.2, worst
        for columns in (256, 1000, 262144):
            x = grid_nodes(columns, GRID_OFFSET)
            assert np.array_equal(trigpoly._table_nodes(columns, GRID_OFFSET, 1), x)

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    def test_grid_size_rule(self, kind):
        """A periodic sample with r != 0 counts W on the whole circle, on
        the smallest multiple N of ell with a 5-smooth cofactor at or above
        max(256, grid_per_degree (n + ell/2)), W's degree being n + ell/2;
        one with r = 0 and m = 1 (ell = n + 1), like an i.i.d. one, counts
        T on T's 5-smooth rule (a multiple of 4 on a cosine sample's half
        circle) at grid_per_degree nodes a degree.  A periodic sample whose
        coefficients do not repeat is a ValueError."""
        mirror = kind == "cosine"
        served = kept = 0
        for ell in (*range(2, 8), 22, 23, 30):
            model = CoefficientModel(kind=kind, dep="periodic", ell=ell)
            for n in (ell - 1, ell, 2 * ell, 37, 101, 400, 1600, 2100, 4001, 16001):
                if (n + 1) % ell == 0 and n >= ell:
                    continue  # r = 0 with m >= 2: the phase route
                s = sample_coefficients(model, n, seed=5)
                if n >= ell:  # n = ell - 1 repeats nothing
                    rigged = dataclasses.replace(s, a=s.a + np.arange(n + 1))
                    with pytest.raises(ValueError, match=f"do not repeat with period ell={ell}"):
                        count_zeros(rigged)
                numerator = s.split.r != 0
                for gpd in (1, 4, 32):
                    if n <= 400:  # the count itself; above, the rules it applies
                        N = count_zeros(s, grid_per_degree=gpd).grid_size
                    elif numerator:
                        N = _numerator_size(s, gpd)
                    else:
                        N = zeros._grid_size(n, gpd, 4 if mirror else 1)
                    if not numerator:
                        least = max(256, gpd * n)
                        assert N == (4 * zeros.smooth_size(-(-least // 4)) if mirror
                                     else zeros.smooth_size(least)), (ell, n, gpd)
                        kept += 1
                        continue
                    served += 1
                    least = max(256, -(-gpd * (2 * n + ell) // 2))
                    assert N >= least and N % ell == 0 and _is_smooth(N // ell), (ell, n, gpd)
                    assert not any(_is_smooth(k) for k in range(-(-least // ell), N // ell))
        assert served > 40 and kept == 27
        iid = sample_coefficients(CoefficientModel(kind=kind, dep="iid"), 199, seed=5)
        assert count_zeros(iid).grid_size == 3200

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    def test_rows_scale_back_by_the_exponent(self, kind):
        """numerator_on_grid and numerator_jet read a record of exponent e as
        2^e times its exponent-0 record, the one the zero counter passes: at
        sigma = 2^40 both functions' rows are ldexp of the exponent-0 rows,
        bit for bit, and the exponent-0 record is that of sigma = 1."""
        n, seed = 400, models.mix64(40, 400, 0)
        model = CoefficientModel(kind=kind, dep="periodic", ell=3, sigma=2.0 ** 40)
        sample = sample_coefficients(model, n, seed=seed)
        terms = trigpoly._NumeratorTerms.of(sample)
        unit = trigpoly._NumeratorTerms(terms.split, terms.c)
        one = trigpoly._NumeratorTerms.of(
            sample_coefficients(dataclasses.replace(model, sigma=1.0), n, seed=seed))
        assert np.array_equal(terms.c, one.c) and terms.e == one.e + 40
        layout = _table_layout(sample)
        x = grid_nodes(97, 0.3)
        for rows, plain in (
                (trigpoly.numerator_on_grid(record, layout.columns, layout.offset)
                 for record in (terms, unit)),
                (trigpoly.numerator_jet(record, x, 3) for record in (terms, unit))):
            assert np.array_equal(rows, np.ldexp(plain, terms.e))


class TestDirichletRatio:
    def test_value_at_origin_is_m(self):
        assert _phi(7, 3, 0.0) == pytest.approx(7.0, abs=1e-12)

    def test_lattice_limits_alternate_sign(self):
        # phi_m(2 k pi / ell) = (-1)^(k(m-1)) m
        assert _phi(4, 3, 2 * np.pi / 3) == pytest.approx(-4.0, abs=1e-9)
        assert _phi(5, 3, 2 * np.pi / 3) == pytest.approx(5.0, abs=1e-9)
        assert _phi(4, 3, 4 * np.pi / 3) == pytest.approx(4.0, abs=1e-9)

    def test_quotient_identity_away_from_lattice(self):
        """phi_m * sin(ell x/2) = sin(m ell x/2) wherever both sides live."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 40))
            ell = int(rng.integers(1, 8))
            x = float(rng.uniform(0.05, 2 * np.pi - 0.05))
            if abs(math.sin(ell * x / 2)) < 1e-3:
                continue
            lhs = _phi(m, ell, x) * math.sin(ell * x / 2)
            assert lhs == pytest.approx(math.sin(m * ell * x / 2), abs=1e-10 * m)

    def test_window_is_continuous(self):
        x0 = 2 * np.pi / 5
        for delta in (1e-12, 1e-10, 1e-9):
            assert _phi(9, 5, x0 + delta) == pytest.approx(_phi(9, 5, x0), abs=1e-6)

    def test_zero_count_in_full_period(self):
        """phi_m has ell(m-1) zeros in (0, 2 pi): the deterministic set."""
        m, ell = 6, 4
        xs = np.linspace(1e-4, 2 * np.pi - 1e-4, 200_001)
        vals = _phi(m, ell, xs)
        changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        assert changes == ell * (m - 1)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(32)
        h = 1e-7
        for _ in range(50):
            m = int(rng.integers(2, 30))
            ell = int(rng.integers(1, 7))
            x = float(rng.uniform(0.1, 2 * np.pi - 0.1))
            fd = (_phi(m, ell, x + h) - _phi(m, ell, x - h)) / (2 * h)
            tol = 1e-4 * max(1.0, m * m * ell)
            assert abs(dirichlet_pair(m, ell, x)[1] - fd) < tol

    def test_derivative_vanishes_at_lattice(self):
        assert dirichlet_pair(8, 3, 2 * np.pi / 3)[1] == pytest.approx(0.0, abs=1e-9)

    @staticmethod
    def _lattice_and_window_points(ell, rng):
        """Random points plus the lattice and offsets 1e-16 ... 0.03 beside it."""
        lattice = 2 * np.pi * np.arange(-1, ell + 2) / ell
        offsets = np.concatenate([[0.0], 10.0 ** np.arange(-16.0, -1.0, 0.5)])
        beside = (lattice[:, None] + np.concatenate([offsets, -offsets])).ravel()
        return np.concatenate([rng.uniform(-1.0, 7.0, 2000), beside])

    @staticmethod
    def _across_the_lattice(m, ell):
        """Array points beside every lattice point, at both parities of k,
        through and beyond the window: random offsets, 10^(-12...-5), and
        3e-9...6.3e-9, where the quotient form of phi_m' cancels."""
        rng = np.random.default_rng(33)
        lattice = 2 * np.pi * np.arange(-1, ell + 2) / ell
        x = (lattice[:, None] + rng.uniform(-0.3, 0.3, (lattice.size, 40))
             / (m * ell)).ravel()
        offsets = np.concatenate([10.0 ** np.arange(-12.0, -4.9, 0.25),
                                  np.linspace(3e-9, 6.3e-9, 12)])
        beside = (lattice[:, None] + np.concatenate([offsets, -offsets])).ravel()
        return np.concatenate([x, lattice + 1e-9, lattice - 3e-10, beside])

    @staticmethod
    def _assert_pair_matches_literal_sums(m, ell, x, phi, phid):
        """Central differences of phi_m, and literal sums in long double."""
        h = 1e-6
        fd = (_phi(m, ell, x + h) - _phi(m, ell, x - h)) / (2 * h)
        assert np.abs(phid - fd).max() < 1e-9 * m**3 * ell
        # phi_m = sum_t cos(nu_t ell x/2), nu_t = m-1-2t, differentiated termwise
        nu = (m - 1 - 2 * np.arange(m)).astype(np.longdouble) * ell / 2
        angles = np.outer(x.astype(np.longdouble), nu)
        assert np.abs(phi - np.cos(angles).sum(axis=1).astype(float)).max() < 1e-11 * m
        literal = -(nu * np.sin(angles)).sum(axis=1)
        assert np.abs(phid - literal.astype(float)).max() < 1e-12 * m**3 * ell

    @pytest.mark.parametrize("m,ell", [(2, 1), (2, 7), (7, 3), (100, 3), (81, 5), (12, 7)])
    def test_pair_derivative_across_the_lattice(self, m, ell):
        """The pair against central differences and long-double literal
        sums across the lattice (m = 2, ell = 7 lost 1.6e-9 m^3 ell to the
        quotient form at 3e-9...6.3e-9)."""
        x = self._across_the_lattice(m, ell)
        self._assert_pair_matches_literal_sums(m, ell, x, *dirichlet_pair(m, ell, x))

    @pytest.mark.parametrize("m,ell", [(1, 3), (2, 1), (2, 7), (7, 3), (100, 3), (81, 5), (12, 7)])
    def test_consecutive_orders_share_one_reduction(self, m, ell):
        """dirichlet_pairs(m, ell, x, 2): order m is dirichlet_pair to the
        bit.  Order m+1 takes sin((m+1)s) and cos((m+1)s) from one
        angle-addition step, so it differs from its own dirichlet_pair call
        only by the rounding of the numerators: at most 8u (1 + M|s|) each,
        divided by |sin s| for phi_M and by sin(s)^2 / (ell/2 (1 + M|sin s|))
        for phi_M', with u = 2^-53 and s the reduced argument.  It meets the
        literal sums with the tolerances of dirichlet_pair itself."""
        x = np.concatenate([self._across_the_lattice(m + 1, ell),
                            self._lattice_and_window_points(ell, np.random.default_rng(m))])
        low, high = dirichlet_pairs(m, ell, x, 2)
        for got, want in zip(low, dirichlet_pair(m, ell, x)):
            assert np.array_equal(got, want)
        M = m + 1
        k = np.rint(x * ell / (2 * np.pi))
        s = 0.5 * ell * (x - k * (2 * np.pi / ell))
        sin_s = np.maximum(np.abs(np.sin(s)), 1e-150)
        bound = 8 * (np.finfo(float).eps / 2) * (1 + M * np.abs(s))
        phi, phid = dirichlet_pair(M, ell, x)
        assert np.all(np.abs(high[0] - phi) <= bound / sin_s)
        assert np.all(np.abs(high[1] - phid)
                      <= bound * 0.5 * ell * (1 + M * sin_s) / sin_s**2)
        self._assert_pair_matches_literal_sums(M, ell, x, *high)

    def test_pair_at_m_one_is_exactly_one_and_zero(self):
        for ell in (1, 2, 5):
            x = self._lattice_and_window_points(ell, np.random.default_rng(ell))
            phi, phid = dirichlet_pair(1, ell, x)
            assert np.array_equal(phi, np.ones_like(x))
            assert np.array_equal(phid, np.zeros_like(x))

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("M", [101, 4001, 12001])
    def test_series_switch_at_large_order(self, M, ell):
        """Beside the lattice points 0 and 2 pi/ell, at M|s| = 0.05 (0.5,
        1 - 1e-6, 1, 1 + 1e-6, 1.5, 3) on both sides, the pair meets the
        long-double literal sums whether its series or its quotients
        served the node; and either side of the switch at M|s| = 0.05
        (1 -+ 1e-12) the two forms agree: phi to 1e-14 M, phi' to 1e-11 of
        itself (about 2e-15 M and 2e-12 when written)."""
        window = trigpoly._PAIR_SERIES_WINDOW
        lattice = 2 * np.pi * np.array([0.0, 1.0]) / ell
        fractions = np.array([0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 1.5, 3.0])
        s = window * np.concatenate([fractions, -fractions]) / M
        x = (lattice[:, None] + 2 * s / ell).ravel()
        self._assert_pair_matches_literal_sums(M, ell, x, *dirichlet_pair(M, ell, x))
        s = window * np.array([1 - 1e-12, 1 + 1e-12, -1 + 1e-12, -1 - 1e-12]) / M
        phi, phid = dirichlet_pair(M, ell, (lattice[:, None] + 2 * s / ell).ravel())
        phi, phid = phi.reshape(-1, 2), phid.reshape(-1, 2)
        assert np.abs(phi[:, 0] - phi[:, 1]).max() < 1e-14 * M
        assert np.all(np.abs(phid[:, 0] - phid[:, 1]) < 1e-11 * np.abs(phid[:, 0]))


def _per_node_pairs(m, ell, x, orders):
    """The per-node reduction that dirichlet_pairs replaced, kept as the
    reference of plain arrays: k and s = ell t/2 at every node, 4 sines and
    cosines per node, one angle-addition step per order past m."""
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
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = sin_ms / sin_s
            slope = 0.5 * ell * (M * cos_ms * sin_s - sin_ms * cos_s) / (sin_s**2)
        series = np.abs(s) < trigpoly._PAIR_SERIES_WINDOW / M
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
    return pairs


class TestPlainArrays:
    """A plain array is a block of one-node panels (PanelNodes.of): its node
    phases are exactly (1, 0), so dirichlet_pairs is the per-node reduction
    to the bit, signs of zero included."""

    @pytest.mark.parametrize("m,ell", [(1, 3), (2, 1), (2, 7), (7, 3), (100, 3), (81, 5),
                                       (333, 3), (401, 1)])
    def test_equal_to_the_per_node_reduction(self, m, ell):
        rng = np.random.default_rng(m * ell)
        x = np.concatenate([TestDirichletRatio._across_the_lattice(m + 1, ell),
                            TestDirichletRatio._lattice_and_window_points(ell, rng)])
        for orders in (1, 2):
            got = dirichlet_pairs(m, ell, x, orders)
            want = _per_node_pairs(m, ell, x, orders)
            for (phi, slope), (phi_want, slope_want) in zip(got, want, strict=True):
                assert phi.tobytes() == phi_want.tobytes()
                assert slope.tobytes() == slope_want.tobytes()

    def test_shapes_and_scalars(self):
        x = np.linspace(0.1, 6.0, 12).reshape(3, 4)
        phi, slope = dirichlet_pair(5, 3, x)
        assert phi.shape == slope.shape == (3, 4)
        assert phi.tobytes() == _per_node_pairs(5, 3, x.ravel(), 1)[0][0].tobytes()
        value = dirichlet_pair(5, 3, 0.7)
        assert isinstance(value[0], float) and isinstance(value[1], float)
        assert value == tuple(float(v[0]) for v in _per_node_pairs(5, 3, 0.7, 1)[0])

    def test_panel_nodes_moved_beside_the_kernel(self):
        from trigzeros import kacrice

        assert kacrice.PanelNodes is trigpoly.PanelNodes


def _address(a):
    return a.__array_interface__["data"][0]


def _pool():
    """The buffers of the active scratch scope's pool (sentinel left out)."""
    return trigpoly._SCRATCH.get()[1:]


class TestScratch:
    """A pool buffer is handed out again only once no array refers to it;
    outside a scope every array is fresh, and a nested scope has a pool of
    its own."""

    def test_buffer_returns_when_its_last_view_is_gone(self):
        with scratch_scope():
            a, b = scratch(5), scratch(8)
            assert a.shape == (5,) and b.shape == (8,)
            assert not np.shares_memory(a, b)
            first = _address(a)
            view = a[1:3]
            del a
            c = scratch(5)  # the view keeps a's buffer
            assert not np.shares_memory(c, view) and not np.shares_memory(c, b)
            del view, c
            assert _address(scratch(4)) == first

    def test_complex_parts_keep_their_buffer(self):
        with scratch_scope():
            phase = scratch(6, complex)
            first = _address(phase)
            real = phase.real
            del phase
            other = scratch(6, complex)
            assert not np.shares_memory(real, other)
            floats = scratch(6)
            assert floats.dtype == np.float64 and not np.shares_memory(floats, other)
            del real
            again = scratch(3, complex)
            assert again.dtype == np.complex128 and _address(again) == first

    def test_idle_buffer_too_small_is_replaced(self):
        """A request larger than the idle buffer replaces it, so the pool
        keeps one buffer, of the larger size."""
        with scratch_scope():
            scratch(4)  # dropped at once: idle
            assert [buf.size for buf in _pool()] == [4]
            big = scratch(9)
            assert big.size == 9 and [buf.size for buf in _pool()] == [9]

    def test_outside_a_scope_every_array_is_fresh(self):
        assert trigpoly._SCRATCH.get() is None
        a = scratch(5)
        assert a.base is None and a.flags.owndata
        with scratch_scope():
            pass
        b = scratch(5, complex)
        assert b.base is None and b.dtype == np.complex128

    def test_nested_scope_restores_the_outer_pool(self):
        with scratch_scope():
            outer = _address(scratch(6))
            pool = trigpoly._SCRATCH.get()
            with scratch_scope():
                inner = scratch(6)
                assert trigpoly._SCRATCH.get() is not pool
                assert _address(inner) != outer
            assert trigpoly._SCRATCH.get() is pool
            assert _address(scratch(6)) == outer

    def test_a_thread_starts_outside_any_scope(self):
        seen = []
        with scratch_scope():
            thread = threading.Thread(target=lambda: seen.append(trigpoly._SCRATCH.get()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_block_arrays_equal_fresh_arrays(self):
        """A block's arrays come from the pool in a scope, share no memory
        with an array held there, and equal those of a block outside one."""
        block = PanelNodes(np.array([0.5, 1.5]), 0.25, np.array([-0.5, 0.5]))
        fresh = block.cis(3.0)
        with scratch_scope():
            for held in [scratch(4, complex) for _ in range(2)]:
                held.fill(np.nan)
            held = block.empty()
            cos, sin = block.cis(3.0)
            assert held.shape == cos.shape == (4,)
            assert not np.shares_memory(held, cos)
            assert any(np.shares_memory(cos, buf) for buf in _pool())
            assert np.array_equal(fresh[0], cos) and np.array_equal(fresh[1], sin)


class TestTrigSums:
    """sum_t f((k + ell t)x) = phi_m(x) f((k + (m-1) ell/2) x) for f = cos, sin,
    checked against literal sums; with ell = 2p this is the sum over the
    frequencies 2pt + k that the periodic covariance kernels group."""

    @staticmethod
    def _closed(term, m, ell, k, x):
        return _phi(m, ell, x) * term((k + (m - 1) * ell / 2.0) * x)

    @staticmethod
    def _literal(term, m, ell, k, x):
        return math.fsum(term((k + ell * t) * x) for t in range(m))

    def _random_real_offsets(self, term, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            m = int(rng.integers(1, 21))
            p = int(rng.integers(1, 21))
            k = float(rng.uniform(-30, 30))
            x = float(rng.uniform(0, 2 * np.pi))
            lit = self._literal(term, m, 2 * p, k, x)
            assert abs(self._closed(term, m, 2 * p, k, x) - lit) <= 1e-11 * m

    def test_cos_sum_against_literal(self):
        self._random_real_offsets(math.cos, 41)

    def test_sin_sum_against_literal(self):
        self._random_real_offsets(math.sin, 42)

    def test_near_lattice_falls_back_to_literal(self):
        # x on or just beside a zero of sin(px), where the quotient form
        # sin(mpx)/sin(px) cancels catastrophically
        cases = [
            (math.cos, 7, 10, 1.25, 0.0),
            (math.cos, 7, 10, 1.25, np.pi / 5),
            (math.cos, 7, 10, 1.25, 2 * np.pi / 5 + 1e-13),
            (math.cos, 20, 40, 0.0, math.pi * 39 / 20 + 1e-7),
            (math.sin, 7, 10, 1.25, 2 * math.pi / 5 + 1e-7),
        ]
        for term, m, ell, k, x in cases:
            lit = self._literal(term, m, ell, k, x)
            assert abs(self._closed(term, m, ell, k, x) - lit) <= 1e-11 * m, (m, ell, k, x)

    def test_grouped_residue_class_identity(self):
        """sum_t cos((k + ell t)x) = phi_m(x) cos((k + (m-1) ell/2) x)."""
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = int(rng.integers(1, 25))
            ell = int(rng.integers(1, 7))
            k = int(rng.integers(0, ell))
            x = float(rng.uniform(0.0, 2 * np.pi))
            lit = self._literal(math.cos, m, ell, k, x)
            assert abs(lit - self._closed(math.cos, m, ell, k, x)) <= 1e-10 * m


class TestUEll:
    """The kernel u_ell(x) = sin(ell x)/(ell sin x) of the constant K is
    phi_ell/ell at period 2, with removable singularities at multiples of
    pi: u_ell -> 1 at even ones and (-1)^(ell+1) at odd ones."""

    @staticmethod
    def _u(ell, x):
        return _phi(ell, 2, x) / ell

    def test_ell_one_is_identity(self):
        xs = np.linspace(-5, 5, 41)
        assert np.allclose(self._u(1, xs), 1.0, atol=1e-12)

    def test_interior_bound(self):
        xs = np.linspace(1e-6, 2 * np.pi - 1e-6, 100_000)
        for ell in range(1, 9):
            assert np.abs(self._u(ell, xs)).max() <= 1.0 + 1e-12

    def test_known_values(self):
        assert self._u(2, np.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert self._u(3, np.pi) == pytest.approx(1.0, abs=1e-9)   # (-1)^(ell+1)
        assert self._u(4, np.pi) == pytest.approx(-1.0, abs=1e-9)
        assert self._u(6, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_even_function(self):
        xs = np.linspace(0.01, 3.0, 50)
        assert np.allclose(self._u(5, xs), self._u(5, -xs), atol=1e-12)


class TestReducePeriodic:
    def test_half_integer_frequencies(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=3)
        s = sample_coefficients(model, 11, seed=2)  # m = 4
        red = reduce_periodic(s)
        assert list(red.frequencies()) == [4.5, 5.5, 6.5]
        assert list(red.freq_twice) == [9, 11, 13]

    def test_factor_identity_random_points(self):
        """T_n = phi_m * T* at 100 random abscissae, both kinds."""
        rng = np.random.default_rng(51)
        for kind in ("trig", "cosine"):
            model = CoefficientModel(kind=kind, dep="periodic", ell=4)
            s = sample_coefficients(model, 59, seed=6)  # m = 15, r = 0
            red = reduce_periodic(s)
            scale = np.abs(s.a).sum() + np.abs(s.b).sum()
            xs = rng.uniform(0, 2 * np.pi, 100)
            lhs = evaluate(s, xs)
            rhs = _phi(red.m, red.ell, xs) * red.evaluate(xs)
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale * red.m

    def test_derivative_of_reduced_factor(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=2)
        s = sample_coefficients(model, 19, seed=7)
        red = reduce_periodic(s)
        h = 1e-6
        for x in (0.9, 2.3, 4.1):
            fd = (red.evaluate(x + h) - red.evaluate(x - h)) / (2 * h)
            assert reduced_derivative(red, x) == pytest.approx(fd, abs=1e-3)

    def test_rejects_nonzero_remainder(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=3)
        s = sample_coefficients(model, 12, seed=1)  # n+1 = 13, r = 1
        with pytest.raises(ValueError):
            reduce_periodic(s)

    def test_rejects_iid(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 11, seed=1)
        with pytest.raises(ValueError):
            reduce_periodic(s)
