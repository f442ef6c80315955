"""Coefficient-model tests: degree decomposition, seeding, periodic copies."""

import dataclasses
import re
import threading
import warnings

import numpy as np
import pytest

from trigzeros import harness, models
from trigzeros.models import (
    CoefficientModel,
    decompose_degree,
    mix64,
    sample_coefficients,
    splitmix64,
    validate_model,
)
from trigzeros.zeros import count_zeros, deterministic_zero_set


class TestDecomposeDegree:
    def test_divisible_case(self):
        d = decompose_degree(299, 3)
        assert (d.m, d.r) == (100, 0)

    def test_remainder_case(self):
        d = decompose_degree(300, 2)
        assert (d.m, d.r) == (150, 1)

    def test_ell_one_always_divides(self):
        d = decompose_degree(5, 1)
        assert (d.m, d.r) == (6, 0)

    def test_reconstruction_property(self):
        """n = ell*m - 1 + r with 0 <= r < ell for random (n, ell)."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            ell = int(rng.integers(1, 12))
            n = int(rng.integers(max(1, ell - 1), 2000))
            d = decompose_degree(n, ell)
            assert d.ell * d.m - 1 + d.r == n
            assert 0 <= d.r < d.ell
            assert d.m >= 1
            assert (d.r == 0) == ((n + 1) % ell == 0)

    def test_rejects_degree_below_one_period(self):
        with pytest.raises(ValueError):
            decompose_degree(3, 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decompose_degree(10, 0)
        with pytest.raises(ValueError):
            decompose_degree(0, 1)

    @pytest.mark.parametrize("n", [100.5, 100.0, np.float64(101)])
    def test_rejects_non_integral_degrees(self, n):
        """A degree that is not an integer is a ValueError that names it,
        at decompose_degree, the sampler and an experiment config, for the
        periodic model and the i.i.d. one (whose split against ell = n + 1
        names the degree, not ell).  Let through, 100.5 would split as
        m = 33.0, r = 2.5, draw n = 100 entries and count W on the grid of
        n = 100.5.  An integer of numpy's is a degree."""
        message = f"^degree must be an integer, got n={re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            decompose_degree(n, 3)
        for dep, ell in (("periodic", 3), ("iid", None)):
            with pytest.raises(ValueError, match=message):
                sample_coefficients(CoefficientModel(kind="trig", dep=dep, ell=ell), n, seed=1)
            with pytest.raises(ValueError, match=message):
                harness.ExperimentConfig(dep=dep, ell=ell, degrees=(n,), trials=3)
        assert decompose_degree(np.int64(101), 3) == decompose_degree(101, 3)

    def test_rejects_non_integer_periods_with_value_error(self):
        """A float, a list or a 0-d array as ell is a ValueError, never a
        TypeError (say, from hashing it for a cache)."""
        for ell in (3.0, [3], np.array(3)):
            with pytest.raises(ValueError, match="period must be an integer"):
                decompose_degree(10, ell)

    def test_factors_only_with_a_repeated_full_period(self):
        assert decompose_degree(299, 3).factors  # r = 0, m = 100
        assert decompose_degree(5, 1).factors  # ell = 1: m = n + 1 >= 2
        assert not decompose_degree(4, 5).factors  # r = 0, m = 1
        assert not decompose_degree(12, 7).factors  # r = 6, m = 1
        assert not decompose_degree(300, 2).factors  # r = 1

    def test_deterministic_zeros_is_the_size_of_the_zero_set(self):
        """ell(m-1) when r = 0 (m = 1 and ell = 1 included), 0 when r != 0."""
        for ell in range(1, 8):
            for n in range(max(1, ell - 1), 61):
                dec = decompose_degree(n, ell)
                expected = deterministic_zero_set(dec.m, ell).size if dec.r == 0 else 0
                assert dec.deterministic_zeros == expected, (ell, n)
        assert decompose_degree(299, 3).deterministic_zeros == 297
        assert decompose_degree(300, 3).deterministic_zeros == 0

    def test_directions_against_literal_enumeration(self):
        """M_k counts the frequencies j <= n with j = k mod ell, and
        freq_twice[k]/2 is their mean."""
        for ell in range(1, 8):
            for n in range(max(1, ell - 1), 61):
                M, twice = decompose_degree(n, ell).directions()
                assert M.dtype == twice.dtype == np.int64
                assert M.shape == twice.shape == (ell,)
                for k in range(ell):
                    freqs = [j for j in range(n + 1) if j % ell == k]
                    assert M[k] == len(freqs), (ell, n, k)
                    assert twice[k] * len(freqs) == 2 * sum(freqs), (ell, n, k)


class TestValidateModel:
    @pytest.mark.parametrize("fields", [
        dict(kind="poly", dep="iid"), dict(kind="trig", dep="markov"),
        dict(kind="trig", dep="periodic"), dict(kind="cosine", dep="periodic", ell=0),
        dict(kind="trig", dep="iid", ell=3), dict(kind="trig", dep="iid", sigma=0.0),
        dict(kind="trig", dep="iid", sigma=float("nan")),
    ])
    def test_invalid_model_cannot_be_built(self, fields):
        """Construction runs validate_model, so no sampler, counter or
        quadrature ever sees an incoherent model."""
        with pytest.raises(ValueError):
            CoefficientModel(**fields)

    def test_accepts_iid_trig(self):
        m = CoefficientModel(kind="trig", dep="iid")
        assert validate_model(m) is m

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            validate_model(CoefficientModel(kind="poly", dep="iid"))

    def test_rejects_unknown_dependence(self):
        with pytest.raises(ValueError):
            validate_model(CoefficientModel(kind="trig", dep="markov"))

    def test_periodic_requires_period(self):
        with pytest.raises(ValueError):
            validate_model(CoefficientModel(kind="trig", dep="periodic"))

    @pytest.mark.parametrize("ell", [3.0, 2.5])
    def test_rejects_non_integral_period(self, ell):
        """A float period is refused wherever it enters, with ValueError:
        building a model (directly or by dataclasses.replace) or an
        experiment config, and decompose_degree.  No model that carries
        one can be built, so no sampler, counter or quadrature sees it."""
        with pytest.raises(ValueError, match="period must be an integer"):
            CoefficientModel(kind="trig", dep="periodic", ell=ell)
        good = CoefficientModel(kind="trig", dep="periodic", ell=3)
        with pytest.raises(ValueError, match="period must be an integer"):
            dataclasses.replace(good, ell=ell)
        with pytest.raises(ValueError, match="period must be an integer"):
            harness.ExperimentConfig(dep="periodic", ell=ell, degrees=(11,))
        with pytest.raises(ValueError, match="period must be an integer"):
            decompose_degree(11, ell)

    def test_accepts_numpy_integer_period(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=np.int64(3))
        assert validate_model(model) is model
        assert decompose_degree(11, np.int64(3)).factors

    @pytest.mark.parametrize("kind", ["trig", "cosine"])
    def test_period_of_iid_is_vacuous(self, kind):
        """period(n) splits i.i.d. against ell = n + 1 (m = 1, r = 0) and a
        periodic model against its ell; the periodic model with ell = n + 1
        draws the i.i.d. sample bit for bit."""
        iid = CoefficientModel(kind=kind, dep="iid")
        for n in (1, 2, 12, 199):
            assert iid.period(n) == decompose_degree(n, n + 1)
            assert (iid.period(n).m, iid.period(n).r) == (1, 0)
            periodic = CoefficientModel(kind=kind, dep="periodic", ell=n + 1)
            assert periodic.period(n) == iid.period(n)
            a, b = (sample_coefficients(model, n, seed=5) for model in (iid, periodic))
            assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)
        assert CoefficientModel(kind=kind, dep="periodic", ell=3).period(299) == \
            decompose_degree(299, 3)
        with pytest.raises(ValueError):
            iid.period(0)

    def test_iid_must_not_carry_period(self):
        with pytest.raises(ValueError):
            validate_model(CoefficientModel(kind="trig", dep="iid", ell=3))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            validate_model(CoefficientModel(kind="trig", dep="iid", sigma=0.0))
        with pytest.raises(ValueError):
            validate_model(CoefficientModel(kind="trig", dep="iid", sigma=-1.0))


class TestMixing:
    def test_splitmix64_known_value(self):
        # first output of the reference splitmix64 stream seeded at 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_splitmix64_range(self):
        for k in range(50):
            v = splitmix64(k)
            assert 0 <= v < (1 << 64)

    def test_mix64_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)
        assert mix64(0) != mix64(0, 0)

    def test_mix64_no_collisions_small_grid(self):
        seen = set()
        for seed in range(20):
            for n in (10, 11, 200):
                for t in range(25):
                    seen.add(mix64(seed, n, t))
        assert len(seen) == 20 * 3 * 25


class TestSampling:
    def test_deterministic_in_seed(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s1 = sample_coefficients(model, 40, seed=123)
        s2 = sample_coefficients(model, 40, seed=123)
        assert np.array_equal(s1.a, s2.a)
        assert np.array_equal(s1.b, s2.b)

    def test_distinct_seeds_distinct_draws(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s1 = sample_coefficients(model, 40, seed=1)
        s2 = sample_coefficients(model, 40, seed=2)
        assert not np.array_equal(s1.a, s2.a)

    def test_periodic_entries_are_bit_exact_copies(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=4)
        s = sample_coefficients(model, 42, seed=9)
        for j in range(s.n + 1):
            assert s.a[j] == s.a[j % 4]
            assert s.b[j] == s.b[j % 4]

    def test_cosine_kind_has_zero_sine_coefficients(self):
        for dep, ell in (("iid", None), ("periodic", 3)):
            model = CoefficientModel(kind="cosine", dep=dep, ell=ell)
            s = sample_coefficients(model, 30, seed=5)
            assert np.all(s.b == 0.0)

    def test_sigma_scales_amplitudes_exactly(self):
        m1 = CoefficientModel(kind="trig", dep="iid", sigma=1.0)
        m2 = CoefficientModel(kind="trig", dep="iid", sigma=2.5)
        s1 = sample_coefficients(m1, 25, seed=77)
        s2 = sample_coefficients(m2, 25, seed=77)
        assert np.allclose(s2.a, 2.5 * s1.a, rtol=0, atol=0)

    @pytest.mark.parametrize("kind, dep, ell, sigma", [
        ("trig", "iid", None, 1.0),
        ("trig", "periodic", 3, 2.5),
        ("trig", "periodic", 4, 1.0),
        ("cosine", "iid", None, 1e-300),
        ("cosine", "periodic", 5, 1e300),
    ])
    def test_draws_are_the_documented_stream(self, kind, dep, ell, sigma):
        """Bit for bit: sigma times the Philox normals keyed by the seed,
        two draws in turn, a (or its ell-long base) first, then b; the
        sampler draws both in one call.  Both vectors are contiguous and
        read-only."""
        n = 29
        for seed in [0, 123] + [mix64(2026, n, t) for t in range(200)]:
            s = sample_coefficients(CoefficientModel(kind, dep, ell, sigma), n, seed)
            rng = np.random.Generator(np.random.Philox(key=seed))
            size = n + 1 if ell is None else ell
            a = sigma * rng.standard_normal(size)
            b = sigma * rng.standard_normal(size) if kind == "trig" else np.zeros(size)
            reps = -(-(n + 1) // size)
            assert np.array_equal(s.a, np.tile(a, reps)[: n + 1])
            assert np.array_equal(s.b, np.tile(b, reps)[: n + 1])
            for v in (s.a, s.b):
                assert v.flags.c_contiguous and not v.flags.writeable

    @pytest.mark.parametrize("kind, dep, ell", [
        ("trig", "iid", None), ("trig", "periodic", 3), ("cosine", "iid", None),
        ("cosine", "periodic", 4)])
    def test_handed_peak_is_the_largest_coefficient(self, kind, dep, ell):
        """The sampler hands over the largest |a_k|, |b_k| of its draw, and
        it equals the reduction over the spread vectors."""
        model = CoefficientModel(kind=kind, dep=dep, ell=ell, sigma=2.5)
        for seed in range(20):
            s = sample_coefficients(model, 29, seed)
            assert "peak" in vars(s)
            assert s.peak == models._peak(s.a, s.b) == max(np.abs(s.a).max(), np.abs(s.b).max())

    def test_overflowing_draw_raises_without_warning(self):
        model = CoefficientModel(kind="trig", dep="iid", sigma=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match=r"overflows the double range at sigma=1e\+308"):
                sample_coefficients(model, 50, seed=0)

    def test_arrays_are_read_only(self):
        model = CoefficientModel(kind="trig", dep="iid")
        s = sample_coefficients(model, 10, seed=0)
        with pytest.raises(ValueError):
            s.a[0] = 1.0

    def test_seed_collision_survey(self):
        """1e4 consecutive seeds give 1e4 distinct leading coefficients."""
        model = CoefficientModel(kind="cosine", dep="iid")
        vals = {sample_coefficients(model, 1, seed=s).a[0] for s in range(10_000)}
        assert len(vals) == 10_000

    def test_gaussian_moments_over_seeds(self):
        """Mean/variance of a[0] across 1e5 seeds match N(0, sigma^2)."""
        model = CoefficientModel(kind="cosine", dep="iid", sigma=1.0)
        vals = np.array(
            [sample_coefficients(model, 1, seed=s).a[0] for s in range(100_000)]
        )
        n = vals.size
        assert abs(vals.mean()) < 4.0 / np.sqrt(n)
        assert abs(vals.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


_KEYS = [0, 1, (1 << 63) - 1, (1 << 64) - 1, mix64(2026, 199, 3)]


def _fresh_sample(model, n, seed):
    """The documented draw from a generator built afresh for the seed."""
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    size = model.period(n).ell
    a = model.sigma * rng.standard_normal(size)
    b = model.sigma * rng.standard_normal(size) if model.kind == "trig" else np.zeros(size)
    reps = -(-(n + 1) // size)
    return np.tile(a, reps)[: n + 1], np.tile(b, reps)[: n + 1]


class TestThreadGenerator:
    """The sampler draws from one Philox generator per thread, re-keyed on
    every call: each draw is the stream of a generator built afresh."""

    @pytest.mark.parametrize("key", _KEYS)
    def test_rekeyed_stream_is_that_of_a_fresh_generator(self, key):
        fresh = np.random.Generator(np.random.Philox(key=key))
        want = fresh.standard_normal(9), fresh.integers(0, 1 << 40, 5), fresh.random(3)
        # leave the thread's generator mid-buffer and with a spare 32-bit word
        models._keyed_generator(12345).integers(0, 7, 3, dtype=np.uint32)
        rng = models._keyed_generator(key)
        got = rng.standard_normal(9), rng.integers(0, 1 << 40, 5), rng.random(3)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        model = CoefficientModel(kind="trig", dep="periodic", ell=4)
        s = sample_coefficients(model, 29, key)
        a, b = _fresh_sample(model, 29, key)
        assert np.array_equal(s.a, a) and np.array_equal(s.b, b)

    def test_draw_is_unchanged_by_what_came_before(self):
        model = CoefficientModel(kind="trig", dep="iid")
        want = _fresh_sample(model, 40, 77)
        with pytest.raises(FloatingPointError):
            sample_coefficients(CoefficientModel(kind="trig", dep="iid", sigma=1e308), 40, 77)
        s = sample_coefficients(model, 40, 77)
        assert np.array_equal(s.a, want[0]) and np.array_equal(s.b, want[1])
        sample_coefficients(CoefficientModel(kind="cosine", dep="periodic", ell=3), 11, 78)
        s = sample_coefficients(model, 40, 77)
        assert np.array_equal(s.a, want[0]) and np.array_equal(s.b, want[1])

    def test_threads_drawing_interleaved_keys_match_one_thread(self):
        model = CoefficientModel(kind="trig", dep="periodic", ell=3)
        keys = [[mix64(5, 30, t) for t in range(0, 40, 2)],
                [mix64(5, 30, t) for t in range(1, 40, 2)]]
        alone = [[sample_coefficients(model, 30, k) for k in ks] for ks in keys]
        barrier = threading.Barrier(2)
        drawn = [[], []]

        def draw(i):
            for k in keys[i]:
                barrier.wait()
                drawn[i].append(sample_coefficients(model, 30, k))

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for mine, theirs in zip(drawn, alone):
            assert len(mine) == len(theirs)
            for x, y in zip(mine, theirs):
                assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)

    def test_worker_processes_give_the_same_report(self):
        config = dict(kind="trig", dep="periodic", ell=3, degrees=(40, 61), trials=10,
                      master_seed=9)
        reports = [harness.report_to_json(harness.run_experiment(
            harness.ExperimentConfig(workers=w, **config))) for w in (1, 2)]
        assert reports[0] == reports[1]


class TestSplitOncePerTrial:
    """The sampler hands its split to the sample (PolySample.split), so a
    trial builds it once, on either counting route."""

    CASES = [
        ("trig", "iid", None, 199),  # grid route
        ("trig", "periodic", 3, 400),  # grid route, r = 2
        ("cosine", "periodic", 3, 1199),  # phase route, r = 0
        ("trig", "periodic", 5, 499),  # phase route, r = 0
    ]

    @pytest.mark.parametrize("kind, dep, ell, n", CASES)
    def test_one_split_per_trial(self, monkeypatch, kind, dep, ell, n):
        """Counts every PeriodDecomposition built, whichever name builds it."""
        calls = []
        init = models.PeriodDecomposition.__init__

        def counting(self, *args, **kwargs):
            calls.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(models.PeriodDecomposition, "__init__", counting)
        model = CoefficientModel(kind=kind, dep=dep, ell=ell)
        for t in range(5):
            harness._single_trial((model, n, mix64(25, n, t), 32, 4))
        assert len(calls) == 5

    @pytest.mark.parametrize("kind, dep, ell, n", CASES)
    def test_handed_split_is_the_model_split(self, kind, dep, ell, n):
        """The handed-over split equals model.period(n), and counts,
        stable flags and roots equal those of a copy that builds its own."""
        model = CoefficientModel(kind=kind, dep=dep, ell=ell)
        for t in range(3):
            sample = sample_coefficients(model, n, mix64(25, n, t))
            assert "split" in vars(sample)
            assert sample.split == model.period(n)
            fresh = dataclasses.replace(sample)
            assert "split" not in vars(fresh)
            got = count_zeros(sample, want_roots=True)
            want = count_zeros(fresh, want_roots=True)
            assert (got.count, got.stable) == (want.count, want.stable)
            assert np.array_equal(got.roots, want.roots)
