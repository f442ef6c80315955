"""Tests for the Monte Carlo experiment harness."""

import concurrent.futures
import json
import math

import pytest

from trigzeros.harness import (
    _POOL_CHUNK,
    CSV_COLUMNS,
    ExperimentConfig,
    load_config_file,
    parse_config_text,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from trigzeros.models import CoefficientModel, mix64, sample_coefficients
from trigzeros.zeros import count_zeros


def _config(**kwargs):
    base = dict(degrees=(20,), trials=10, master_seed=5, grid_per_degree=32)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestRowsAndAggregates:
    def test_exact_family_rows(self):
        # full-period coefficients: every sample has exactly 2n zeros
        report = run_experiment(
            _config(dep="periodic", ell=1, degrees=(20, 50), trials=25)
        )
        assert len(report.rows) == 2
        for row, n in zip(report.rows, (20, 50)):
            assert row.n == n
            assert (row.m, row.r) == (n + 1, 0)
            assert row.trials == 25 and row.unstable == 0
            assert row.empirical_mean == 2 * n
            assert row.stddev == 0.0 and row.stderr == 0.0
            assert row.theory == 2 * n and row.order == "exact"
            assert row.z is None  # zero variance leaves z undefined
            assert not row.failed
        assert not report.any_failed()

    def test_iid_z_is_sane(self):
        report = run_experiment(_config(degrees=(60,), trials=150))
        (row,) = report.rows
        assert row.m is None and row.r is None
        assert row.theory == pytest.approx(2 * math.sqrt(60 * 121 / 6))
        assert row.stderr > 0
        assert abs(row.z) < 4.0
        assert not row.failed

    def test_added_degree_leaves_existing_row_alone(self):
        # per-trial seeds depend only on (master_seed, n, trial)
        short = run_experiment(_config(degrees=(40,), trials=30))
        long = run_experiment(_config(degrees=(40, 61), trials=30))
        assert short.rows[0] == long.rows[0]

    def test_no_doublings_means_no_stable_counts(self, monkeypatch, tangent_draw):
        """Uncertified trials (a double zero, T = 1 + cos x) leave the row
        without aggregates and mark it failed."""
        monkeypatch.setattr("trigzeros.harness.sample_coefficients", tangent_draw)
        report = run_experiment(
            _config(degrees=(30,), trials=5, max_doublings=0)
        )
        (row,) = report.rows
        assert row.unstable == 5
        assert row.empirical_mean is None and row.stddev is None
        assert row.z is None
        assert row.theory is not None  # theory column survives
        assert row.failed
        assert report.any_failed()

    def test_cosine_remainder_row_has_no_theory(self):
        # no closed mean is known for cosine with r != 0
        report = run_experiment(
            _config(kind="cosine", dep="periodic", ell=3, degrees=(31,),
                    trials=3)
        )
        (row,) = report.rows
        assert row.r == 2
        assert row.theory is None and row.order is None and row.z is None
        assert not row.failed  # counts are fine, only the reference is absent


class TestSerialization:
    def test_csv_shape(self):
        report = run_experiment(
            _config(dep="periodic", ell=1, degrees=(20,), trials=5)
        )
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0] == (
            "n,m,r,trials,unstable,empirical_mean,stddev,stderr,"
            "theory,order,z"
        )
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == "20" and cells[-1] == ""  # undefined z is empty

    def test_json_nulls_and_echo(self):
        config = _config(dep="periodic", ell=1, degrees=(20,), trials=5)
        payload = json.loads(report_to_json(run_experiment(config)))
        assert set(payload["config"]) == {
            "kind", "dep", "ell", "sigma", "degrees", "trials", "master_seed",
            "grid_per_degree", "max_doublings",
        }
        assert set(payload["rows"][0]) == set(CSV_COLUMNS) | {"failed"}
        assert payload["config"]["ell"] == 1
        assert payload["config"]["master_seed"] == 5
        (row,) = payload["rows"]
        assert row["z"] is None
        assert row["empirical_mean"] == 40.0

    def test_reports_are_deterministic(self):
        config = _config(degrees=(35,), trials=20)
        a = report_to_json(run_experiment(config))
        b = report_to_json(run_experiment(config))
        assert a == b
        assert report_to_csv(run_experiment(config)) == report_to_csv(
            run_experiment(config)
        )

    def test_worker_count_does_not_change_bytes(self):
        serial = run_experiment(_config(degrees=(25, 30), trials=12))
        pooled = run_experiment(
            _config(degrees=(25, 30), trials=12, workers=2)
        )
        assert report_to_csv(serial) == report_to_csv(pooled)
        # the echoed config omits workers, so JSON matches too
        assert report_to_json(serial) == report_to_json(pooled)

    @pytest.mark.parametrize("trials,workers,started", [(8, 16, 1), (20, 16, 3), (20, 2, 2)])
    def test_pool_starts_no_process_without_a_chunk(self, monkeypatch, trials, workers,
                                                    started):
        """The pool asks for one process per chunk of _POOL_CHUNK trials at
        most, and maps the trials in chunks of that size: 8 trials with 16
        workers start 1.  A recording executor runs map in this process,
        so none starts here, and the reports are the bytes of a serial
        run."""
        sizes, chunks = [], []

        class Recording:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                chunks.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        serial = run_experiment(_config(trials=trials))
        pooled = run_experiment(_config(trials=trials, workers=workers))
        assert sizes == [started] and chunks == [_POOL_CHUNK]
        assert report_to_csv(pooled) == report_to_csv(serial)
        assert report_to_json(pooled) == report_to_json(serial)


class TestConfigParsing:
    def test_round_trip(self):
        text = """
        # comment line
        kind = cosine
        dep = periodic
        ell = 3

        degrees = 29, 59
        trials = 7
        master_seed = 42
        grid_per_degree = 16
        max_doublings = 3
        workers = 2
        """
        parsed = parse_config_text(text)
        config = ExperimentConfig(**parsed)
        config.validate()
        assert config.kind == "cosine"
        assert config.degrees == (29, 59)
        assert config.master_seed == 42
        assert config.workers == 2

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("trials = 3\nbogus = 1\n")

    @pytest.mark.parametrize("text, line, key", [
        ("trials = many\n", 1, "trials"),
        ("degrees = 10\ntrials=abc\n", 2, "trials"),
        ("# header\n\nsigma = 1.5.0\n", 3, "sigma"),
        ("degrees = 10, x\n", 1, "degrees"),
    ])
    def test_bad_value_raises(self, text, line, key):
        """A value that does not convert is reported with its line and key,
        as every other config error names its line."""
        with pytest.raises(ValueError, match=f"^line {line}: bad value for '{key}': "):
            parse_config_text(text)

    def test_missing_equals_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("just some words\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("degrees = 10\ntrials = 2\n")
        parsed = load_config_file(str(path))
        assert parsed == {"degrees": (10,), "trials": 2}


class TestValidation:
    @pytest.mark.parametrize("fields", [
        dict(degrees=()), dict(degrees=(20, -1)), dict(trials=0), dict(workers=0),
        dict(kind="poly"), dict(dep="markov"), dict(dep="periodic"), dict(ell=3),
        dict(sigma=0.0), dict(dep="periodic", ell=5, degrees=(3,)),
    ])
    def test_invalid_config_cannot_be_built(self, fields):
        """Construction runs validate(), so no invalid config exists to
        reach run_experiment."""
        with pytest.raises(ValueError):
            ExperimentConfig(**fields)

    def test_rejects_empty_degrees(self):
        with pytest.raises(ValueError):
            _config(degrees=()).validate()

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            _config(degrees=(10, 0)).validate()

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            _config(trials=0).validate()

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            _config(workers=0).validate()

    def test_rejects_grid_below_one_node_per_degree(self):
        with pytest.raises(ValueError, match="grid_per_degree"):
            _config(grid_per_degree=0).validate()

    def test_rejects_negative_doubling_cap(self):
        with pytest.raises(ValueError, match="max_doublings"):
            _config(max_doublings=-3).validate()
        _config(max_doublings=0).validate()  # zero is a valid (always unstable) cap

    @pytest.mark.parametrize("name, value", [
        ("trials", 1.5), ("workers", 1.5), ("grid_per_degree", 1.5), ("max_doublings", 2.5),
        ("max_doublings", 2.0),
    ])
    def test_rejects_non_integral_counts(self, name, value):
        """A count that is not an integer is rejected on construction, with
        its field named, instead of failing later: a budget of 2.5 doublings
        would never be met and its cells would split until memory ran out."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            _config(**{name: value})

    def test_rejects_periodic_without_ell(self):
        with pytest.raises(ValueError):
            _config(dep="periodic").validate()

    def test_rejects_periodic_degree_below_one_period(self):
        with pytest.raises(ValueError, match="fewer than one period"):
            _config(dep="periodic", ell=5, degrees=(20, 3)).validate()
        _config(dep="periodic", ell=5, degrees=(20, 4)).validate()  # m = 1


@pytest.mark.parametrize("kind, dep, ell, n, trials, mean, unstable", [
    ("trig", "iid", None, 199,
     [(236, 3200, 0, True), (224, 3200, 0, True), (230, 3200, 0, True)], 230.0, 0),
    ("trig", "iid", None, 499,
     [(598, 8000, 0, True), (578, 8000, 0, True), (558, 8000, 0, True)], 578.0, 0),
    ("trig", "iid", None, 1999,
     [(2296, 32000, 0, True), (2332, 32000, 0, True), (2270, 32000, 0, True)],
     2299.3333333333335, 0),
    ("cosine", "iid", None, 499,
     [(614, 8000, 0, True), (592, 8000, 0, True), (548, 8000, 0, True)],
     584.6666666666666, 0),
    ("trig", "periodic", 3, 400,
     [(798, 6480, 0, True), (638, 6480, 0, True), (624, 6480, 0, True)],
     686.6666666666666, 0),
    ("trig", "periodic", 3, 1600,
     [(2182, 25920, 0, True), (2324, 25920, 0, True), (3196, 25920, 0, True)],
     2567.3333333333335, 0),
    ("trig", "periodic", 5, 499,
     [(994, 0, 0, True), (994, 0, 0, True), (994, 0, 0, True)], 994.0, 0),
    ("cosine", "periodic", 3, 1199,
     [(2398, 0, 0, True), (2396, 0, 0, True), (2396, 0, 0, True)], 2396.6666666666665, 0),
])
def test_bench_mix_pins(kind, dep, ell, n, trials, mean, unstable):
    """One 3-trial row, master seed 7, of each family of the Monte Carlo
    benchmark mixes, restated here: every trial's (count, grid_size,
    doublings_used, stable) and the row's mean and unstable count, to the
    bit.  A draw or a certificate that moves a bit on these rows shows
    here.  Every grid takes 16 nodes a degree of the function counted:
    the i.i.d. rows 3200, 8000 and 32000 nodes (6400, 16000 and 64000 at
    32 a degree, with the same counts), and the periodic r != 0 rows
    their lattice numerator W on grids that ell = 3 divides, 6480 and
    25920 nodes, against 12960 and 51840 when they counted T, where the
    first n = 1600 trial took no doubling.  It takes one on W's grid
    route, and none where the carrier proof decides its count, as it now
    does."""
    model = CoefficientModel(kind=kind, dep=dep, ell=ell)
    reports = [count_zeros(sample_coefficients(model, n, mix64(7, n, t))) for t in range(3)]
    assert [(r.count, r.grid_size, r.doublings_used, r.stable) for r in reports] == trials
    (row,) = run_experiment(ExperimentConfig(kind=kind, dep=dep, ell=ell, degrees=(n,),
                                             trials=3, master_seed=7)).rows
    assert (row.empirical_mean, row.unstable) == (mean, unstable)
