"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys

import pytest

import trigzeros
from trigzeros.cli import main


def test_simulate_exact_family_csv(capsys):
    rc = main(["simulate", "--ell", "1", "--n", "20", "--n", "30",
               "--trials", "8", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,m,r,trials,")
    assert lines[1].split(",")[:6] == ["20", "21", "0", "8", "0", "40"]
    assert lines[2].split(",")[:6] == ["30", "31", "0", "8", "0", "60"]


def test_simulate_json_to_file(tmp_path):
    out_path = tmp_path / "report.json"
    rc = main(["simulate", "--ell", "1", "--n", "20", "--trials", "4",
               "--format", "json", "--out", str(out_path)])
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["config"]["dep"] == "periodic"  # inferred from --ell
    assert payload["rows"][0]["empirical_mean"] == 40.0


def test_simulate_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dep = periodic\nell = 1\ndegrees = 20, 30\ntrials = 6\n"
        "master_seed = 9\n"
    )
    rc = main(["simulate", "--config", str(cfg), "--n", "40"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2  # --n beat the config degrees
    assert lines[1].split(",")[0] == "40"
    assert lines[1].split(",")[3] == "6"  # trials came from the file


def test_simulate_failed_rows_exit_2(tmp_path, capsys, monkeypatch, tangent_draw):
    """Uncertified trials (every draw replaced by T = 1 + cos x, a double
    zero) fail the row and the command exits 2."""
    monkeypatch.setattr("trigzeros.harness.sample_coefficients", tangent_draw)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("degrees = 30\ntrials = 2\nmax_doublings = 0\n")
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 2
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split(",")[4] == "2"  # both trials unstable


@pytest.mark.parametrize("argv", [
    ["kacrice", "--dep", "iid", "--ell", "3", "--n", "50"],
    ["count", "--dep", "iid", "--ell", "3", "--n", "50"],
    ["simulate", "--dep", "iid", "--ell", "3", "--n", "50", "--trials", "2"],
])
def test_ell_with_iid_is_a_usage_error(capsys, argv):
    """An explicit period with --dep iid is rejected, not dropped, as --r
    without the periodic model is (exit 1, nothing on stdout)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--ell only applies to the periodic model" in captured.err


@pytest.mark.parametrize("text,flags", [
    ("dep = iid\nell = 3\n", []),
    ("ell = 3\n", ["--dep", "iid"]),
])
def test_config_file_ell_with_iid_is_a_usage_error(tmp_path, capsys, text, flags):
    """A config file's keys obey the rules of the flags: ell with the
    i.i.d. model, from the file or with --dep iid over it, is refused."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text + "degrees = 50\ntrials = 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), *flags])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ell only applies to the periodic model" in captured.err


@pytest.mark.parametrize("text,flags", [
    ("kind = cosine\nell = 3\ndegrees = 29, 31\ntrials = 3\nmaster_seed = 5\n"
     "sigma = 2.5\ngrid_per_degree = 16\n",
     ["--kind", "cosine", "--ell", "3", "--n", "29", "--n", "31", "--trials", "3",
      "--seed", "5", "--sigma", "2.5", "--grid-per-degree", "16"]),
    ("dep = iid\ndegrees = 20\ntrials = 2\n", ["--dep", "iid", "--n", "20", "--trials", "2"]),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_config_file_equals_flags(tmp_path, capsys, text, flags, fmt):
    """The same values from a config file and as flags print the same bytes."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["simulate", "--format", fmt, "--config", str(cfg)]) == 0
    from_file = capsys.readouterr()
    assert main(["simulate", "--format", fmt, *flags]) == 0
    from_flags = capsys.readouterr()
    assert from_file.out == from_flags.out and from_file.out
    assert from_file.err == from_flags.err == ""


@pytest.mark.parametrize("argv", [
    ["kacrice", "--dep", "iid", "--ell", "3", "--n", "50"],
    ["count", "--dep", "iid", "--ell", "3", "--n", "50"],
    ["simulate", "--dep", "iid", "--ell", "3", "--n", "50", "--trials", "2"],
    ["constants", "--what", "C"],
])
def test_usage_errors_name_the_subcommand(capsys, argv):
    """A handler's usage error prints its own subcommand's usage line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith(f"usage: trigzeros {argv[0]} ")


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--ell", "0", "--n", "20"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["count", "--ell", "3", "--n", "299", "--r", "1"])
    assert exc.value.code == 1
    assert "remainder 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--what", "C"])  # missing --ell/--r
    assert exc.value.code == 1


def test_simulate_without_degrees_takes_the_default(capsys):
    """simulate with no --n (and no config degrees) runs the default
    degree of ExperimentConfig, one row."""
    assert main(["simulate", "--trials", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2 and lines[1].split(",")[:5] == ["100", "", "", "3", "0"]


@pytest.mark.parametrize("argv, message", [
    (["count", "--r", "1"], "--r only applies to the periodic model"),
    (["simulate", "--dep", "iid", "--r", "0", "--trials", "2"],
     "--r only applies to the periodic model"),
    (["simulate", "--config", "no-such-file.cfg"], "--config: "),
])
def test_r_with_iid_and_an_unreadable_config_are_usage_errors(capsys, tmp_path, monkeypatch,
                                                             argv, message):
    """--r without the periodic model, and a config file that cannot be
    read, are usage errors (exit 1, nothing on stdout)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("results, code", [((True, True), 0), ((True, False), 2)])
def test_verify_exits_2_on_a_failed_criterion(monkeypatch, capsys, results, code):
    """verify prints one PASS or FAIL line per criterion, and exits 2 when
    any fails, 0 when all pass."""
    from trigzeros import acceptance

    def criterion(name, passed):
        return lambda quick: acceptance.CriterionResult(name, passed, "detail")

    monkeypatch.setattr(acceptance, "_CRITERIA", tuple(
        criterion(f"c{i}", passed) for i, passed in enumerate(results)))
    assert main(["verify", "--quick"]) == code
    assert capsys.readouterr().out.splitlines() == [
        f"{'PASS' if passed else 'FAIL'}  c{i}: detail" for i, passed in enumerate(results)]


def test_count_refuses_a_second_degree(capsys):
    """count counts one sample: a repeated --n is a usage error, not a
    silent choice of the last one."""
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "20", "--n", "30"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count takes one --n" in captured.err


def test_bad_grid_options_are_usage_errors(tmp_path, capsys):
    """Grid options are rejected before any counting starts (exit 1, not 2)."""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "10", "--trials", "2", "--grid-per-degree", "0"])
    assert exc.value.code == 1
    assert "grid_per_degree must be >= 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["count", "--grid-per-degree", "0"])
    assert exc.value.code == 1
    assert "--grid-per-degree must be >= 1" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("degrees = 10\ntrials = 2\nmax_doublings = -3\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "max_doublings must be >= 0" in capsys.readouterr().err


def test_kacrice_matches_exact_value(capsys):
    rc = main(["kacrice", "--ell", "2", "--n", "199"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,random_part,deterministic,total,error_estimate,panels"
    cells = lines[1].split(",")
    expected = 198.0 + math.sqrt(199.0**2 + 1.0)
    assert float(cells[3]) == pytest.approx(expected, rel=1e-9)
    assert int(cells[2]) == 198


def test_kacrice_json(capsys):
    rc = main(["kacrice", "--n", "50", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["n"] == 50
    # iid polynomials have no forced zeros
    assert payload[0]["deterministic"] == 0
    assert payload[0]["total"] == pytest.approx(
        2 * math.sqrt(50 * 101 / 6), rel=1e-12
    )


def test_kacrice_iid_cosine_large_degree(capsys):
    # the literal basis sums needed ~8 GB here; the closed forms need O(n)
    rc = main(["kacrice", "--kind", "cosine", "--n", "1000"])
    assert rc == 0
    cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert float(cells[3]) == pytest.approx(2 * math.sqrt(1000 * 2001 / 6), rel=5e-3)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["kacrice", "--n", "0"], "degree must be >= 1"),
        (["kacrice", "--ell", "5", "--n", "3"], "fewer than one period"),
        (["kacrice", "--ell", "5", "--n", "3", "--r", "0"], "fewer than one period"),
        (["count", "--ell", "5", "--n", "3", "--r", "0"], "fewer than one period"),
        (["count", "--ell", "5", "--n", "3"], "fewer than one period"),
        (["count", "--n", "0"], "degree must be >= 1"),
        (["simulate", "--ell", "5", "--n", "3", "--trials", "2"], "fewer than one period"),
        (["simulate", "--ell", "3", "--n", "20", "--n", "1", "--trials", "2"],
         "fewer than one period"),
        (["kacrice", "--nodes-per-panel", "0"], "unrecognized arguments"),
    ],
)
def test_bad_degrees_are_usage_errors(capsys, argv, message):
    """Degrees are checked before any sampling or quadrature (exit 1, one
    line, no traceback), with or without --r; the quadrature rule is fixed
    and takes no flags."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_kacrice_does_not_draw_at_the_users_sigma(capsys):
    """The quadrature never reads the coefficients, so sigma = 1e308, whose
    draw overflows, prints the totals of sigma = 1 to the bit (JSON floats
    print every bit)."""
    assert main(["kacrice", "--sigma", "1e308", "--format", "json"]) == 0
    huge = capsys.readouterr()
    assert main(["kacrice", "--format", "json"]) == 0
    unit = capsys.readouterr()
    assert huge.err == unit.err == ""
    assert huge.out == unit.out and json.loads(unit.out)[0]["total"] > 0.0


def test_constants_shortcuts(capsys):
    assert main(["constants", "--what", "K", "--ell", "1"]) == 0
    assert "0.5" in capsys.readouterr().out
    assert main(["constants", "--what", "C", "--ell", "4", "--r", "0"]) == 0
    assert "1.0" in capsys.readouterr().out


def test_constants_monte_carlo_count(capsys):
    """--mc 0 is off; a negative count, or one point, whose spread would
    state a zero error, is a usage error, not a confirmation, and it fails
    before any value reaches stdout."""
    assert main(["constants", "--what", "K", "--ell", "3", "--mc", "0"]) == 0
    assert "monte-carlo" not in capsys.readouterr().out
    for what in (["K", "--ell", "3"], ["C", "--ell", "3", "--r", "1"]):
        for count in ("-5", "1"):
            with pytest.raises(SystemExit) as exc:
                main(["constants", "--what", *what, "--mc", count])
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "n_points >= 2" in captured.err


@pytest.mark.parametrize("args", [
    ["C"], ["C", "--ell", "3"], ["J", "--r", "1"], ["K"], ["I"],
    ["C", "--ell", "3", "--r", "0", "--mc", "1000"],
    ["C", "--ell", "3", "--r", "3"],
    ["C", "--ell", "3", "--r", "1", "--mc", "1"],
    ["C", "--ell", "3", "--r", "1", "--mc", "-5"],
    ["J", "--ell", "3", "--r", "0"],
    ["J", "--ell", "3", "--r", "1", "--mc", "1000"],
    ["K", "--ell", "0"],
    ["K", "--ell", "3", "--mc", "1"],
    ["I", "--alpha", "0"],
    ["I", "--alpha", "2.0"],
    ["I", "--alpha", "0.9", "--mc", "1000"],
])
def test_constants_usage_errors_leave_stdout_empty(capsys, args):
    """Every value is computed before the first line is printed, so no
    usage error of constants, however late it is found, prints a value."""
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--what", *args])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("what", [["J", "--ell", "3", "--r", "1"], ["I", "--alpha", "0.9"]])
def test_constants_monte_carlo_only_for_C_and_K(capsys, what):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--what", *what, "--mc", "1000"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--mc" in captured.err


@pytest.mark.parametrize("what, value", [(["K", "--ell", "2"], "K[2] = "),
                                         (["C", "--ell", "3", "--r", "1"], "C[3,1] = ")])
def test_constants_monte_carlo_confirms_the_value(capsys, what, value):
    """--mc prints a second line, the Monte Carlo estimate and its standard
    error, under the quadrature value, which it confirms within 4 errors."""
    assert main(["constants", "--what", *what, "--mc", "20000"]) == 0
    exact, estimate = capsys.readouterr().out.strip().split("\n")
    assert exact.startswith(value) and estimate.startswith("monte-carlo = ")
    mean, error = (float(part) for part in estimate.split("= ")[1].split(" +- "))
    assert 0.0 < error and abs(mean - float(exact.split("= ")[1])) <= 4.0 * error


def test_constants_identity(capsys):
    rc = main(["constants", "--what", "I", "--alpha", "0.9"])
    assert rc == 0
    out = capsys.readouterr().out
    quad, closed = (float(line.split("=")[1]) for line in out.strip().split("\n"))
    assert quad == pytest.approx(closed, rel=1e-7)


def test_count_with_root_dump(tmp_path, capsys):
    roots_path = tmp_path / "roots.csv"
    rc = main(["count", "--ell", "1", "--n", "25", "--seed", "12",
               "--dump-roots", str(roots_path)])
    assert rc == 0
    assert "count=50" in capsys.readouterr().out
    lines = roots_path.read_text().strip().split("\n")
    assert lines[0] == "index,x,residual"
    assert len(lines) == 51
    xs = [float(line.split(",")[1]) for line in lines[1:]]
    assert xs == sorted(xs)
    assert all(float(line.split(",")[2]) < 1e-6 for line in lines[1:])


def test_count_reports_its_route(capsys):
    """r = 0 samples name the phase route and its pieces; others their grid."""
    assert main(["count", "--ell", "3", "--n", "299", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert " route=phase pieces=" in out and "grid=" not in out
    assert main(["count", "--ell", "3", "--n", "298", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert " grid=" in out and "route=" not in out


def test_overflowing_draw_exits_2_with_reason(capsys):
    """sigma = 1e308 overflows the draw itself; count and simulate name it."""
    reason = "error: coefficient draw overflows the double range at sigma=1e+308\n"
    assert main(["count", "--sigma", "1e308", "--n", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.err == reason and captured.out == ""
    assert main(["simulate", "--sigma", "1e308", "--n", "50", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == reason and captured.out == ""


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trigzeros.cli", "simulate", "--ell", "1",
         "--n", "20", "--trials", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,m,r,")


@pytest.mark.parametrize("argv", [
    ["count", "--kind", "trig", "--dep", "periodic", "--ell", "3", "--n", "40",
     "--seed", "11"],
    ["count", "--n", "20", "--n", "30"],
])
def test_package_runs_as_a_module(argv):
    """python -m trigzeros prints the bytes of python -m trigzeros.cli, on
    stdout and stderr alike, and exits with its code."""
    src = os.path.dirname(os.path.dirname(trigzeros.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    package, cli = (subprocess.run([sys.executable, "-m", module, *argv], env=env,
                                   capture_output=True, timeout=120)
                    for module in ("trigzeros", "trigzeros.cli"))
    assert (package.returncode, package.stdout, package.stderr) == \
        (cli.returncode, cli.stdout, cli.stderr)
    assert cli.stdout or cli.stderr


@pytest.mark.parametrize("error", [
    FloatingPointError("NaN encountered during grid evaluation"),
    RuntimeError("counted 61 zeros for degree n=30 (ceiling 2n=60)"),
])
def test_counting_failures_exit_2_with_reason(monkeypatch, capsys, error):
    """A numerical failure while counting is one line on stderr and exit 2,
    never a traceback, from count and simulate, and from kacrice's
    quadrature, which names the degree."""
    def failing_count(*args, **kwargs):
        raise error

    monkeypatch.setattr("trigzeros.cli.count_zeros", failing_count)
    monkeypatch.setattr("trigzeros.harness.count_zeros", failing_count)
    monkeypatch.setattr("trigzeros.cli.expected_zeros_quadrature", failing_count)
    assert main(["kacrice", "--n", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: n=30: {error}\n" and captured.out == ""
    assert main(["count", "--n", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""
    assert main(["simulate", "--n", "30", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""


_THREADED_RUNS = """
from trigzeros.cli import main
main(["kacrice", "--ell", "3", "--n", "299", "--format", "json"])
main(["kacrice", "--kind", "cosine", "--n", "400", "--format", "json"])
main(["constants", "--what", "C", "--ell", "3", "--r", "1"])
main(["constants", "--what", "K", "--ell", "4"])
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    """Kac-Rice totals (periodic trig ell=3 n=299, i.i.d. cosine n=400) and
    the constants C[3,1] and K[4] print the same bytes with one BLAS thread
    and with two."""
    src = os.path.dirname(os.path.dirname(trigzeros.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _THREADED_RUNS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"total"') == 2 and "C[3,1] = " in outputs[0]
