"""Acceptance gate: one test per advertised quantitative claim.

Each test runs the corresponding criterion at full strength (the same
battery `trigzeros verify` executes) and prints its one-line verdict, so
a verbose test run reads as the acceptance report.
"""

import pytest

from trigzeros import acceptance, harness, kacrice, trigpoly, zeros


def _check(criterion):
    res = criterion(quick=False)
    print(("PASS" if res.passed else "FAIL"), res.name + ":", res.detail)
    assert res.passed, f"{res.name}: {res.detail}"


def test_exact_mean_full_blocks():
    _check(acceptance.exact_mean_full_blocks)


def test_full_period_degeneracy():
    _check(acceptance.full_period_degeneracy)


def test_cosine_gap_order():
    _check(acceptance.cosine_gap_order)


def test_linear_growth_constant():
    _check(acceptance.linear_growth_constant)


def test_constant_identities():
    _check(acceptance.constant_identities)


def test_iid_baseline():
    _check(acceptance.iid_baseline)


def test_factorization_residuals():
    _check(acceptance.factorization_residuals)


def test_micro_identities():
    _check(acceptance.micro_identities)


def test_factorization_and_micro_identities_skip_the_oracle(monkeypatch):
    """Criteria 7 and 8 check the routes the counts and totals run
    through, so they pass with the abc_direct oracle out of reach."""
    def unreachable(*args, **kwargs):
        raise AssertionError("abc_direct is a test oracle, not a checked route")

    monkeypatch.setattr(kacrice, "abc_direct", unreachable)
    for criterion in (acceptance.factorization_residuals, acceptance.micro_identities):
        res = criterion(quick=True)
        assert res.passed, f"{res.name}: {res.detail}"


def test_failing_criterion_names_every_family(monkeypatch):
    """A closed form off by one fails all three (ell, n) families, and the
    detail names each of them, not only the first."""
    exact = kacrice.expected_zeros_exact_r0
    monkeypatch.setattr(acceptance, "expected_zeros_exact_r0",
                        lambda n, ell: exact(n, ell) + 1.0)
    res = acceptance.exact_mean_full_blocks(quick=True)
    assert not res.passed
    for family in ("(ell=2, n=199)", "(ell=3, n=299)", "(ell=5, n=499)"):
        assert f"{family}: quadrature" in res.detail, res.detail
    assert res.detail.endswith("(<= 1e-9)")  # the summary comes last


def test_failing_criterion_names_every_failed_check(monkeypatch):
    """Two corrupted kernels fail checks at both ends of micro_identities;
    the detail names both, and the checks in between still pass."""
    def shifted_pair(m, ell, x):
        phi, phid = trigpoly.dirichlet_pair(m, ell, x)
        return phi + 1e-6, phid

    monkeypatch.setattr(acceptance, "dirichlet_pair", shifted_pair)
    monkeypatch.setattr(acceptance, "deterministic_zero_set",
                        lambda m, ell: zeros.deterministic_zero_set(m, ell)[1:])
    res = acceptance.micro_identities(quick=True)
    assert not res.passed
    assert "dirichlet_pair off by" in res.detail, res.detail
    assert "forced zeros, expected" in res.detail, res.detail
    assert "sin^2 identity" not in res.detail
    assert "sigma leaks" not in res.detail


@pytest.mark.parametrize("criterion, families", [
    (acceptance.exact_mean_full_blocks, 3),
    (acceptance.full_period_degeneracy, 3),
    (acceptance.cosine_gap_order, 3),
    (acceptance.linear_growth_constant, 3),
    (acceptance.iid_baseline, 1),
])
def test_failed_rows_are_failed_checks(monkeypatch, criterion, families):
    """A Monte Carlo row with every trial uncertified has no mean; the
    criterion reports it as a failed check per family, never by raising."""
    def every_trial_unstable(config):
        (n,) = config.degrees
        row = harness.DegreeRow(
            n=n, m=None, r=None, trials=config.trials, unstable=config.trials,
            empirical_mean=None, stddev=None, stderr=None, theory=None,
            order=None, z=None, failed=True)
        return harness.ExperimentReport(config=config, rows=(row,))

    monkeypatch.setattr(acceptance, "run_experiment", every_trial_unstable)
    res = criterion(quick=True)
    assert not res.passed
    assert res.detail.count("unstable trials") == families, res.detail


def test_factorization_residuals_check_the_lattice_numerator(monkeypatch):
    """A lattice numerator W off by 1e-9 of itself fails criterion 7, on
    the r = 0 samples and on those with r != 0 alike, and the detail names
    W's residual."""
    exact = acceptance.numerator_jet
    monkeypatch.setattr(acceptance, "numerator_jet",
                        lambda sample, x, order: exact(sample, x, order) * (1.0 + 1e-9))
    res = acceptance.factorization_residuals(quick=True)
    assert not res.passed
    assert "m=" in res.detail and ", r=" in res.detail and "W residual" in res.detail


def _criterion(name, passed):
    """A stand-in criterion that passes, fails or (passed None) raises."""
    def criterion(quick):
        if passed is None:
            raise ArithmeticError("broken")
        return acceptance.CriterionResult(name.replace("_", "-"), passed, f"quick={quick}")
    criterion.__name__ = name
    return criterion


def test_a_raising_criterion_is_a_failed_result(monkeypatch):
    """run_all turns a criterion that raises into a failed result named
    after it, and still runs the criteria after it."""
    monkeypatch.setattr(acceptance, "_CRITERIA", (
        _criterion("first_one", True), _criterion("broken_one", None),
        _criterion("last_one", False)))
    assert acceptance.run_all(quick=True) == [
        acceptance.CriterionResult("first-one", True, "quick=True"),
        acceptance.CriterionResult("broken-one", False, "raised ArithmeticError('broken')"),
        acceptance.CriterionResult("last-one", False, "quick=True")]
