"""Acceptance gate: one test per advertised quantitative claim.

Each test runs the corresponding criterion at full strength (the same
battery `trigzeros verify` executes) and prints its one-line verdict, so
a verbose test run reads as the acceptance report.
"""

from trigzeros import acceptance, kacrice


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
