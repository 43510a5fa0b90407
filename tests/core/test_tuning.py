"""Unit tests for Eq. 5 and Algorithm 1 (S(G^u) tuning)."""

import pytest

from repro.core.tuning import MAX_MODEL_FRACTION, SGuTuner, ics_upper_bound


def test_umax_formula_lossless():
    # b=1.25e9 B/s, T_c=0.8s, N=8 -> 125 MB
    u = ics_upper_bound(1.25e9, 0.0, 0.8, 8, model_bytes=1e12)
    assert u == pytest.approx(1.25e9 * 0.8 / 8)


def test_umax_capped_at_80pct_of_model():
    u = ics_upper_bound(1e12, 0.0, 10.0, 1, model_bytes=100.0)
    assert u == pytest.approx(80.0)
    assert MAX_MODEL_FRACTION == 0.8  # Algorithm 1 line 2 (paper value)


def test_umax_lossier_link_admits_less():
    clean = ics_upper_bound(1e9, 0.0, 1.0, 4, model_bytes=1e12)
    lossy = ics_upper_bound(1e9, 0.2, 1.0, 4, model_bytes=1e12)
    assert lossy < clean


def test_umax_scales_with_compute_time():
    a = ics_upper_bound(1e9, 0.0, 1.0, 4, 1e12)
    b = ics_upper_bound(1e9, 0.0, 2.0, 4, 1e12)
    assert b == pytest.approx(2 * a)


def test_umax_inverse_in_workers():
    a = ics_upper_bound(1e9, 0.0, 1.0, 2, 1e12)
    b = ics_upper_bound(1e9, 0.0, 1.0, 4, 1e12)
    assert a == pytest.approx(2 * b)


def test_umax_custom_fraction():
    u = ics_upper_bound(1e12, 0.0, 10.0, 1, model_bytes=100.0, max_model_fraction=0.5)
    assert u == pytest.approx(50.0)


def test_umax_validation():
    with pytest.raises(ValueError):
        ics_upper_bound(0, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        ics_upper_bound(1, 1.0, 1, 1, 1)
    with pytest.raises(ValueError):
        ics_upper_bound(1, 0, -1, 1, 1)
    with pytest.raises(ValueError):
        ics_upper_bound(1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        ics_upper_bound(1, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        ics_upper_bound(1, 0, 1, 1, 1, max_model_fraction=0)


# ------------------------------------------------------------- Algorithm 1
def test_tuner_first_epoch_budget_zero():
    t = SGuTuner(u_max=100.0)
    assert t.budget(2.5) == 0.0
    assert t.initial_loss == 2.5


def test_tuner_ramp_follows_algorithm1_formula():
    t = SGuTuner(u_max=100.0)
    t.budget(2.0)  # L = 2.0
    assert t.budget(1.0) == pytest.approx(50.0)  # (1 - 1/2) * 100
    assert t.budget(0.5) == pytest.approx(75.0)
    assert t.budget(0.0) == pytest.approx(100.0)


def test_tuner_loss_regression_floors_at_zero():
    t = SGuTuner(u_max=100.0)
    t.budget(1.0)
    assert t.budget(1.5) == 0.0  # worse than L -> no deferral


def test_tuner_budget_never_exceeds_umax():
    t = SGuTuner(u_max=42.0)
    t.budget(3.0)
    for loss in [2.0, 1.0, 0.1, 0.0]:
        assert 0.0 <= t.budget(loss) <= 42.0


def test_tuner_zero_initial_loss_degenerate():
    t = SGuTuner(u_max=10.0)
    assert t.budget(0.0) == 10.0  # already converged -> defer maximally


def test_tuner_validation():
    with pytest.raises(ValueError):
        SGuTuner(u_max=-1.0)
    t = SGuTuner(10.0)
    with pytest.raises(ValueError):
        t.budget(-0.1)


def test_tuner_nan_loss_defers_nothing_and_leaves_ramp_state():
    """A diverged/overflowed epoch loss (NaN or inf) must fall back to the
    all-RS floor, not poison initial_loss or propagate NaN into Eq. 5."""
    t = SGuTuner(u_max=100.0)
    assert t.budget(float("nan")) == 0.0
    assert t.initial_loss is None  # NaN never becomes the ramp baseline
    t.budget(2.0)
    assert t.budget(float("nan")) == 0.0
    assert t.budget(float("inf")) == 0.0
    assert t.initial_loss == 2.0  # ramp state untouched by the bad epochs
    assert t.budget(1.0) == pytest.approx(50.0)  # ramp resumes where it was


def test_tuner_rejects_non_finite_umax():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SGuTuner(u_max=bad)


def test_umax_rejects_non_finite_inputs():
    with pytest.raises(ValueError):
        ics_upper_bound(float("nan"), 0.0, 1.0, 4, 1e12)
    with pytest.raises(ValueError):
        ics_upper_bound(1e9, 0.0, float("inf"), 4, 1e12)
    with pytest.raises(ValueError):
        ics_upper_bound(1e9, 0.0, 1.0, 4, float("nan"))


def test_tuner_monotone_budget_for_monotone_loss():
    t = SGuTuner(u_max=100.0)
    t.budget(2.0)
    budgets = [t.budget(l) for l in [1.8, 1.5, 1.0, 0.6, 0.3, 0.1]]
    assert budgets == sorted(budgets)
