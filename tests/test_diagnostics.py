"""Diagnostics over recorded runs."""

import numpy as np
import pytest

from relshock import diagnostics, experiments, models, scheme
from relshock.errors import RelshockError
from relshock.fluid import EosParams


def frw1_weak_residual(n, duration=0.5):
    eos = EosParams()
    model = models.make_model("frw1", eos, t_start=15.0)
    history = diagnostics.HistoryRecorder()
    experiments.simulate_model(model, scheme.SimGrid(3.0, 7.0, n), eos, duration,
                               extra_hooks=(history,))
    phi = diagnostics.BumpTestFunction(15.0 + duration / 2.0, 0.2, 5.0, 1.0)
    return diagnostics.weak_residual(history, phi)


def test_weak_residual_shrinks_under_refinement():
    """The limit of the scheme solves the field equations weakly: the
    defect against a smooth test function falls with every mesh halving."""
    residuals = np.array([frw1_weak_residual(n) for n in (64, 128, 256)])
    assert np.all(np.isfinite(residuals))
    assert np.all(np.diff(residuals) < 0.0), residuals
    assert residuals[-1] < 1e-8


def test_weak_residual_rejects_support_outside_the_run():
    eos = EosParams()
    model = models.make_model("frw1", eos, t_start=15.0)
    history = diagnostics.HistoryRecorder()
    experiments.simulate_model(model, scheme.SimGrid(3.0, 7.0, 32), eos, 0.1,
                               extra_hooks=(history,))
    wide = diagnostics.BumpTestFunction(15.05, 0.02, 5.0, 3.0)
    with pytest.raises(RelshockError, match="exceeds the spatial domain"):
        diagnostics.weak_residual(history, wide)
    long = diagnostics.BumpTestFunction(15.05, 0.2, 5.0, 1.0)
    with pytest.raises(RelshockError, match="exceeds the recorded time span"):
        diagnostics.weak_residual(history, long)


def test_degenerate_inputs_raise_package_errors():
    with pytest.raises(RelshockError, match="need at least 3 samples"):
        diagnostics.three_point_derivative([1.0, 2.0], 0.1)
    with pytest.raises(RelshockError, match="shapes"):
        diagnostics.one_norm_error(np.zeros(3), np.zeros(4), 0.1)
    with pytest.raises(RelshockError, match="need at least two errors"):
        diagnostics.convergence_rate([1.0])
    with pytest.raises(RelshockError, match="field has zero range"):
        diagnostics.affine_scale(np.ones(4), np.arange(4.0))
