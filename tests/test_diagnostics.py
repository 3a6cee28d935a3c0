"""Diagnostics over recorded runs."""

import numpy as np
import pytest

from relshock import diagnostics, experiments, fluid, models, scheme
from relshock.errors import RelshockError
from relshock.fluid import EosParams


class HistoryRecorder:
    """Reference hook storing the full per-step state needed by the
    replayed residual."""

    def __init__(self):
        self.t = []
        self.dt = []
        self.rho = []
        self.v = []
        self.u0 = []
        self.u1 = []
        self.A = []
        self.B = []
        self.x = None
        self.xe = None
        self.dx = None
        self.eos = None

    def on_start(self, state):
        self.x = state.x.copy()
        self.xe = state.xe.copy()
        self.dx = state.dx
        self.eos = state.eos
        self._snap(state)

    def __call__(self, state, report):
        self.dt.append(report.dt)
        self._snap(state)

    def _snap(self, state):
        self.t.append(state.t)
        self.rho.append(state.rho.copy())
        self.v.append(state.v.copy())
        self.u0.append(state.u0.copy())
        self.u1.append(state.u1.copy())
        self.A.append(state.A.copy())
        self.B.append(state.B.copy())


def weak_residual(history, phi):
    """Reference: the same midpoint quadrature replayed over a recorded
    history after the run."""
    t0, t1, a, b = phi.support
    x_lo, x_hi = history.xe[0], history.xe[-1]
    if a < x_lo or b > x_hi:
        raise RelshockError(
            f"support [{a}, {b}] exceeds the spatial domain [{x_lo}, {x_hi}]"
        )
    if t0 < history.t[0] or t1 > history.t[-1]:
        raise RelshockError("support exceeds the recorded time span")
    eos = history.eos
    dx = history.dx
    xe = history.xe
    x = history.x
    xm_l = x[:-1] + dx / 4.0
    xm_r = xe + dx / 4.0
    eps0 = 0.0
    eps1 = 0.0
    for j in range(len(history.dt)):
        dt = history.dt[j]
        tm = history.t[j] + 0.5 * dt
        if tm + dt < t0 or tm - dt > t1:
            continue
        A = history.A[j]
        alpha = np.sqrt(A * history.B[j])
        area = 0.5 * dx * dt
        for xm, sl in ((xm_l, slice(None, -1)), (xm_r, slice(1, None))):
            rho, v = history.rho[j][sl], history.v[j][sl]
            u0, u1 = history.u0[j][sl], history.u1[j][sl]
            t11 = fluid.t11_arrays(u1, rho, v, eos)
            f0, f1 = alpha * u1, alpha * t11
            g0, g1 = diagnostics._conservation_sources(A, alpha, rho, u0, u1, t11, xm, eos)
            p, pt, px = phi.values(tm, xm)
            eps0 += area * np.sum(-u0 * pt - f0 * px - g0 * p)
            eps1 += area * np.sum(-u1 * pt - f1 * px - g1 * p)
    p0_l = phi.values(history.t[0], xm_l)[0]
    p0_r = phi.values(history.t[0], xm_r)[0]
    eps0 -= 0.5 * dx * (np.sum(history.u0[0][:-1] * p0_l) + np.sum(history.u0[0][1:] * p0_r))
    eps1 -= 0.5 * dx * (np.sum(history.u1[0][:-1] * p0_l) + np.sum(history.u1[0][1:] * p0_r))
    return float(max(abs(eps0), abs(eps1)))


def frw1_weak_residual(n, duration=0.5):
    eos = EosParams()
    model = models.make_model("frw1", eos, t_start=15.0)
    phi = diagnostics.BumpTestFunction(15.0 + duration / 2.0, 0.2, 5.0, 1.0)
    monitor = diagnostics.WeakResidualMonitor(phi)
    experiments.simulate_model(model, scheme.SimGrid(3.0, 7.0, n), eos, duration,
                               extra_hooks=(monitor,))
    return monitor.value()


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
    grid = scheme.SimGrid(3.0, 7.0, 32)
    wide = diagnostics.WeakResidualMonitor(diagnostics.BumpTestFunction(15.05, 0.02, 5.0, 3.0))
    with pytest.raises(RelshockError, match="exceeds the spatial domain"):
        experiments.simulate_model(model, grid, eos, 0.1, extra_hooks=(wide,))
    early = diagnostics.WeakResidualMonitor(diagnostics.BumpTestFunction(15.05, 0.2, 5.0, 1.0))
    with pytest.raises(RelshockError, match="exceeds the recorded time span"):
        experiments.simulate_model(model, grid, eos, 0.1, extra_hooks=(early,))
    late = diagnostics.WeakResidualMonitor(diagnostics.BumpTestFunction(15.08, 0.05, 5.0, 1.0))
    experiments.simulate_model(model, grid, eos, 0.1, extra_hooks=(late,))
    with pytest.raises(RelshockError, match="exceeds the recorded time span"):
        late.value()


class FirstChop:
    """Hook recording the time of the first step run on a chopped grid."""

    def __init__(self):
        self.t = None

    def on_start(self, state):
        self.n = state.n

    def __call__(self, state, report):
        if self.t is None and state.n < self.n:
            self.t = state.t


def test_weak_residual_refuses_a_chopped_grid():
    """A bump whose window covers a chopped step stops the run with a
    RelshockError naming that step; a bump that ends before the first chop
    keeps its value."""
    eos = EosParams()
    model = models.make_model("frw1_tov", eos, r0=5.0, reversed_time=True)
    t0 = model.t_start
    first_chop = FirstChop()
    before = diagnostics.WeakResidualMonitor(
        diagnostics.BumpTestFunction(t0 + 1.05, 1.0, 5.0, 1.0))
    covering = diagnostics.WeakResidualMonitor(
        diagnostics.BumpTestFunction(t0 + 2.3, 2.25, 5.0, 1.0))
    with pytest.raises(RelshockError, match="does not support runs that chop the grid") as info:
        experiments.simulate_model(model, scheme.SimGrid(0.1, 20.0, 128), eos, 5.0,
                                   extra_hooks=(first_chop, before, covering),
                                   on_hit="chop", min_cells=64)
    assert t0 + 1.05 + 1.0 < first_chop.t < t0 + 2.3 + 2.25
    assert f"step ending at t={first_chop.t:.9g}:" in str(info.value)
    assert before.value() > 0.0


FRW1_BUMPS = [(0.25, 0.2, 5.0, 1.0), (0.1, 0.08, 4.0, 0.5), (0.3, 0.15, 6.2, 0.7)]
# (model, make_model keywords, n, duration, bumps as (start offset of the
# time center, time halfwidth, x center, x halfwidth))
STREAMING_CASES = [("frw1", {"t_start": 15.0}, n, 0.5, FRW1_BUMPS) for n in (64, 128, 256)]
STREAMING_CASES.append(("frw1_tov", {"r0": 5.0}, 128, 0.1, [(0.05, 0.045, 5.0, 0.5)]))


@pytest.mark.parametrize("name, kw, n, duration, bumps", STREAMING_CASES)
def test_streamed_residual_equals_recorded_history(name, kw, n, duration, bumps):
    """The hook sums the same terms in the same order as the replay of a
    stored history, so the two agree bit for bit."""
    eos = EosParams()
    model = models.make_model(name, eos, **kw)
    history = HistoryRecorder()
    monitors = [diagnostics.WeakResidualMonitor(
        diagnostics.BumpTestFunction(model.t_start + dt, tw, xc, xw))
        for dt, tw, xc, xw in bumps]
    experiments.simulate_model(model, scheme.SimGrid(3.0, 7.0, n), eos, duration,
                               extra_hooks=(history, *monitors))
    for monitor in monitors:
        expected = weak_residual(history, monitor.phi)
        assert expected > 0.0
        assert monitor.value() == expected


def test_degenerate_inputs_raise_package_errors():
    with pytest.raises(RelshockError, match="need at least 3 samples"):
        diagnostics.three_point_derivative([1.0, 2.0], 0.1)
    with pytest.raises(RelshockError, match="shapes"):
        diagnostics.one_norm_error(np.zeros(3), np.zeros(4), 0.1)
    with pytest.raises(RelshockError, match="need at least two errors"):
        diagnostics.convergence_rate([1.0])


def initial_state(variant, **kw):
    eos = EosParams()
    return scheme.init(models.make_model(variant, eos, **kw), scheme.SimGrid(3.0, 7.0, 128), eos)


def test_borders_of_the_matched_initial_slice():
    """The start slice's velocity kink at r0 is bracketed by the two
    borders: the FRW one just inside, the TOV one just outside."""
    state = initial_state("frw1_tov", r0=5.0)
    r, k = diagnostics.detect_frw_border(state)
    assert k == 63 and r == pytest.approx(4.953, abs=1e-3)
    r, k = diagnostics.detect_tov_border(state)
    assert k == 65 and r == pytest.approx(5.016, abs=1e-3)


def test_detectors_return_none_without_a_border():
    """A static sphere has no velocity structure at all, and the FRW
    velocity rises with r throughout, so its derivative keeps its sign:
    no border, reported as None."""
    tov = initial_state("tov")
    assert diagnostics.detect_frw_border(tov) is None
    assert diagnostics.detect_tov_border(tov) is None
    assert diagnostics.detect_frw_border(initial_state("frw1", t_start=15.0)) is None
