"""Experiment functions called directly, without the command line."""

import dataclasses

import numpy as np
import pytest

from relshock import diagnostics, experiments, models, scheme


def test_frw_images_agree_after_b_remap(eos):
    """The FRW-1 and FRW-2 images of the matched model describe the same
    solution: after the affine remap of B, every field's distance to the
    fine FRW-1 reference shrinks under refinement, and the remap's scale
    stays near one."""
    runs = [experiments.cross_model_comparison(n, 512, eos, duration_frw1=0.1)
            for n in (64, 128, 256)]
    for name in experiments.FIELDS:
        errors = [run["errors"][name] for run in runs]
        assert errors[0] > errors[1] > errors[2], (name, errors)
    for run in runs:
        assert abs(run["b_scale"] - 1.0) < 0.02, run["b_scale"]


def test_matched_run_side_errors_fall_and_cones_lie_between_borders(eos):
    """The paper's matched-model claim, on [3, 7] to duration 0.5: outside
    the interaction region the solution converges to the exact FRW and TOV
    sides, and the tracked sound cone lies between the two detected borders
    at every resolution.  Every side L1 error falls per doubling; from
    n = 128 its log2 rate lies in [0.65, 1.25] (measured 0.74-1.15; the
    64 -> 128 rates, down to 0.35 for the TOV side's B, are not yet
    asymptotic)."""
    ns = (64, 128, 256, 512)
    runs = [experiments.matched_run("frw1", n, eos, duration=0.5) for n in ns]
    for run in runs:
        assert set(run.side_errors) == {"frw", "tov"}
        assert run.frw_border <= run.sound_left <= run.sound_right <= run.tov_border
    for side in ("frw", "tov"):
        for name in experiments.FIELDS:
            errors = [run.side_errors[side][name] for run in runs]
            assert all(a > b for a, b in zip(errors, errors[1:])), (side, name, errors)
            rates = np.log2(np.divide(errors[1:-1], errors[2:]))
            assert all(0.65 <= rate <= 1.25 for rate in rates), (side, name, rates)


@pytest.mark.parametrize("variant", ["frw1", "frw2", "tov"])
def test_slice_errors_vanish_on_the_sampled_initial_slice(variant, eos):
    """The start slice samples the model at the slice's own positions (cell
    centers for rho and v, edges for A and B), so slice_errors reads exactly
    0.0 against the model, against the slice's own interpolant, and over a
    keep that selects nothing."""
    model = models.make_model(variant, eos)
    state = scheme.init(model, scheme.SimGrid(3.0, 7.0, 128), eos)
    prof = experiments.ProfileSlice.from_state(state)
    zero = dict.fromkeys(experiments.FIELDS, 0.0)
    assert experiments.slice_errors(prof, model.evaluate, state.dx) == zero
    assert experiments.slice_errors(prof, experiments.interpolant(prof), state.dx) == zero
    assert experiments.slice_errors(prof, model.evaluate, state.dx,
                                    keep=lambda r: r > 7.5) == zero


@pytest.mark.parametrize("variant, t_start, r_min, r_max, ns", [
    ("frw1", 15.0, 3.0, 7.0, (64, 128, 256, 512)),
    ("frw2", 15.0, 3.0, 7.0, (64, 128, 256, 512)),
    ("tov", None, 3.0, 7.0, (64, 128, 256, 512)),
    # reversed: the chart ends at r = |t|; its 64 -> 128 v rate is 0.91
    ("frw1", -5.5, 0.1, 2.5, (128, 256, 512)),
])
def test_pure_models_converge_at_first_order(variant, t_start, r_min, r_max, ns, eos):
    """The paper's first claim: against the closed form, every error of rho,
    v, A and B halves per doubling of n (each rate in [0.9, 1.2])."""
    result = experiments.ladder(lambda: models.make_model(variant, eos, t_start=t_start),
                                ns, eos, r_min, r_max, 0.5, reference="model")
    for name in experiments.FIELDS:
        rates = result["rates"][name]
        assert all(0.9 <= rate <= 1.2 for rate in rates), (name, rates)


def test_reversed_collapse_raises_the_black_hole_number(eos):
    """The backward claim's direction: run back to its boundary hit, the
    collapse raises max 2M/r from its start value (3/7) past 0.8, and it
    stays below 1 (no horizon).  Its converged value is still open."""
    arts = experiments.reversed_collapse_run(128, eos)
    assert arts.log.stop_reason == "boundary_hit"
    mu = [row[1] for row in arts.mu.history]
    assert mu[0] == pytest.approx(3.0 / 7.0, abs=1e-3)
    assert 0.8 < max(mu) < 1.0


def test_run_log_dates_the_first_boundary_hit(eos):
    """A reversed run of the benchmark's size (n = 256 on [0.1, 20]) records
    the end of the step that first reached the boundary, before the chops
    that follow it; a short forward matched run records no hit."""
    start = models.make_model("frw1_tov", eos, r0=5.0, reversed_time=True).t_start
    for chop in (False, True):
        log = experiments.reversed_collapse_run(256, eos, continue_chop=chop).log
        t = start
        for dt in log.dt_history[:log.boundary_hit_step]:
            t += dt
        assert start < log.boundary_hit_t == t < 0.0
        assert log.boundary_hit_step + log.chops == log.steps
        assert log.stop_reason == ("grid_exhausted" if chop else "boundary_hit")
    log = experiments.matched_run("frw1", 256, eos, duration=0.1).arts.log
    assert log.stop_reason == "t_end" and log.steps > 10
    assert log.boundary_hit_t is None and log.boundary_hit_step is None


def test_chopping_stops_where_the_boundary_meets_the_peak_of_2m_over_r(eos):
    """A reversed run chopping down to 16 cells at n = 96 reaches the
    maximum of 2M/r first: the run stops right after the chop that put the
    last edge on that radius, so no step follows the last chop."""
    arts = experiments.reversed_collapse_run(96, eos, continue_chop=True, min_cells=16)
    log = arts.log
    assert log.stop_reason == "reached_mu_peak"
    assert (log.steps, log.chops, log.boundary_hit_step) == (367, 74, 294)
    assert log.steps == log.boundary_hit_step + log.chops - 1
    assert arts.state.xe[-1] == diagnostics.black_hole_number(arts.state)[1]


def test_ladder_refuses_an_unknown_reference(eos):
    """A misspelt reference would compare the finest level with itself;
    it is refused before any level runs."""
    def make_model():
        raise AssertionError("no level may run")

    with pytest.raises(ValueError, match="reference must be 'model' or 'fine', got 'mode'"):
        experiments.ladder(make_model, [16, 32], eos, 3.0, 7.0, 0.01, reference="mode")


def test_a_run_at_max_steps_stops_and_ends_its_snapshots_with_its_last_state(monkeypatch, eos):
    """A run that reaches MAX_STEPS before its end time stops with
    "max_steps", and its snapshot list ends with the slice it stopped at."""
    monkeypatch.setattr(experiments, "MAX_STEPS", 3)
    model = models.make_model("frw1", eos)
    arts = experiments.simulate_model(model, scheme.SimGrid(3.0, 7.0, 32), eos, 1.0,
                                      snapshots=5)
    assert (arts.log.steps, arts.log.stop_reason) == (3, "max_steps")
    assert model.t_start < arts.state.t < model.t_start + 1.0
    first, last = arts.snapshots
    assert first.t == model.t_start
    want = experiments.ProfileSlice.from_state(arts.state)
    for f in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(last, f.name), getattr(want, f.name))
