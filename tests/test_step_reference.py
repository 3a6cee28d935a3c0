"""The whole step, pinned: the final fields, step and chop counts and stop
reasons of four short runs against a stored reference.

The reference holds a pure frw1 run, matched frw1_tov and frw2_tov runs and
a reversed frw1_tov run that chops cells after its boundary hit.
Regenerate it only for a deliberate change of the step's numbers, with

    PYTHONPATH=src python tests/test_step_reference.py
"""

from pathlib import Path

import numpy as np
import pytest

from relshock import models, scheme
from relshock.experiments import reversed_collapse_run, simulate_model
from relshock.fluid import EosParams

REFERENCE = Path(__file__).parent / "data" / "step_reference.npz"
FIELDS = ("rho", "v", "A", "B", "M")
# drift allowed per field, relative to the field's largest magnitude
DRIFT = 1e-12


def reference_runs():
    eos = EosParams()
    grid = scheme.SimGrid(3.0, 7.0, 256)
    return {
        "frw1": lambda: simulate_model(models.make_model("frw1", eos, t_start=15.0),
                                       grid, eos, 0.05),
        "frw1_tov": lambda: simulate_model(models.make_model("frw1_tov", eos, r0=5.0),
                                           grid, eos, 0.05),
        "frw2_tov": lambda: simulate_model(models.make_model("frw2_tov", eos, r0=5.0),
                                           grid, eos, 0.05),
        "reversed": lambda: reversed_collapse_run(128, eos, continue_chop=True),
    }


def record(arts) -> dict:
    state, log = arts.state, arts.log
    out = {name: getattr(state, name) for name in FIELDS}
    out.update(steps=log.steps, chops=log.chops, stop_reason=log.stop_reason)
    return out


def write_reference(path=REFERENCE):
    arrays = {}
    for run, make in reference_runs().items():
        for key, value in record(make()).items():
            arrays[f"{run}/{key}"] = np.asarray(value)
    np.savez_compressed(path, **arrays)


@pytest.mark.parametrize("run", list(reference_runs()))
def test_run_matches_the_stored_reference(run):
    got = record(reference_runs()[run]())
    with np.load(REFERENCE, allow_pickle=False) as ref:
        for key in ("steps", "chops", "stop_reason"):
            assert got[key] == ref[f"{run}/{key}"].item(), key
        for name in FIELDS:
            want = ref[f"{run}/{name}"]
            assert got[name].shape == want.shape, name
            bound = DRIFT * np.max(np.abs(want))
            assert np.max(np.abs(got[name] - want)) <= bound, name


if __name__ == "__main__":
    write_reference()
