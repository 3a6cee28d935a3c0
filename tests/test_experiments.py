"""Experiment functions called directly, without the command line."""

from relshock import experiments


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
