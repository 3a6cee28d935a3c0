"""CSV and JSON emitters: the block writers give the bytes of a per-value
reference writer, and numpy values in tables and manifests come out as
plain numbers."""

import csv
import json

import numpy as np
import pytest

from relshock import output
from relshock.experiments import ProfileSlice


def _fmt(x) -> str:
    return f"{float(x):.10e}"


def reference_plotdata(prof, path):
    """One `csv.writer` row per cell, one format call per value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(output.SNAPSHOT_COLUMNS)
        for i in range(prof.x.size):
            a = prof.A[i]
            b = prof.B[i]
            writer.writerow([
                _fmt(prof.x[i]), _fmt(prof.rho[i]), _fmt(prof.v[i]),
                _fmt(a), _fmt(b), _fmt(prof.M[i]),
                _fmt(np.sqrt(a * b)), _fmt(1.0 - a),
            ])


def reference_table(result, path):
    names = list(result["errors"].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["n"]
        for name in names:
            header += [f"{name}_error", f"{name}_rate"]
        writer.writerow(header)
        for k, n in enumerate(result["ns"]):
            row = [str(n)]
            for name in names:
                rate = "" if k == 0 else f"{result['rates'][name][k - 1]:.4f}"
                row += [_fmt(result["errors"][name][k]), rate]
            writer.writerow(row)


def profile(rng, n, edges):
    """A slice of n cells with `edges` metric entries, A and B kept positive."""
    x = np.sort(rng.uniform(0.1, 20.0, n))
    return ProfileSlice(
        t=1.0, x=x, xe=np.linspace(0.0, 20.0, edges),
        rho=10.0 ** rng.uniform(-6, 12, n), v=rng.uniform(-0.999, 0.999, n),
        A=rng.uniform(1e-3, 1.0, edges), B=rng.uniform(0.5, 2.0, edges),
        M=rng.uniform(-1.0, 5.0, edges),
    )


def assert_same_plotdata(prof, tmp_path):
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    reference_plotdata(prof, ref)
    assert output.emit_plotdata(prof, str(new)) == str(new)
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("n", [
    1, output._BLOCK_ROWS - 1, output._BLOCK_ROWS, 2 * output._BLOCK_ROWS + 3,
])
@pytest.mark.parametrize("extra_edge", [1, 0], ids=["state", "emit_model"])
def test_plotdata_matches_per_value_writer(n, extra_edge, rng, tmp_path):
    """Edge arrays one longer than x (a state's slice) or as long as x (the
    emit-model slice), for row counts on and off the block size."""
    assert_same_plotdata(profile(rng, n, n + extra_edge), tmp_path)


def test_plotdata_extreme_values_match_per_value_writer(rng, tmp_path):
    """Three-digit exponents, signed zeros and negative velocities."""
    prof = profile(rng, 5, 6)
    prof.x[:] = [1e-300, 1e300, 0.5, 1.0, 2.0]
    prof.rho[:] = [1e300, 1e-300, 1.0, 2.5e-100, 3.0]
    prof.v[:] = [-0.0, -0.999, 0.0, -1e-300, -0.5]
    prof.A[:5] = [1e-300, 1.0, 0.5, 0.25, 1e-5]
    prof.B[:5] = [1e300, 1e-300, 2.0, 4.0, 1e5]
    prof.M[:5] = [-0.0, 1e300, -1e-300, 0.0, -2.0]
    assert_same_plotdata(prof, tmp_path)
    first = (tmp_path / "new.csv").read_text().splitlines()[1]
    assert first.startswith("1.0000000000e-300,1.0000000000e+300,-0.0000000000e+00,")


def test_plotdata_with_no_cells_writes_the_header(rng, tmp_path):
    assert_same_plotdata(profile(rng, 0, 1), tmp_path)
    assert (tmp_path / "new.csv").read_bytes() == b"r,rho,v,A,B,M,sqrtAB,mu\r\n"


def test_samples_match_per_value_writer(rng, tmp_path):
    xi = np.linspace(-1.0, 1.0, 2 * output._BLOCK_ROWS + 7)
    rho, v = 10.0 ** rng.uniform(-300, 300, xi.size), rng.uniform(-0.999, 0.999, xi.size)
    expected = "xi,rho,v\n" + "".join(
        f"{xi[k]:.10e},{rho[k]:.10e},{v[k]:.10e}\n" for k in range(xi.size))
    path = tmp_path / "samples.csv"
    assert output.emit_samples(xi, rho, v, str(path)) == str(path)
    assert path.read_bytes() == expected.encode()


def test_table_with_numpy_values_matches_csv_writer(tmp_path):
    """Errors as a numpy array and as a list of numpy scalars."""
    result = {
        "ns": [64, 128, 256],
        "errors": {
            "rho": np.array([1.5e-3, 7.4e-4, 3.7e-4]),
            "v": [np.float64(2e-300), np.float64(-0.0), np.float32(0.25)],
        },
        "rates": {"rho": np.array([1.0196, 0.99998]),
                  "v": [np.float64(1.0), np.float64(-2.5)]},
    }
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    reference_table(result, ref)
    assert output.emit_table(result, str(new)) == str(new)
    assert new.read_bytes() == ref.read_bytes()
    assert new.read_bytes().splitlines()[1] == (
        b"64,1.5000000000e-03,,2.0000000000e-300,")


def test_manifest_writes_numpy_values_as_plain_numbers(tmp_path):
    payload = {
        "steps": np.int64(49),
        "t_final": np.float64(15.02),
        "dt_history": np.array([1e-3, 2e-3]),
        "nested": {"ints": np.arange(3), "row": [np.float64(0.5), 1]},
    }
    path = tmp_path / "manifest.json"
    assert output.emit_manifest(payload, str(path)) == str(path)
    text = path.read_text()
    assert text.endswith("}\n")
    assert json.loads(text) == {
        "steps": 49, "t_final": 15.02, "dt_history": [1e-3, 2e-3],
        "nested": {"ints": [0, 1, 2], "row": [0.5, 1]},
    }
    assert list(json.loads(text)) == sorted(payload)


def reference_manifest(payload, path):
    """The indented writer: json's pure-Python encoder, two-space indent."""
    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(f"cannot serialize {type(obj)}")

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def test_manifest_parses_as_the_indented_writer(tmp_path):
    """One top-level key per line, each value compact; parsed, it equals
    the indented writer's file, numpy scalars and arrays included."""
    rng = np.random.default_rng(3)
    payload = {
        "steps": np.int64(1030),
        "stop_reason": "grid_exhausted",
        "dt_history": list(rng.uniform(1e-3, 2e-3, 2 * output._BLOCK_ROWS + 1)),
        "cones": [[np.float64(t), {"sound_left": np.float64(t / 2), "clamped": bool(t > 0.5)}]
                  for t in rng.uniform(0.0, 1.0, output._BLOCK_ROWS)],
        "mu_history": np.column_stack([rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)]),
        "eos": {"sigma": 1.0 / 3.0, "sizes": np.arange(4, dtype=np.int32)},
        "empty": {}, "no_chops": [], "none": None, "flag": np.float32(0.25),
        "one": [np.int64(7)],
    }
    new, ref = tmp_path / "new.json", tmp_path / "ref.json"
    output.emit_manifest(payload, str(new))
    reference_manifest(payload, str(ref))
    text = new.read_text()
    assert json.loads(text) == json.loads(ref.read_text())
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
    assert [json.loads("{" + line.rstrip(",") + "}").popitem()[0]
            for line in lines[1:-1]] == sorted(payload)
    empty = tmp_path / "empty.json"
    output.emit_manifest({}, str(empty))
    assert empty.read_text() == "{}\n"


def test_manifest_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError, match="cannot serialize"):
        output.emit_manifest({"x": object()}, str(tmp_path / "manifest.json"))
