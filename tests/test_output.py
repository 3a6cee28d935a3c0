"""CSV and JSON emitters: the block writers give the bytes of a per-value
reference writer, and numpy values in tables and manifests come out as
plain numbers."""

import csv
import io
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relshock import cli, output
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


def reference_samples(xi, rho, v, path):
    """One line per sample, one format call per value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("xi,rho,v\n")
        for k in range(len(xi)):
            fh.write(f"{_fmt(xi[k])},{_fmt(rho[k])},{_fmt(v[k])}\n")


def test_samples_match_per_value_writer(rng, tmp_path):
    xi = np.linspace(-1.0, 1.0, 2 * output._BLOCK_ROWS + 7)
    rho, v = 10.0 ** rng.uniform(-300, 300, xi.size), rng.uniform(-0.999, 0.999, xi.size)
    ref, path = tmp_path / "ref.csv", tmp_path / "samples.csv"
    reference_samples(xi, rho, v, ref)
    assert output.emit_samples(xi, rho, v, str(path)) == str(path)
    assert path.read_bytes() == ref.read_bytes()


def write_rows(columns, end="\r\n"):
    fh = io.StringIO()
    output._write_rows(fh, columns, end)
    return fh.getvalue()


def reference_rows(columns, end="\r\n"):
    """The rows with one `%.10e` per value."""
    return "".join(",".join("%.10e" % float(col[k]) for col in columns) + end
                   for k in range(len(columns[0])))


def assert_rows_match(*columns, end="\r\n"):
    columns = [np.asarray(col) for col in columns]
    assert write_rows(columns, end) == reference_rows(columns, end)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=40))
def test_rows_match_per_value_format(rows):
    """Any doubles, NaN, infinities and subnormals included."""
    columns = np.array(rows, dtype=np.float64).reshape(-1, 3).T
    assert_rows_match(*columns, end="\n")


def test_exact_decimal_ties_round_half_even():
    """Mantissas ending in an exact 5 after ten digits are ties: `%` rounds
    them to even, with a carry into the exponent for the last."""
    ties = np.array([100000000005.0, 100000000015.0, 999999999995.0])
    assert write_rows([ties], "\n") == (
        "1.0000000000e+11\n1.0000000002e+11\n1.0000000000e+12\n")
    assert_rows_match(ties, -ties)


def test_near_ties_round_as_the_exact_value():
    """Doubles a few ulp from a decimal tie whose scaled mantissa, rounded
    in floating point, lands on the other side of the tie from the exact
    value."""
    near = np.array([3.42808042385e+196, 5.49906232315e-34, 6.20882652995e-155])
    assert write_rows([near], "\n") == (
        "3.4280804239e+196\n5.4990623231e-34\n6.2088265300e-155\n")
    assert_rows_match(near, -near)


@pytest.mark.parametrize("offset", [-1.0, 1.0])
def test_wrong_exponent_estimate_still_gives_the_bytes(offset, monkeypatch, rng):
    """The digits do not rest on log10 being accurate: with every exponent
    estimate off by one the values take the `%` path."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + offset)
    values = 10.0 ** rng.uniform(-280, 280, 300)
    assert_rows_match(values, -values)


def test_neighbours_of_powers_of_ten_match_per_value_format():
    """The exponent estimate is off by one on one side of each 10^k."""
    powers = np.array([float(f"1e{k}") for k in range(-20, 21)])
    assert_rows_match(np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf))


def test_range_edges_and_special_values_match_per_value_format():
    """Signed zeros, the smallest subnormal and normal, both sides of the
    table range 1e-290 <= |x| < 1e290, the largest double, inf and NaN."""
    values = np.array([
        0.0, -0.0, 5e-324, 2.2250738585072014e-308,
        np.nextafter(1e-290, 0.0), 1e-290, np.nextafter(1e290, 0.0), 1e290,
        1.7976931348623157e308, np.inf, np.nan,
    ])
    assert_rows_match(values, -values)
    assert write_rows([np.array([-0.0, 5e-324])], "\n") == (
        "-0.0000000000e+00\n4.9406564584e-324\n")


def test_float32_empty_and_mixed_exponent_columns_match():
    assert_rows_match(np.float32([0.1, -2.5e-30, 3.4e38, 1e-45]),
                      np.float32([1.0, -0.0, 7.0, 65504.0]))
    assert write_rows([np.zeros(0), np.zeros(0)]) == ""
    mixed = np.array([1.5e-5, -2.5e-150, 3.25e99, -4.75e100, 0.5, -6e-100, 7e299, -8.125])
    assert_rows_match(mixed, -mixed[::-1], end="\n")


def test_lookup_tables_hold_the_format_of_their_index():
    """Each entry, with its zero padding removed, is the `%` text of its
    index; the scale entries are powers of ten to within one ulp."""
    def entries(table, width):
        return [row.tobytes().rstrip(b"\0") for row in table.view(np.uint8).reshape(-1, width)]

    head, quad, exp, scale = output._tables()
    assert entries(head, 4) == [b"%d.%02d" % divmod(i, 100) for i in range(1000)]
    assert entries(quad, 4) == [b"%04d" % i for i in range(10_000)]
    exponents = range(-output._E_MAX, output._E_MAX + 1)
    assert entries(exp, 8) == [b"e%+03d" % e for e in exponents]
    powers = np.array([float(f"1e{10 - e}") for e in exponents])
    assert np.all(np.abs(scale.view(np.int64) - powers.view(np.int64)) <= 1)


def test_importing_output_builds_no_lookup_table():
    """The tables are built on the first formatted block, not at import, so a
    process that writes no snapshot does not hold them."""
    probe = ("import relshock.output as o; n = o._tables.cache_info().currsize; "
             "o._tables(); print(n, o._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=pathlib.Path(output.__file__).parents[1])
    assert out.stdout.split() == ["0", "1"]


def test_cli_outputs_match_the_per_value_writers(tmp_path, monkeypatch):
    """Every CSV that `simulate` (3 snapshots) and `riemann` write equals
    the per-value writers' file for the same data."""
    written = []

    def spy(emit, reference):
        def wrapper(*args):
            written.append((reference, args))
            return emit(*args)
        return wrapper

    monkeypatch.setattr(output, "emit_plotdata", spy(output.emit_plotdata, reference_plotdata))
    monkeypatch.setattr(output, "emit_samples", spy(output.emit_samples, reference_samples))
    sim, fan = tmp_path / "sim", tmp_path / "fan"
    assert cli.main(["simulate", "--model", "frw1_tov", "--n", "64", "--duration", "0.1",
                     "--snapshots", "3", "--outdir", str(sim)]) == cli.EXIT_OK
    assert cli.main(["riemann", "--rho-l", "2", "--v-l", "0.5", "--rho-r", "1",
                     "--v-r", "-0.4", "--xi-min", "-3", "--xi-max", "3",
                     "--outdir", str(fan)]) == cli.EXIT_OK
    csvs = sorted(sim.glob("*.csv")) + sorted(fan.glob("*.csv"))
    assert len(csvs) == len(written) >= 4
    for k, (reference, args) in enumerate(written):
        *data, path = args
        ref = tmp_path / f"ref_{k}.csv"
        reference(*data, ref)
        assert pathlib.Path(path).read_bytes() == ref.read_bytes(), path


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


def plain(obj):
    """numpy scalars and arrays as plain numbers and lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


def reference_manifest(payload, path):
    """The indented writer: json's pure-Python encoder, two-space indent."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=plain)
        fh.write("\n")


def compact_manifest(payload) -> bytes:
    """One `json.dumps(value, sort_keys=True)` per sorted key, a key a line."""
    return ("{" + ",".join(
        "\n  " + json.dumps(key) + ": " + json.dumps(payload[key], sort_keys=True, default=plain)
        for key in sorted(payload)) + "\n}\n").encode("ascii")


def test_manifest_parses_as_the_indented_writer(tmp_path):
    """One top-level key per line, each value compact; parsed, it equals
    the indented writer's file, numpy scalars and arrays included.  The
    bytes are pinned for a list longer than two CSV blocks, nested rows, an
    empty list, an empty dict and numpy scalars."""
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
    assert new.read_bytes() == compact_manifest(payload)
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
