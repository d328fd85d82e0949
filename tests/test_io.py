import numpy as np
import pytest

from gmspde import io as io_mod
from gmspde.functionals import TRACE_COLUMNS, FunctionalTrace


def make_trace(rows=5, paths=1):
    rng = np.random.default_rng(3)
    data = {name: (rng.standard_normal((paths, rows))
                   * 10.0 ** rng.integers(-300, 300))
            for name in TRACE_COLUMNS[1:]}
    data["chi_min"][0, 0] = -0.0
    data["xi_lp_p"][0, 1] = np.inf
    return FunctionalTrace(times=np.linspace(0.0, 1.0, rows) / 3.0, data=data)


def test_trace_csv_round_trip_is_bitwise(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.csv"
    io_mod.write_trace(trace, path)
    back = io_mod.read_trace_csv(path)
    assert list(back) == list(TRACE_COLUMNS)
    assert back["time"].tobytes() == trace.times.tobytes()
    for name in TRACE_COLUMNS[1:]:
        want = trace.data[name][0]
        assert back[name].tobytes() == want.tobytes(), name


def test_a_trace_of_several_paths_is_rejected_before_the_file_opens(tmp_path):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="a trace file holds one path; "
                                         "the trace has 2"):
        io_mod.write_trace(make_trace(paths=2), path)
    assert not path.exists()


def snapshot(dim):
    shape = (5,) if dim == 1 else (5, 3)
    rng = np.random.default_rng(dim)
    fields = [rng.standard_normal(shape), rng.standard_normal(shape)]
    header = io_mod.SnapshotHeader(dim=dim, shape=shape, field_count=2,
                                   time=0.1 + 0.2)
    return fields, header


@pytest.mark.parametrize("dim", [1, 2])
def test_snapshot_round_trip(dim, tmp_path):
    fields, header = snapshot(dim)
    path = tmp_path / "final.gmsp"
    io_mod.write_snapshot(fields, header, path)
    got_header, got = io_mod.read_snapshot(path)
    assert got_header == header
    assert len(got) == 2
    for a, b in zip(got, fields):
        assert np.array_equal(a, b)


def corrupt(blob, how):
    if how == "magic":
        return b"XXXX" + blob[4:]
    if how == "version":
        return blob[:4] + (2).to_bytes(4, "little") + blob[8:]
    if how == "header":
        return blob[:20]
    if how == "payload":
        return blob[:-8]
    raise AssertionError(how)


@pytest.mark.parametrize("how,message", [
    ("magic", "bad magic"),
    ("version", "unsupported version"),
    ("header", "truncated snapshot header"),
    ("payload", "payload has"),
])
def test_snapshot_reader_rejects_damage(how, message, tmp_path):
    fields, header = snapshot(2)
    path = tmp_path / "final.gmsp"
    io_mod.write_snapshot(fields, header, path)
    path.write_bytes(corrupt(path.read_bytes(), how))
    with pytest.raises(ValueError, match=message):
        io_mod.read_snapshot(path)


# header words (dim, n0, n1, field count) a writer never produces
BAD_HEADERS = {
    "dim 3": ((3.0, 5.0, 3.0, 2.0), 30, "dimension 3 is not 1 or 2"),
    "dim 0": ((0.0, 5.0, 3.0, 2.0), 30, "dimension 0 is not 1 or 2"),
    "size 2.5": ((2.0, 2.5, 3.0, 2.0), 12,
                 "grid size 2.5 is not a positive integer"),
    "size -0.0": ((1.0, -0.0, 1.0, 2.0), 0,
                  "grid size -0 is not a positive integer"),
    "field count 1.5": ((1.0, 5.0, 1.0, 1.5), 5,
                        "field count 1.5 is not a positive integer"),
    "field count 0": ((1.0, 5.0, 1.0, 0.0), 0,
                      "field count 0 is not a positive integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_snapshot_reader_rejects_a_header_it_cannot_mean(case, tmp_path):
    # each payload has the length the truncated header words would imply
    words, values, message = BAD_HEADERS[case]
    path = tmp_path / "final.gmsp"
    path.write_bytes(io_mod._HEADER.pack(io_mod.SNAPSHOT_MAGIC,
                                         io_mod.SNAPSHOT_VERSION, *words, 0.5)
                     + np.zeros(values).tobytes())
    with pytest.raises(ValueError) as err:
        io_mod.read_snapshot(path)
    assert str(err.value) == f"{path}: {message}"


def per_value_csv(header, columns):
    """The CSV bytes of formatting one value at a time: the byte oracle."""
    columns = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for i in range(columns[0].size):
        lines.append(",".join(format(float(c[i]), ".17g") for c in columns))
    return ("\n".join(lines) + "\n").encode()


def test_csv_bytes_match_the_per_value_format(tmp_path):
    floats = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e16, 1.0 / 3.0]
    ints = np.array([2**53 + 1, -(2**53 + 1), 0, -1, 7, 2**62, 10**16, 3],
                    dtype=np.int64)
    bools = np.array([True, False] * 4)
    header = ["float", "int", "bool", "list"]
    columns = [np.array(floats), ints, bools, floats[::-1]]
    path = tmp_path / "out.csv"
    io_mod.write_csv(path, header, columns)
    assert path.read_bytes() == per_value_csv(header, columns)


@pytest.mark.parametrize("length", [3, 5])
def test_csv_columns_of_another_length_are_rejected_before_the_file_opens(
        tmp_path, length):
    # a short column raised IndexError mid-file; a long one was cut off
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"columns differ in length: "):
        io_mod.write_csv(path, ["a", "b"], [np.zeros(4), np.ones(length)])
    assert not path.exists()


def _image(field, path):
    """Grey levels and sidecar (min, max) of a (17, 33) ``field`` as a PGM."""
    io_mod.write_image(field, path)
    header = b"P5\n33 17\n255\n"
    blob = path.read_bytes()
    assert blob[:len(header)] == header and len(blob) == len(header) + 561
    grey = np.frombuffer(blob, dtype=np.uint8, offset=len(header))
    text = path.with_name(path.name + ".bounds.txt").read_text()
    bounds = dict(line.split(" = ") for line in text.splitlines())
    assert sorted(bounds) == ["max", "min"]
    return grey.reshape(17, 33), float(bounds["min"]), float(bounds["max"])


def test_image_inverts_through_its_bounds_sidecar(tmp_path):
    # a (17, 33) field is 17 rows of width 33, one byte a node; min-max
    # scaling to 0..255 inverts to half a grey level, plus rounding
    field = np.random.default_rng(11).standard_normal((17, 33)) * 3.0 + 0.1
    grey, lo, hi = _image(field, tmp_path / "u.pgm")
    assert lo == field.min() and hi == field.max()
    assert grey.min() == 0 and grey.max() == 255
    back = lo + grey / 255.0 * (hi - lo)
    tol = (hi - lo) / 510.0 + 1e-12 * max(abs(lo), abs(hi))
    assert np.abs(back - field).max() <= tol
    # a constant field writes all-zero bytes and equal bounds
    grey, lo, hi = _image(np.full((17, 33), -2.5), tmp_path / "c.pgm")
    assert not grey.any() and lo == hi == -2.5
