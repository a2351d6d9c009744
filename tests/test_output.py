import hashlib
import tracemalloc

import numpy as np
import pytest

from recoilsim import output
from recoilsim.cli import _write_fringe
from recoilsim.fringes import FringePattern, GridSpec
from recoilsim.output import file_digest, format_cell, write_csv
from recoilsim.pgmio import read_pgm


def whole_buffer_csv(header, rows):
    """The CSV text written out: every line joined at once."""
    lines = [",".join(header)]
    for row in rows:
        if isinstance(row, dict):
            lines.append(",".join(format_cell(row.get(col)) for col in header))
        else:
            lines.append(",".join(format_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def mixed_rows(count):
    """Rows of float, int, str, None and NaN cells, and numpy scalars."""
    rng = np.random.default_rng(count)
    values = rng.normal(size=count) * 10.0 ** rng.integers(-300, 300, count)
    return [(float(v), i, "label", None if i % 7 else float("nan"),
             np.float64(v)) for i, v in enumerate(values)]


@pytest.mark.parametrize("count", [0, 1, output.CSV_CHUNK_ROWS - 1,
                                   output.CSV_CHUNK_ROWS,
                                   output.CSV_CHUNK_ROWS + 1,
                                   2 * output.CSV_CHUNK_ROWS + 3])
def test_chunks_write_the_whole_buffer_bytes(tmp_path, count):
    header = ["a", "b", "c", "d", "e"]
    rows = mixed_rows(count)
    path = tmp_path / "rows.csv"
    write_csv(path, header, iter(rows))     # a one-pass iterable
    assert path.read_bytes() == whole_buffer_csv(header, rows)
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_dict_rows_write_the_whole_buffer_bytes(tmp_path):
    header = ["delta_hz", "population_c", "absent"]
    rows = [{"delta_hz": i * 0.1, "population_c": 1 / (i + 1)}
            for i in range(output.CSV_CHUNK_ROWS + 1)]
    path = tmp_path / "scan.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == whole_buffer_csv(header, rows)


class Unprintable:
    def __str__(self):
        raise ValueError("cannot format")


@pytest.mark.parametrize("bad_row", [1, output.CSV_CHUNK_ROWS + 5])
def test_a_row_that_fails_to_format_leaves_no_file(tmp_path, bad_row):
    rows = [(i, 0.5) for i in range(bad_row)] + [(Unprintable(), 1.0)]
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="cannot format"):
        write_csv(path, ["n", "value"], rows)
    assert not list(tmp_path.iterdir())


def test_file_digest_is_the_sha256_of_the_bytes(tmp_path):
    data = np.random.default_rng(0).bytes(2 * output.DIGEST_CHUNK_BYTES + 17)
    for size in (0, output.DIGEST_CHUNK_BYTES, len(data)):
        path = tmp_path / f"{size}.bin"
        path.write_bytes(data[:size])
        assert file_digest(path) == hashlib.sha256(data[:size]).hexdigest()


def peak_bytes(call):
    """The peak of memory traced while ``call`` runs, above what was
    allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_fringe_pgm_is_written_in_less_memory_than_its_samples(tmp_path):
    # the whole-grid scaling held 1.75 samples' worth of temporaries
    samples = np.random.default_rng(0).random((512, 512))
    samples[0, 0] = 1.0
    pattern = FringePattern(GridSpec(pitch=1e-9, shape=samples.shape),
                            samples)
    peak = peak_bytes(lambda: _write_fringe(pattern, tmp_path, "run"))
    assert peak < samples.nbytes
    image, _ = read_pgm(tmp_path / "run.fringe.pgm")
    scaled = samples * 65535
    assert np.array_equal(image, scaled.round(out=scaled).astype("uint16"))


def test_fringe_csv_is_written_in_bounded_memory(tmp_path):
    # the whole-text CSV held 42 samples' worth of row tuples and lines
    samples = np.random.default_rng(1).random(200_000)
    pattern = FringePattern(GridSpec(pitch=1e-9, shape=samples.shape),
                            samples)
    peak = peak_bytes(lambda: _write_fringe(pattern, tmp_path, "run"))
    assert peak < 3 * samples.nbytes
    with open(tmp_path / "run.fringe.csv", "rb") as fh:
        assert sum(1 for _ in fh) == samples.size + 1


def test_fringe_csv_rows_are_position_and_value(tmp_path):
    samples = np.random.default_rng(2).random(1000)
    pattern = FringePattern(GridSpec(pitch=1e-9, shape=samples.shape),
                            samples)
    _write_fringe(pattern, tmp_path, "run")
    rows = [(z * 1e9, v) for z, v in
            zip(pattern.grid.coordinates(0), samples)]
    assert (tmp_path / "run.fringe.csv").read_bytes() == whole_buffer_csv(
        ["position_nm", "value"], rows)
