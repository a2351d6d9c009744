import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from recoilsim import pgmio
from recoilsim.errors import ConfigurationError
from recoilsim.pgmio import read_pgm, write_pgm, write_sidecar


@given(hnp.arrays(np.uint16, hnp.array_shapes(min_dims=2, max_dims=2,
                                              min_side=1, max_side=24)))
@settings(max_examples=40, deadline=None)
def test_write_read_round_trip(tmp_path_factory, image):
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    write_pgm(path, image)
    back, maxval = read_pgm(path)
    assert maxval == 65535
    assert np.array_equal(back, image)


def test_eight_bit_read(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 10, 255, 7, 8, 9]))
    img, maxval = read_pgm(path)
    assert maxval == 255
    assert img.shape == (2, 3)
    assert img[0, 2] == 255
    rng = np.random.default_rng(255)
    for shape in [(1, 7), (3, 5)]:
        image = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path.write_bytes(whole_buffer_pgm(image, 255))
        img, maxval = read_pgm(path)
        assert maxval == 255 and img.dtype == np.uint8
        assert np.array_equal(img, image)


def test_header_comments_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n# another\n255\n" + bytes([1, 2]))
    img, maxval = read_pgm(path)
    assert img.tolist() == [[1, 2]]


def test_sixteen_bit_is_big_endian(tmp_path):
    path = tmp_path / "be.pgm"
    write_pgm(path, np.array([[0x0102]], dtype=np.uint16))
    raw = path.read_bytes()
    assert raw.endswith(b"\x01\x02")


def test_rejects_non_p5(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ConfigurationError):
        read_pgm(path)


def test_rejects_truncated_data(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ConfigurationError):
        read_pgm(path)


@pytest.mark.parametrize("width, height", [(0, 0), (0, 5)])
def test_rejects_empty_image(tmp_path, width, height):
    path = tmp_path / "empty.pgm"
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode())
    with pytest.raises(ConfigurationError, match="at least one pixel"):
        read_pgm(path)


def test_rejects_out_of_range_pixels(tmp_path):
    with pytest.raises(ConfigurationError):
        write_pgm(tmp_path / "bad.pgm", np.array([[70000]], dtype=np.int64))


def test_sidecar_format(tmp_path):
    path = tmp_path / "img.txt"
    write_sidecar(path, {"pitch_m": 2.5e-10, "rows_axis": "z"})
    text = path.read_text()
    assert "pitch_m = 2.5e-10" in text
    assert "rows_axis = z" in text


def whole_buffer_pgm(image, maxval=65535):
    """The PGM bytes written out: header, then every pixel at once."""
    height, width = image.shape
    return (f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
            + image.astype(">u2" if maxval > 255 else "u1").tobytes())


@pytest.mark.parametrize("width", [1, 300, pgmio.BLOCK_SAMPLES + 1])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_blocks_write_the_whole_buffer_bytes(tmp_path, width, edge):
    # heights of one block less one row, one block and one block plus one
    rows = max(1, pgmio.BLOCK_SAMPLES // width)
    height = max(1, rows + edge)
    image = np.random.default_rng(height).integers(
        0, 65536, size=(height, width), dtype=np.uint16)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    assert path.read_bytes() == whole_buffer_pgm(image)


def test_one_row_and_transposed_images_write_the_whole_buffer_bytes(
        tmp_path):
    rng = np.random.default_rng(65535)
    for shape in [(1, 7), (3, 5)]:
        image = rng.integers(0, 65536, size=shape, dtype=np.uint16)
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        assert path.read_bytes() == whole_buffer_pgm(image)
    # a transposed view is written in its row order, as tobytes does
    image = rng.integers(0, 65536, size=(9, 4), dtype=np.uint16).T
    write_pgm(path, image)
    assert path.read_bytes() == whole_buffer_pgm(image)


def test_out_of_range_pixels_leave_no_file(tmp_path):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ConfigurationError):
        write_pgm(path, np.array([[1, 65536]]))
    assert not path.exists()
