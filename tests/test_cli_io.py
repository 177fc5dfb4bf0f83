import contextlib
import io
import json
import math
import os
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conetomo import cli, inversion, phantoms, radon
from conetomo.cli import main
from conetomo.cone import cone_forward_sinogram
from conetomo.formats import (
    read_cone_sinogram,
    read_image_raw,
    read_radon_sinogram,
    write_cone_sinogram,
    write_image_raw,
    write_pgm16,
    write_radon_sinogram,
)
from conetomo.geometry import ConeSinogram, ImageGrid, RadonSinogram
from conetomo.inversion import CameraConfig, detector_positions
from conetomo.phantoms import load_phantom_file, overlapping_disks_phantom, radon_analytic
from conetomo.radon import fbp_radon_inversion

from conftest import run_child, traced_peak


def test_radon_sinogram_bit_exact_roundtrip(tmp_path, rng):
    for trial in range(5):
        vals = rng.standard_normal((7, 11)) * 10.0 ** rng.integers(-8, 8)
        vals[0, 0] = -0.0
        sino = RadonSinogram(7, 11, float(rng.uniform(0.5, 3.0)), vals)
        path = tmp_path / f"r{trial}.sg"
        write_radon_sinogram(path, sino)
        back = read_radon_sinogram(path)
        assert back.values.tobytes() == sino.values.tobytes()
        assert back.s_max == sino.s_max
        assert (back.n_theta, back.n_s) == (7, 11)


def test_cone_sinogram_bit_exact_roundtrip(tmp_path, rng):
    for trial in range(5):
        verts = rng.uniform(-2, 2, (3, 2))
        vals = rng.standard_normal((3, 8, 5)) * 10.0 ** rng.integers(-8, 8)
        sino = ConeSinogram(verts, 8, 5, vals)
        path = tmp_path / f"c{trial}.sg"
        write_cone_sinogram(path, sino)
        back = read_cone_sinogram(path)
        assert back.values.tobytes() == sino.values.tobytes()
        assert back.vertices.tobytes() == sino.vertices.tobytes()
        assert (back.n_beta, back.n_psi) == (8, 5)


def test_cone_sinogram_written_in_chunks(tmp_path, rng):
    verts = rng.uniform(-2, 2, (5, 2))
    vals = rng.standard_normal((5, 4, 3))
    whole = tmp_path / "whole.sg"
    write_cone_sinogram(whole, ConeSinogram(verts, 4, 3, vals))

    def part(a, b):
        return ConeSinogram(verts[a:b], 4, 3, vals[a:b])

    path = tmp_path / "chunked.sg"
    write_cone_sinogram(path, (part(a, b) for a, b in ((0, 2), (2, 2), (2, 5))), verts)
    assert path.read_bytes() == whole.read_bytes()

    def fails_after_one_chunk():
        yield part(0, 2)
        raise ValueError("cone sinogram values must be finite")

    # chunks that miss, repeat or reorder vertices, change the lattice or
    # fail to be made leave no file, not even the temporary one
    bad = tmp_path / "bad.sg"
    for chunks in (
        [],
        [part(0, 2)],
        [part(0, 2), part(3, 5)],
        [part(2, 5), part(0, 2)],
        [part(0, 2), part(2, 5), part(4, 5)],
        [part(0, 2), ConeSinogram(verts[2:], 3, 3, vals[2:, :3])],
        fails_after_one_chunk(),
    ):
        with pytest.raises(ValueError):
            write_cone_sinogram(bad, chunks, verts)
        assert sorted(os.listdir(tmp_path)) == ["chunked.sg", "whole.sg"]


def test_image_raw_roundtrip(tmp_path, rng):
    grid = ImageGrid(9, 0.1, rng.standard_normal((9, 9)))
    path = tmp_path / "img.raw"
    write_image_raw(path, grid)
    assert os.path.getsize(path) == 20 + 8 * 81
    back = read_image_raw(path)
    assert back.values.tobytes() == grid.values.tobytes()
    assert back.half_extent == 0.1  # the IMG2 header keeps a float64 extent
    # the older IMG1 header (float32 extent) still reads
    legacy = tmp_path / "img1.raw"
    legacy.write_bytes(b"IMG1" + struct.pack("<IIf", 9, 9, 1.25) + path.read_bytes()[20:])
    old = read_image_raw(legacy)
    assert old.half_extent == 1.25
    assert old.values.tobytes() == grid.values.tobytes()


# the extents the containers accept: (2 * extent)^2 must stay finite
_extents = st.floats(min_value=1e-300, max_value=6.7e153)
_samples = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), extent=_extents)
def test_formats_bit_exact_over_extents(tmp_path, data, extent):
    n_px = data.draw(st.integers(2, 5))
    grid = ImageGrid(n_px, extent, data.draw(arrays(np.float64, (n_px, n_px), elements=_samples)))
    write_image_raw(tmp_path / "g.raw", grid)
    back = read_image_raw(tmp_path / "g.raw")
    assert back.half_extent == extent and back.values.tobytes() == grid.values.tobytes()

    n_theta, n_s = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 5))
    vals = data.draw(arrays(np.float64, (n_theta, n_s), elements=_samples))
    radon = RadonSinogram(n_theta, n_s, extent, vals)
    write_radon_sinogram(tmp_path / "r.sg", radon)
    back = read_radon_sinogram(tmp_path / "r.sg")
    assert back.s_max == extent and back.values.tobytes() == radon.values.tobytes()

    n_vert, n_beta, n_psi = (data.draw(st.integers(1, 3)) for _ in range(3))
    verts = data.draw(arrays(np.float64, (n_vert, 2), elements=st.floats(-extent, extent)))
    vals = data.draw(arrays(np.float64, (n_vert, n_beta, n_psi), elements=_samples))
    cone = ConeSinogram(verts, n_beta, n_psi, vals)
    write_cone_sinogram(tmp_path / "c.sg", cone)
    back = read_cone_sinogram(tmp_path / "c.sg")
    assert back.vertices.tobytes() == cone.vertices.tobytes()
    assert back.values.tobytes() == cone.values.tobytes()


def test_format_corruption_detected(tmp_path):
    sino = RadonSinogram(2, 3, 1.0, np.zeros((2, 3)))
    path = tmp_path / "x.sg"
    write_radon_sinogram(path, sino)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad1.sg"
    bad_magic.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(ValueError):
        read_radon_sinogram(bad_magic)
    truncated = tmp_path / "bad2.sg"
    truncated.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        read_radon_sinogram(truncated)
    trailing = tmp_path / "bad3.sg"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        read_radon_sinogram(trailing)
    with pytest.raises(ValueError):
        read_cone_sinogram(path)  # cone reader on radon file
    cone = tmp_path / "c.sg"
    write_cone_sinogram(cone, ConeSinogram(np.zeros((1, 2)), 8, 4, np.zeros((1, 8, 4))))
    raw = cone.read_bytes()
    # the four lattice doubles follow the 8-byte magic and three u32 counts
    other = tmp_path / "bad4.sg"
    other.write_bytes(raw[:20] + struct.pack("<4d", 9.0, 9.0, 9.0, 9.0) + raw[52:])
    with pytest.raises(ValueError):
        read_cone_sinogram(other)
    empty = tmp_path / "bad5.sg"
    empty.write_bytes(raw[:12] + struct.pack("<I", 0) + raw[16:])
    with pytest.raises(ValueError):
        read_cone_sinogram(empty)
    # rasters: a foreign magic, a header cut short, a non-square header
    image = tmp_path / "g.raw"
    write_image_raw(image, ImageGrid(3, 1.0, np.zeros((3, 3))))
    raw = image.read_bytes()
    cases = {
        b"IMG9" + raw[4:]: r"^not a raster file: magic b'IMG9'$",
        raw[:2]: "^truncated file while reading magic$",
        raw[:10]: "^truncated file while reading raster header$",
        raw[:4] + struct.pack("<IId", 3, 2, 1.0) + raw[20:-24]: "^raster must be square, got 3x2$",
    }
    for k, (data, message) in enumerate(cases.items()):
        bad = tmp_path / f"bad{k}.raw"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            read_image_raw(bad)


def test_readers_adopt_their_payloads(tmp_path, rng):
    # each reader reads its payload into the array its container keeps, so
    # at its peak it holds one copy of the payload, not two
    # 2 MB payloads, so the reader's own small objects stay in the margin
    image = ImageGrid(512, 1.0, rng.standard_normal((512, 512)))
    radon = RadonSinogram(256, 1025, 1.0, rng.standard_normal((256, 1025)))
    cone = ConeSinogram(rng.uniform(-1, 1, (8, 2)), 128, 256, rng.standard_normal((8, 128, 256)))
    cases = (
        (write_image_raw, read_image_raw, image),
        (write_radon_sinogram, read_radon_sinogram, radon),
        (write_cone_sinogram, read_cone_sinogram, cone),
    )
    for write, read, item in cases:
        path = tmp_path / read.__name__
        write(path, item)
        backs = []
        peak = traced_peak(lambda: backs.append(read(path)))
        back = backs.pop()
        assert back.values.tobytes() == item.values.tobytes()
        assert peak <= 1.1 * item.values.nbytes, (read.__name__, peak / item.values.nbytes)
    # a header whose counts the file cannot hold is a truncated file, found
    # before any payload is allocated
    huge = tmp_path / "huge.sg"
    n = 2**32 - 1
    lattice = struct.pack("<4d", 0.0, 2 * math.pi / n, 0.5 * math.pi / n, math.pi / n)
    huge.write_bytes(b"CONESG01" + struct.pack("<III", n, n, n) + lattice)
    with pytest.raises(ValueError, match="truncated file while reading vertices"):
        read_cone_sinogram(huge)


def test_read_cone_sinogram_rejects_nan_vertex(tmp_path):
    # a hand-written cone.sg whose second vertex is NaN, on the standard
    # 4 x 3 lattice with finite values: the reader names the vertices
    path = tmp_path / "cone.sg"
    lattice = struct.pack("<4d", 0.0, 2 * math.pi / 4, 0.5 * math.pi / 3, math.pi / 3)
    verts = np.array([[0.5, 0.0], [math.nan, 1.0]], dtype="<f8")
    path.write_bytes(b"CONESG01" + struct.pack("<III", 2, 4, 3) + lattice + verts.tobytes() + bytes(8 * 2 * 4 * 3))
    with pytest.raises(ValueError, match="vertices must be finite"):
        read_cone_sinogram(path)


# a valid file of each kind, small enough that a cut or a flip lands
# anywhere in it: (writer, reader, item, (offset, format) of each header
# count, extent and lattice double)
_FUZZ_FILES = {
    "IMG2": (write_image_raw, read_image_raw, ImageGrid(3, 0.75, np.arange(9.0).reshape(3, 3)), ((4, "<I"), (8, "<I"), (12, "<d"))),
    "RADSG001": (
        write_radon_sinogram, read_radon_sinogram, RadonSinogram(2, 3, 1.5, np.arange(6.0).reshape(2, 3) - 2.5),
        ((8, "<I"), (12, "<I"), (16, "<d")),
    ),
    "CONESG01": (
        write_cone_sinogram, read_cone_sinogram, ConeSinogram([[0.5, -0.25], [-1.0, 0.0]], 4, 3, np.arange(24.0).reshape(2, 4, 3)),
        ((8, "<I"), (12, "<I"), (16, "<I"), *((20 + 8 * k, "<d") for k in range(4))),
    ),
}
_counts = st.one_of(st.integers(0, 9), st.just(2**32 - 1), st.integers(0, 2**32 - 1))


@st.composite
def _corrupted(draw, raw: bytes, fields):
    """``raw`` with bytes flipped, cut, appended, or one header field rewritten."""
    how = draw(st.sampled_from(["flip", "cut", "append", "field"]))
    if how == "flip":
        out = bytearray(raw)
        for at, mask in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), min_size=1, max_size=4)):
            out[at] ^= mask
        return bytes(out)
    if how == "cut":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "append":
        return raw + draw(st.binary(min_size=1, max_size=16))
    at, fmt = draw(st.sampled_from(fields))
    value = draw(_counts if fmt == "<I" else st.floats())
    return raw[:at] + struct.pack(fmt, value) + raw[at + struct.calcsize(fmt) :]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(sorted(_FUZZ_FILES)))
def test_readers_read_finite_or_raise_value_error_on_corrupt_files(tmp_path, data, kind):
    # each reader's contract on a damaged file: a container with finite
    # values, or ValueError, never another exception or a warning
    write, read, item, fields = _FUZZ_FILES[kind]
    path = tmp_path / kind
    write(path, item)
    path.write_bytes(data.draw(_corrupted(path.read_bytes(), fields)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            back = read(path)
        except ValueError:
            return
    assert np.isfinite(back.values).all()


def test_analytic_radon_memory_bounded():
    # reconstruct --method fbp makes its 720 x 1025 sinogram _ROW_BUDGET
    # entries of rows at a time (63 rows, the last chunk 27) into the array
    # the sinogram adopts; radon_analytic over the whole lattice peaked at
    # 5.0 sinograms (measured now: 1.35). The values are those of the
    # one-shot evaluation, bit for bit
    phantom = overlapping_disks_phantom()
    s_max = math.sqrt(2.0)
    sinos = []
    peak = traced_peak(lambda: sinos.append(cli._analytic_radon(phantom, 720, 1025, s_max)))
    sino = sinos.pop()
    assert peak <= 1.5 * sino.values.nbytes, peak / sino.values.nbytes
    thetas = np.arange(720) * (math.pi / 720)
    offsets = np.linspace(-s_max, s_max, 1025)
    assert sino.values.tobytes() == radon_analytic(phantom, thetas[:, None], offsets[None, :]).tobytes()


def test_cli_fbp_rows_on_demand_match_whole_sinogram(tmp_path, monkeypatch):
    # reconstruct --method fbp makes its analytic rows as backprojection
    # pulls them; a budget of 3 orbits of 129 offsets makes 8 pulls of at
    # most 12 rows on 90 angles. The raster is the one FBP gives on the
    # whole analytic sinogram that forward --method radon writes, bit for bit
    pf = tmp_path / "two.txt"
    pf.write_text("disk 0.1 -0.2 0.4 1.0\ndisk -0.3 0.25 0.2 0.5\n")
    monkeypatch.setattr(radon, "_ROW_BUDGET", 3 * 4 * 129)
    pulled = []

    def counted(phantom, angle, offset):
        pulled.append(angle.shape[0])
        return radon_analytic(phantom, angle, offset)

    monkeypatch.setattr(cli, "radon_analytic", counted)
    out = tmp_path / "o"
    argv = ["reconstruct", "--phantom", str(pf), "--out", str(out), "--method", "fbp", "--npx", "48", "--ntheta", "90", "--ns", "129"]
    assert main(argv) == 0
    assert len(pulled) == 8 and max(pulled) <= 12 and sum(pulled) == 90
    whole = cli._analytic_radon(load_phantom_file(str(pf)), 90, 129, math.sqrt(2.0))
    want = fbp_radon_inversion(whole, 48, 1.0)
    assert read_image_raw(out / "recon.raw").values.tobytes() == want.values.tobytes()


def test_cli_fbp_memory_bounded(tmp_path):
    # reconstruct --method fbp at 720 x 1025 -> 512 px holds no whole
    # sinogram: its analytic rows are made, ramp-filtered and backprojected
    # a chunk at a time. What is left is backprojection's 8.4 MB of
    # accumulators and the 2.1 MB raster. The analytic sinogram and its
    # filtered copy (5.9 MB each) peaked at 23.5 MB; measured now 11.3 MB,
    # the bound 13 MB
    pf = tmp_path / "fig5.txt"
    pf.write_text("".join(f"disk {d.center[0]!r} {d.center[1]!r} {d.radius!r} {d.density!r}\n" for d in overlapping_disks_phantom().disks))
    flags = ["--method", "fbp", "--npx", "512", "--ntheta", "720", "--ns", "1025"]
    # a first run loads the sparse kernel outside the trace
    assert main(["reconstruct", "--phantom", str(pf), "--out", str(tmp_path / "warm"), "--method", "fbp", "--npx", "8"]) == 0
    codes = []
    peak = traced_peak(lambda: codes.append(main(["reconstruct", "--phantom", str(pf), "--out", str(tmp_path / "o"), *flags])))
    assert codes == [0]
    assert peak <= 13e6, peak


def test_pgm_scaling_and_orientation(tmp_path):
    vals = np.zeros((2, 3))
    vals[1, 0] = 4.0  # (x min, y max): top-left of the rendered image
    path = tmp_path / "img.pgm"
    vmin, vmax = write_pgm16(path, vals)
    assert (vmin, vmax) == (0.0, 4.0)
    raw = path.read_bytes()
    header = b"P5\n3 2\n65535\n"
    assert raw.startswith(header)
    pix = np.frombuffer(raw[len(header):], dtype=">u2").reshape(2, 3)
    assert pix[0, 0] == 65535  # flipped to the top row
    assert pix[1, 0] == 0
    # constant image maps to all zeros
    write_pgm16(path, np.full((2, 2), 3.3))
    flat = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert np.all(flat == 0)
    with pytest.raises(ValueError, match="^expected a 2D array$"):
        write_pgm16(path, np.zeros(4))
    # a span so small that 65535 / span overflows still scales to 0..65535
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_pgm16(path, np.array([[0.0, 1e-306], [2e-306, 3e-306]]))
    tiny = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert tiny.tolist() == [43690, 65535, 0, 21845]


def test_pgm_writer_memory_bounded(tmp_path, rng):
    # the preview is scaled, rounded and written a chunk of rows at a time,
    # each chunk one float temporary and its 16-bit copy: 0.32 rasters
    # beyond a 512 px input, a quarter of it a chunk (a whole-raster
    # temporary peaked at 1.25, a copy per step at 2.25); the bound is 0.4
    vals = rng.standard_normal((512, 512))
    peak = traced_peak(lambda: write_pgm16(tmp_path / "img.pgm", vals))
    assert peak < 0.4 * vals.nbytes


def write_disk_phantom(tmp_path):
    path = tmp_path / "disk.txt"
    path.write_text("# unit disk\ndisk 0 0 0.5 1.0\n")
    return str(path)


def test_cli_phantom_products(tmp_path):
    pf = write_disk_phantom(tmp_path)
    out = str(tmp_path / "o")
    assert main(["phantom", "--phantom", pf, "--out", out, "--npx", "32"]) == 0
    grid = read_image_raw(os.path.join(out, "phantom.raw"))
    assert grid.n_px == 32
    assert grid.values.max() == pytest.approx(1.0)
    assert os.path.exists(os.path.join(out, "phantom.pgm"))
    assert os.path.exists(os.path.join(out, "phantom_scale.csv"))
    cfg = open(os.path.join(out, "run.cfg")).read()
    assert "npx = 32" in cfg and "extent = 1.0" in cfg


def test_cli_empty_phantom(tmp_path):
    pf = tmp_path / "empty.txt"
    pf.write_text("# nothing here\n")
    out = str(tmp_path / "o")
    assert main(["phantom", "--phantom", str(pf), "--out", out, "--npx", "16"]) == 0
    grid = read_image_raw(os.path.join(out, "phantom.raw"))
    assert np.all(grid.values == 0.0)
    pgm = open(os.path.join(out, "phantom.pgm"), "rb").read()
    assert set(pgm.split(b"65535\n", 1)[1]) == {0}


def test_cli_rejects_non_finite_phantom(tmp_path, capsys):
    # a NaN center once made an all-zero raster and reported rel L2 error 0,
    # and a NaN radius beside a valid disk was dropped silently
    for i, line in enumerate(("disk nan 0 0.3 1.0", "disk 0 0 nan 1.0", "gauss 0 0 0.2 inf")):
        pf = tmp_path / f"bad{i}.txt"
        pf.write_text(f"disk 0.1 0 0.2 1.0\n{line}\n")
        out = tmp_path / f"o{i}"
        for argv in (["phantom", "--npx", "8"], ["reconstruct", "--method", "fbp", "--threshold", "0.5"]):
            assert main([*argv, "--phantom", str(pf), "--out", str(out)]) == 2, (line, argv)
            assert "line 2: " in capsys.readouterr().err
        assert not out.exists()  # no product was written


def test_cli_rejects_non_finite_vertex(tmp_path, capsys):
    # a NaN or inf vertex is rejected as --vertex before a cone value is
    # made from it, so no numpy warning is printed first
    pf = tmp_path / "fig4.txt"
    pf.write_text("disk 0 0 0.5 1.0\n")
    for vertex in ("nan,0", "0,inf", "-inf,1"):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            argv = ["forward", "--phantom", str(pf), f"--vertex={vertex}", "--nbeta", "8", "--npsi", "4", "--out", str(out)]
            assert main(argv) == 2, vertex
        assert not caught, (vertex, [str(w.message) for w in caught])
        assert "error: --vertex coordinates must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_cli_blob_width_floor(tmp_path, capsys):
    # below about 8e-155 a blob's |x - c|^2 / (2 sigma^2) overflowed: fbp
    # exited 2 through the generic finite check and every other step exited
    # 0 with a RuntimeWarning. At the 1e-154 floor every step runs without a
    # warning; below it every step exits 2 and names the phantom-file line
    steps = (
        ["phantom", "--npx", "32"],
        ["forward", "--method", "cone", "--perside", "17", "--nbeta", "32", "--npsi", "32"],
        ["forward", "--method", "radon"],
        *(["reconstruct", "--method", method, "--npx", "32"] for method in ("fbp", "thm2", "thm6", "compton")),
    )
    for width, code in (("1e-154", 0), ("9e-155", 2)):
        pf = tmp_path / f"{width}.txt"
        pf.write_text(f"disk 0 0 0.5 1.0\ngauss 0.1 0 {width} 1.0\n")
        for i, argv in enumerate(steps):
            out = tmp_path / f"{width}-{i}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([*argv, "--phantom", str(pf), "--out", str(out)]) == code, (width, argv)
            assert not caught, (width, argv, [str(w.message) for w in caught])
            err = capsys.readouterr().err
            if code:
                assert "line 2: " in err and "at least 1e-154" in err, err
                assert not out.exists()  # no product was written


def test_cli_narrow_blob_at_wide_extent_runs_clean(tmp_path, monkeypatch):
    # at --extent 2 a 1e-154 blob's d^2 / (2 sigma^2) overflowed at the far
    # samples, and every step warned. Capped, every step runs under
    # warnings-as-errors and writes the products the uncapped exponential
    # writes with its overflow ignored: exp(-x) is 0.0 either way
    pf = tmp_path / "narrow.txt"
    pf.write_text("disk 0 0 0.5 1.0\ngauss 0.1 0 1e-154 1.0\n")
    steps = (
        ["phantom", "--npx", "32"],
        ["forward", "--method", "cone", "--perside", "9", "--nbeta", "16", "--npsi", "16"],
        ["forward", "--method", "radon", "--ntheta", "32", "--ns", "65"],
        *(["reconstruct", "--method", method, "--npx", "32"] for method in ("fbp", "thm2", "thm6", "compton")),
    )

    def products(tag):
        got = []
        for i, argv in enumerate(steps):
            out = tmp_path / f"{tag}{i}"
            assert main([*argv, "--extent", "2", "--phantom", str(pf), "--out", str(out)]) == 0, argv
            got.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out)) if name != "run.cfg"})
        return got

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        capped = products("capped")
    monkeypatch.setattr(phantoms, "_gauss", lambda d, sigma: np.exp(-(d * d) / (2.0 * sigma * sigma)))
    with np.errstate(over="ignore"):
        uncapped = products("uncapped")
    assert capped == uncapped


@pytest.mark.parametrize("far", ["gauss 1e200 0 0.1 1.0", "gauss 1e200 0 1e-154 1.0", "disk 1e300 0 0.3 1.0"])
def test_cli_far_primitive_runs_clean(tmp_path, capsys, far):
    # a primitive this far squared its distances to inf: forward --method
    # cone formed inf - inf on every ray (the blob made it exit 2) and every
    # other step warned. Now each step but fbp runs under warnings-as-errors,
    # and fbp names the offset range that cannot reach the primitive. The far
    # primitive adds exactly 0.0 to the raster and to the cone data; of the
    # sinogram it changes only the row at angle 0, whose lines y = s pass
    # through it, by its own line integrals. The far narrow blob's ray tails
    # overflowed erfc's argument -m / (sigma sqrt 2) until m was capped, and
    # its ramp profile's offset quotient until the centre was clipped, and
    # the far disk's ramp profile squared its offset in radii until it took
    # the clipped form of _ramp_profiles
    near, with_far, alone = (tmp_path / name for name in ("near.txt", "far.txt", "alone.txt"))
    near.write_text("disk 0 0 0.5 1.0\n")
    with_far.write_text(f"disk 0 0 0.5 1.0\n{far}\n")
    alone.write_text(f"{far}\n")

    def run(pf, argv, extent):
        out = tmp_path / f"{pf.stem}{extent}-{'-'.join(argv[:3])}"
        return main([*argv, "--extent", extent, "--phantom", str(pf), "--out", str(out)]), out

    for extent in ("1", "2"):
        for argv in (["phantom", "--npx", "32"], ["forward", "--method", "cone", "--perside", "5", "--nbeta", "8", "--npsi", "8"]):
            (code, out), (near_code, near_out) = run(with_far, argv, extent), run(near, argv, extent)
            assert code == near_code == 0, argv
            names = sorted(set(os.listdir(out)) - {"run.cfg"})
            assert names == sorted(set(os.listdir(near_out)) - {"run.cfg"})
            assert all((out / n).read_bytes() == (near_out / n).read_bytes() for n in names), argv
        argv = ["forward", "--method", "radon", "--ntheta", "32", "--ns", "65"]
        (code, out), (near_code, near_out) = run(with_far, argv, extent), run(near, argv, extent)
        assert code == near_code == 0
        got, want = (read_radon_sinogram(o / "radon.sg") for o in (out, near_out))
        own = radon_analytic(load_phantom_file(alone), 0.0, got.offsets)
        assert np.any(own > 0.0)
        assert got.values[0].tobytes() == (want.values[0] + own).tobytes()
        assert got.values[1:].tobytes() == want.values[1:].tobytes()
        # fbp would ramp-filter a sinogram cut off far inside the primitive's
        # lines, so it names the offset range before any row is made
        code, out = run(with_far, ["reconstruct", "--method", "fbp", "--npx", "32"], extent)
        assert code == 2 and "s_max (--smax)" in capsys.readouterr().err and not out.exists()
        for method in ("thm2", "thm6"):
            code, out = run(with_far, ["reconstruct", "--method", method, "--npx", "32"], extent)
            assert code == 0 and np.isfinite(read_image_raw(out / "recon.raw").values).all(), method
        code, _ = run(with_far, ["reconstruct", "--method", "compton", "--npx", "32", "--perside", "17"], extent)
        assert code == 2 and "inside the camera square" in capsys.readouterr().err


@pytest.mark.parametrize(
    "phantom, flags, methods",
    [
        ("disk 0 0 3 1.0", [], ["fbp"]),
        ("disk 0 0 0.5 1.0\ngauss 0 0 2 1.0", [], ["fbp"]),
        ("disk 0 0 0.5 1.0\ndisk 1.6 0 0.3 1.0", [], ["fbp"]),
        ("disk 0 0 0.5 1.0", ["--smax", "0.3"], ["fbp", "compton"]),
        ("disk 0 0 0.5 1.0", ["--smax", "0.6"], ["fbp", "compton"]),
    ],
    ids=["wide-disk", "wide-blob", "off-centre-disk", "smax-0.3", "smax-0.6"],
)
def test_cli_truncated_offset_range_exits_2(tmp_path, capsys, phantom, flags, methods):
    # a phantom whose lines reach past s_max, or an s_max short of the
    # raster's corners, ramp-filtered a cut-off sinogram into a wrong raster
    # with exit 0 (rel L2 0.790, 0.499, 0.0475, 2.20 and 0.311 for fbp, 1.46
    # and 0.318 for compton, at 64 px). Each names --smax before any row or
    # line table is made, with no warning and no product
    pf = tmp_path / "phantom.txt"
    pf.write_text(phantom + "\n")
    for method in methods:
        out = tmp_path / method
        argv = ["reconstruct", "--method", method, "--npx", "16", "--ntheta", "8", "--ns", "33", *flags]
        argv += ["--perside", "17", "--nbeta", "8", "--npsi", "8"] if method == "compton" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--phantom", str(pf), "--out", str(out)]) == 2, method
        assert not caught, [str(w.message) for w in caught]
        assert "error: s_max (--smax) " in capsys.readouterr().err, method
        assert not out.exists()


def test_cli_report_scales_overflowing_norms(tmp_path):
    # at density 1e200 the raster's squared norm passes the largest double,
    # and report.csv read rel L2 inf (with an overflow warning); the norms
    # are then taken of rasters scaled by the truth's largest value, so it
    # reads the density-1 figure
    def rel_l2(density):
        pf = tmp_path / f"{density}.txt"
        pf.write_text(f"disk 0 0 0.5 {density}\n")
        out = tmp_path / density
        argv = ["reconstruct", "--method", "thm2", "--npx", "16", "--nbeta", "8", "--npsi", "8"]
        assert main([*argv, "--phantom", str(pf), "--out", str(out)]) == 0
        return float((out / "report.csv").read_text().splitlines()[1].split(",")[2])

    assert rel_l2("1e200") == pytest.approx(rel_l2("1.0"), rel=1e-12)


def test_cli_extreme_primitives_run_or_exit_2_by_name(tmp_path, capsys):
    # a disk 1e300 wide beside fig4 overflowed rasterize's squared offsets
    # (the reconstruct report's ground truth), a 1e154-wide blob the report's
    # norms, and a disk whose line integral 2 rho r passes the largest double
    # the radon rows and rays. Every step now exits 0 with finite products,
    # or 2 naming the cause, with no warning
    probes = {
        "disk 0 0 0.5 1.0\ndisk 1e299 0 1e300 1.0": {"fbp": "s_max (--smax)"},
        "disk 0 0 0.5 1.0\ngauss 0.1 0 1e154 1.0": {"fbp": "s_max (--smax)"},
        "disk 0 0 1.7e308 2.0": {"radon": "line integrals", "cone": "line integrals", "fbp": "s_max (--smax)"},
    }
    steps = {
        "phantom": ["phantom", "--npx", "16"],
        "radon": ["forward", "--method", "radon", "--ntheta", "8", "--ns", "17"],
        "cone": ["forward", "--method", "cone", "--perside", "5", "--nbeta", "8", "--npsi", "8"],
        **{m: ["reconstruct", "--method", m, "--npx", "16", "--nbeta", "8", "--npsi", "8"] for m in ("thm2", "thm6", "fbp")},
        "compton": ["reconstruct", "--method", "compton", "--npx", "16", "--nbeta", "8", "--npsi", "8", "--perside", "17"],
    }
    for k, (text, named) in enumerate(probes.items()):
        pf = tmp_path / f"probe{k}.txt"
        pf.write_text(text + "\n")
        for extent in ("1", "2"):
            for step, argv in steps.items():
                out = tmp_path / f"{k}-{extent}-{step}"
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main([*argv, "--extent", extent, "--phantom", str(pf), "--out", str(out)])
                assert not caught, (text, step, [str(w.message) for w in caught])
                err = capsys.readouterr().err
                if step == "compton":
                    assert code == 2 and "inside the camera square" in err, (text, step)
                elif step in named:
                    assert code == 2 and named[step] in err and not out.exists(), (text, step, err)
                else:
                    assert code == 0, (text, step, err)
                    for name in os.listdir(out):
                        if name.endswith(".raw"):
                            assert np.isfinite(read_image_raw(out / name).values).all(), (text, step)


def test_cli_cone_values_past_the_largest_double_exit_2(tmp_path, capsys):
    # a cone value sums two rays, each at most its line's integral. On a disk
    # whose line integrals reach 1e308 the line bound held, and forward
    # --method cone overflowed in the sum of the rays, warning, then exited
    # 2 (1 with a traceback under -W error::RuntimeWarning). Cone values are
    # now bounded by twice the line bound and rejected by name, with no
    # warning and no product, on the camera and at one vertex; the radon
    # rows of the same disk still run, finite
    pf = tmp_path / "big.txt"
    pf.write_text("disk 0 0 0.5 1e308\n")
    cone = ["forward", "--method", "cone", "--nbeta", "8", "--npsi", "8"]
    cases = {
        "camera": ([*cone, "--perside", "5"], 2),
        "vertex": ([*cone, "--vertex", "0.3,0.1"], 2),
        "radon": (["forward", "--method", "radon", "--ntheta", "8", "--ns", "17"], 0),
    }
    for name, (argv, code) in cases.items():
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--phantom", str(pf), "--out", str(out)]) == code, name
        err = capsys.readouterr().err
        if code:
            assert "line integrals may pass the largest double" in err and "twice it" in err, name
            assert not out.exists(), name
    assert np.isfinite(read_radon_sinogram(tmp_path / "radon" / "radon.sg").values).all()


def _numbers(signs):
    # a power of ten from 1e-300 to 1e306 times a sign drawn from
    # signs, 0 among them
    magnitudes = st.integers(-300, 306).map(lambda e: 10.0**e)
    return st.tuples(st.sampled_from(signs), magnitudes).map(lambda c: c[0] * c[1])


# a phantom line: centre and density of any sign or 0, and a radius or sigma
# 0 or negative one time in four, so that most lines load
_phantom_lines = st.builds(
    lambda kind, *nums: " ".join([kind, *map(repr, nums)]),
    st.sampled_from(["disk", "gauss"]), _numbers([-1.0, 0.0, 1.0]), _numbers([-1.0, 0.0, 1.0]),
    _numbers([-1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), _numbers([-1.0, 0.0, 1.0]),
)
_small = st.integers(1, 9).map(str)
# every subcommand on small lattices; the drawn values include the rejected
# ones (a 1-pixel raster, 1 opening, an axis count the camera refuses)
_steps = st.one_of(
    st.tuples(st.just("phantom"), st.just("--npx"), _small),
    st.tuples(st.just("forward"), st.just("--perside"), st.integers(2, 4).map(str), st.just("--nbeta"), _small, st.just("--npsi"), _small),
    # --vertex X,Y as one token, --vertex=X,Y, or as two, whose value starts
    # like a negative number where X < 0
    st.tuples(
        st.just("forward"), _numbers([-1.0, 0.0, 1.0]), _numbers([-1.0, 0.0, 1.0]), st.booleans(),
        st.just("--nbeta"), _small, st.just("--npsi"), _small,
    ).map(lambda t: (t[0], *((f"--vertex={t[1]!r},{t[2]!r}",) if t[3] else ("--vertex", f"{t[1]!r},{t[2]!r}")), *t[4:])),
    st.tuples(st.just("forward"), st.just("--method"), st.just("radon"), st.just("--ntheta"), _small, st.just("--ns"), _small),
    st.tuples(
        st.just("reconstruct"), st.just("--method"), st.sampled_from(["thm2", "thm6"]),
        st.just("--npx"), _small, st.just("--nbeta"), _small, st.just("--npsi"), _small,
    ),
    st.tuples(
        st.just("reconstruct"), st.just("--method"), st.just("compton"), st.just("--npx"), _small,
        st.just("--perside"), st.integers(2, 9).map(str), st.just("--nbeta"), st.sampled_from(["6", "8", "16"]),
        st.just("--npsi"), st.sampled_from(["4", "8", "12"]),
    ),
    st.tuples(st.just("reconstruct"), st.just("--method"), st.just("fbp"), st.just("--npx"), _small, st.just("--ntheta"), _small, st.just("--ns"), _small),
    st.tuples(st.just("verify"), st.just("--seed"), st.integers(0, 9).map(str), st.just("--count"), st.integers(0, 1).map(str)),
    st.tuples(st.just("lambda"), st.just("--n"), st.integers(1, 4).map(str), st.just("--mmax"), st.integers(-1, 6).map(str)),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(_phantom_lines, min_size=0, max_size=2),
    extent=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    step=_steps,
)
def test_cli_every_subcommand_exits_0_with_finite_products_or_2_by_name(tmp_path, lines, extent, step):
    # the CLI's contract on any phantom and lattice: a run exits 0 with
    # finite products, or 2 with an error line and no traceback, and never
    # warns (warnings raise here) or raises. Each subcommand runs in
    # process on drawn phantom lines, extents 1e-3..1e3 and small lattices.
    # verify takes no phantom and exits 1 where an identity row misses its
    # gate, as the harmonic family does on some seeds (seed 2, count 1)
    pf = tmp_path / "p.txt"
    pf.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    argv = [*step, "--out", str(out)]
    if step[0] in ("phantom", "forward", "reconstruct"):
        argv += ["--phantom", str(pf), "--extent", repr(extent)]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    elif step[0] == "verify" and code == 1:
        assert ",fail\n" in (out / "verify.csv").read_text(), argv
    else:
        assert code == 0, (argv, code, err.getvalue())
        readers = {".raw": read_image_raw, "radon.sg": read_radon_sinogram, "cone.sg": read_cone_sinogram}
        for name in os.listdir(out):
            for suffix, read in readers.items():
                if name.endswith(suffix):
                    assert np.isfinite(read(out / name).values).all(), (argv, name)
    shutil.rmtree(out, ignore_errors=True)


def test_cli_dense_disk_exits_2_by_name_on_every_route(tmp_path, capsys):
    # a disk of density 1e308 overflowed every reconstruction: thm2 and thm6
    # in backprojection's sums, fbp in the ramp filter's transforms and
    # compton in the conversion's, each warning, then exiting 2 on a generic
    # "values must be finite" (1 with a traceback under -W
    # error::RuntimeWarning). Each route now bounds what it forms by the
    # phantom's line or ramp-profile bound times its own gain and rejects
    # the phantom by name, with no warning and no product
    pf = tmp_path / "dense.txt"
    pf.write_text("disk 0 0 0.5 1e308\n")
    named = {
        "thm2": ("ramp-filtered line profiles", "the direct route's gain"),
        "thm6": ("ramp-filtered line profiles", "the direct route's gain"),
        "fbp": ("line integrals", "the gain of FBP"),
        "compton": ("line integrals", "the gain of the camera conversion and FBP"),
    }
    for method, (what, gain) in named.items():
        out = tmp_path / method
        argv = ["reconstruct", "--method", method, "--npx", "16", "--nbeta", "8", "--npsi", "8", "--perside", "17"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--phantom", str(pf), "--out", str(out)]) == 2, method
        err = capsys.readouterr().err
        assert f"error: the phantom's {what} may pass the largest double" in err and gain in err, (method, err)
        assert not out.exists(), method


def test_reconstruct_routes_run_finite_up_to_their_gain(monkeypatch):
    # the bound times a route's gain covers every value the route forms: at
    # the densest power-of-two density each route accepts, on a disk and on
    # a blob, it runs to a finite raster with no warning, and one step
    # denser it is rejected before it makes any row or line table. The
    # gains stay within 2^40 of the largest double (measured: the densest
    # accepted density is 2^999 to 2^1017 on these lattices)
    tables = []
    for module, name in ((cli, "radon_analytic"), (inversion, "radon_analytic"), (inversion, "_ramp_profiles")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn: tables.append(1) or _fn(*a))
    cfg = {"extent": 1.0, "npx": 16, "nbeta": 8, "npsi": 8, "perside": 17, "ntheta": None, "ns": None, "smax": None}
    kinds = {"disk": phantoms.Disk, "blob": phantoms.GaussianBlob}
    for method in ("thm2", "thm6", "fbp", "compton"):
        for kind, primitive in kinds.items():

            def run(exponent):
                phantom = phantoms.Phantom(**{kind + "s": (primitive((0.1, 0.0), 0.1, 2.0**exponent),)})
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    return cli._reconstruct_grid(cfg, phantom, method)

            lo, hi = 0, 1024  # density 1 runs; 2^1024 is past the largest double
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    run(mid)
                    lo = mid
                except ValueError as exc:
                    assert "may pass the largest double" in str(exc), (method, kind, str(exc))
                    hi = mid
            assert lo >= 984, (method, kind, lo)
            assert np.isfinite(run(lo).values).all()
            tables.clear()
            with pytest.raises(ValueError, match="may pass the largest double"):
                run(hi)
            assert not tables, (method, kind)


def test_cli_allocation_failure_is_usage_error(tmp_path, monkeypatch, capsys):
    # a lattice too large to allocate exits 2 with an error line, not 1 with
    # a traceback; raised here by a stand-in, since a real huge request can
    # succeed under memory overcommit and then fill memory
    def too_large(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "rasterize", too_large)
    out = tmp_path / "o"
    assert main(["phantom", "--phantom", write_disk_phantom(tmp_path), "--out", str(out), "--npx", "8"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"
    # the folder is made as the first product is opened, and run.cfg only
    # after a run that completes, so none describes products never made
    assert not out.exists()


def test_cli_forward_single_vertex_constant(tmp_path):
    pf = write_disk_phantom(tmp_path)
    out = str(tmp_path / "o")
    code = main(
        ["forward", "--phantom", pf, "--out", out, "--vertex", "0,0", "--nbeta", "16", "--npsi", "8"]
    )
    assert code == 0
    sino = read_cone_sinogram(os.path.join(out, "cone.sg"))
    assert sino.values.shape == (1, 16, 8)
    assert np.allclose(sino.values, 1.0, atol=1e-12)


def test_cli_negative_values_take_either_form(tmp_path, capsys):
    # argparse alone reads a separate value that starts like a negative
    # number but is not one, '-0.5,0.25' or '-1e-3', as an unknown option
    # and exits through SystemExit; both forms run and write the same file
    pf = write_disk_phantom(tmp_path)
    forward = ["forward", "--phantom", pf, "--nbeta", "8", "--npsi", "6", "--out"]
    assert main([*forward, str(tmp_path / "apart"), "--vertex", "-0.5,0.25"]) == 0
    assert main([*forward, str(tmp_path / "joined"), "--vertex=-0.5,0.25"]) == 0
    cone_sg = (tmp_path / "apart" / "cone.sg").read_bytes()
    assert cone_sg == (tmp_path / "joined" / "cone.sg").read_bytes()
    assert read_cone_sinogram(tmp_path / "apart" / "cone.sg").vertices.tolist() == [[-0.5, 0.25]]
    # a negative extent reaches the raster check and its error line
    capsys.readouterr()
    assert main(["phantom", "--phantom", pf, "--extent", "-1e-3", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: half_extent must be finite and positive")


def test_cli_forward_radon_center_column(tmp_path):
    pf = write_disk_phantom(tmp_path)
    out = str(tmp_path / "o")
    code = main(
        ["forward", "--phantom", pf, "--out", out, "--method", "radon", "--ntheta", "8", "--ns", "9"]
    )
    assert code == 0
    sino = read_radon_sinogram(os.path.join(out, "radon.sg"))
    assert np.allclose(sino.values[:, 4], 1.0)  # s = 0 column = diameter chord


def test_cli_forward_camera_grid(tmp_path):
    pf = write_disk_phantom(tmp_path)
    out = str(tmp_path / "o")
    code = main(
        ["forward", "--phantom", pf, "--out", out, "--perside", "3", "--nbeta", "8", "--npsi", "4"]
    )
    assert code == 0
    sino = read_cone_sinogram(os.path.join(out, "cone.sg"))
    assert sino.values.shape == (8, 8, 4)  # 4*(3-1) boundary detectors


def test_cli_forward_camera_any_cone_lattice(tmp_path):
    # the axis rule belongs to the camera conversion: forward cone data on
    # the camera takes any cone lattice, as it does at a single vertex
    pf = write_disk_phantom(tmp_path)
    for n_beta in (6, 4, 10):
        out = tmp_path / f"o{n_beta}"
        argv = ["forward", "--phantom", pf, "--out", str(out), "--perside", "5", "--nbeta", str(n_beta), "--npsi", "6"]
        assert main(argv) == 0, n_beta
        sino = read_cone_sinogram(out / "cone.sg")
        verts = detector_positions(CameraConfig(1.0, 5, n_beta, 6))
        assert sino.values.shape == (16, n_beta, 6)
        assert np.array_equal(sino.values, cone_forward_sinogram(load_phantom_file(pf), verts, n_beta, 6).values), n_beta


def test_cli_forward_streams_cone_sg(tmp_path, monkeypatch):
    # with a budget of five vertices' values the 16 detectors come in
    # chunks of 5, 5, 5 and 1, and the file is byte for byte the one written
    # from the whole sinogram at once
    pf = write_disk_phantom(tmp_path)
    monkeypatch.setattr(cli, "_FORWARD_BUDGET", 5 * 8 * 6)
    sizes = []

    def counted(phantom, vertices, n_beta, n_psi):
        sizes.append(len(vertices))
        return cone_forward_sinogram(phantom, vertices, n_beta, n_psi)

    monkeypatch.setattr(cli, "cone_forward_sinogram", counted)
    out = tmp_path / "o"
    assert main(["forward", "--phantom", pf, "--out", str(out), "--perside", "5", "--nbeta", "8", "--npsi", "6"]) == 0
    assert sizes == [5, 5, 5, 1]
    verts = detector_positions(CameraConfig(1.0, 5, 8, 6))
    whole = tmp_path / "whole.sg"
    write_cone_sinogram(whole, cone_forward_sinogram(load_phantom_file(pf), verts, 8, 6))
    assert (out / "cone.sg").read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("per_side, n_angles", [(65, 200), (257, 48)])
def test_cli_forward_memory_bounded(tmp_path, per_side, n_angles):
    # forward makes and writes cone.sg a chunk of _FORWARD_BUDGET values at
    # a time, so its peak is one chunk, not the payload: at most 1/8 of the
    # 82 MB payload at 65 per side x 200 x 200, and the same 10.2 MB on a
    # small lattice with 4x the vertices (a 19 MB payload)
    pf = write_disk_phantom(tmp_path)
    flags = ["--nbeta", str(n_angles), "--npsi", str(n_angles)]
    # a first run outside the trace, so first-call costs are not traced
    assert main(["forward", "--phantom", pf, "--out", str(tmp_path / "warm"), "--perside", "2", *flags]) == 0
    argv = ["forward", "--phantom", pf, "--out", str(tmp_path / "o"), "--perside", str(per_side), *flags]
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0]
    assert os.path.getsize(tmp_path / "o" / "cone.sg") == 52 + 8 * (4 * per_side - 4) * (2 + n_angles**2)
    assert peak <= 8 * 256 * 200 * 200 / 8


def test_cli_forward_overflow_leaves_no_cone_sg(tmp_path, monkeypatch):
    # two rays through the middle of the disk sum to about 2e308, which
    # overflows to inf, so the chunk fails its finite check: exit 2, and
    # neither cone.sg nor its temporary file is left. The CLI now rejects
    # such a phantom before its first product, so the writer's own check is
    # reached here with the phantom check off
    pf = tmp_path / "huge.txt"
    pf.write_text("disk 0 0 0.5 1e308\n")
    out = tmp_path / "o"
    argv = ["forward", "--phantom", str(pf), "--out", str(out), "--perside", "5", "--nbeta", "8", "--npsi", "16"]
    assert main(argv) == 2
    assert not out.exists()
    monkeypatch.setattr(cli, "_check_line_integrals", lambda *args, **kwargs: None)
    with np.errstate(over="ignore"):
        code = main(argv)
    assert code == 2
    assert os.listdir(out) == []


def test_cli_usage_errors(tmp_path, capsys):
    pf = write_disk_phantom(tmp_path)
    out = str(tmp_path / "o")
    assert main(["forward", "--phantom", pf, "--out", out, "--npsi", "0"]) == 2
    assert main(["forward", "--phantom", pf, "--out", out, "--method", "laplace"]) == 2
    assert main(["forward", "--phantom", pf, "--out", out, "--vertex", "zero"]) == 2
    assert main(["forward", "--out", out]) == 2  # no phantom
    assert main(["reconstruct", "--phantom", str(tmp_path / "nope.txt"), "--out", out]) == 2
    assert main(["reconstruct", "--phantom", pf, "--out", out, "--method", "sirt"]) == 2
    # verify has no dimension setting: --identity asgeirsson-3d picks one
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--out", out, "--identity", "asgeirsson", "--n", "3"])
    assert exc.value.code == 2
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("identity = asgeirsson\nn = 3\n")
    assert main(["verify", "--out", out, "--config", str(cfg)]) == 2
    capsys.readouterr()
    assert main(["verify", "--out", out, "--count", "-1"]) == 2
    assert "error: count must be nonnegative" in capsys.readouterr().err
    assert main(["lambda", "--out", out, "--n", "7"]) == 2
    capsys.readouterr()
    assert main(["lambda", "--out", out, "--mmax", "-1"]) == 2
    assert "error: mmax must be nonnegative" in capsys.readouterr().err
    # an explicit 0 is rejected, never replaced by the default
    thm2 = ["reconstruct", "--phantom", pf, "--out", out, "--method", "thm2"]
    assert main(thm2 + ["--npx", "0", "--nbeta", "0"]) == 2
    for flags in (["--npx", "0"], ["--nbeta", "0"], ["--npsi", "0"]):
        assert main(["reconstruct", "--phantom", pf, "--out", out, "--method", "thm6", *flags]) == 2
    for flags in (["--ntheta", "0"], ["--ns", "0"], ["--smax", "0"]):
        assert main(["reconstruct", "--phantom", pf, "--out", out, "--method", "fbp", *flags]) == 2
        assert main(["forward", "--phantom", pf, "--out", out, "--method", "radon", *flags]) == 2
    assert main(["reconstruct", "--phantom", pf, "--out", out, "--method", "compton", "--ns", "0"]) == 2
    assert main(["forward", "--phantom", pf, "--out", out, "--vertex", "0,0", "--nbeta", "0"]) == 2
    wide = tmp_path / "wide.txt"
    wide.write_text("disk 0 0 1.5 1.0\n")  # reaches past the camera square
    assert main(["reconstruct", "--phantom", str(wide), "--out", out, "--method", "compton", "--npx", "8"]) == 2
    # no case above got as far as its first product, so none made the folder
    assert not os.path.exists(out)


def test_cli_rejects_non_finite_extents(tmp_path, capsys):
    # an extent must be finite and positive, and so must twice it and its
    # square, or the lattices laid across the span, or the squares and
    # products of coordinates on them, overflow: each case exits 2 naming the
    # extent before any warning. 1e200 passed while only the span was checked.
    # Without --smax, s_max = sqrt(2) * --extent, and an extent that makes it
    # overflow is named as the option given; an extent that fails on its own
    # is named half_extent, with no hint to set --smax
    pf = write_disk_phantom(tmp_path)
    camera = ["--perside", "3", "--nbeta", "8", "--npsi", "4"]
    radon = ["--ntheta", "4", "--ns", "9"]
    cases = (
        (["phantom", "--npx", "8", "--extent", "1e200"], "half_extent"),
        (["forward", "--method", "radon", *radon, "--smax", "1e200"], "s_max"),
        (["reconstruct", "--method", "fbp", "--npx", "8", *radon, "--extent", "1e200"], "half_extent"),
        (["forward", "--method", "radon", *radon, "--extent", "1e200"], "half_extent"),
        (["reconstruct", "--method", "fbp", "--npx", "8", *radon, "--extent", "6.7e153"], "--extent"),
        (["forward", "--method", "radon", *radon, "--extent", "6.7e153"], "--extent"),
        (["reconstruct", "--method", "compton", "--npx", "8", *camera, "--extent", "1e200"], "camera half_extent"),
        (["phantom", "--npx", "8", "--extent", "nan"], "half_extent"),
        (["reconstruct", "--method", "fbp", "--npx", "8", *radon, "--extent", "nan"], "half_extent"),
        (["forward", "--method", "radon", *radon, "--extent", "-1"], "half_extent"),
        (["forward", "--method", "radon", "--smax", "nan"], "s_max"),
        (["forward", *camera, "--extent", "inf"], "camera half_extent"),
        (["reconstruct", "--method", "compton", "--npx", "8", "--extent", "inf"], "camera half_extent"),
        (["phantom", "--npx", "8", "--extent", "1e308"], "half_extent"),
        (["forward", "--method", "radon", *radon, "--smax", "1.7e308"], "s_max"),
        (["forward", *camera, "--extent", "1e308"], "camera half_extent"),
        (["reconstruct", "--method", "compton", "--npx", "8", "--extent", "1e308"], "camera half_extent"),
        (["reconstruct", "--method", "fbp", "--npx", "8", *radon, "--smax", "1e308"], "s_max"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (flags, name) in enumerate(cases):
            out = tmp_path / f"o{i}"
            assert main([*flags, "--phantom", pf, "--out", str(out)]) == 2, flags
            err = capsys.readouterr().err
            assert f"error: {name} must be finite" in err, flags
            assert ("set --smax" in err) == (name == "--extent"), flags
            assert not out.exists(), flags  # no folder, product or run.cfg was made
        # just inside the bound, 6.70e153, phantom and forward run. The
        # direct routes sample offsets over +-sqrt(2) * half_extent whatever
        # --smax says, so at this extent they name that range before any
        # row is made, for a disk as for a blob, and run at 1e153. compton
        # and fbp can take no offset range that reaches the raster's corners
        # here, so --smax = --extent names --smax
        near = "6.7e153"
        direct = ["--npx", "8", "--nbeta", "8", "--npsi", "4"]
        corners = "error: s_max (--smax) 6.7e+153 must reach the raster's corners"
        inside = (
            (["phantom", "--npx", "8", "--extent", near], None),
            (["forward", *camera, "--extent", near], None),
            (["forward", "--method", "radon", *radon, "--extent", near, "--smax", near], None),
            (["reconstruct", "--method", "compton", "--npx", "8", *camera, "--extent", near, "--smax", near], corners),
            (["reconstruct", "--method", "fbp", "--npx", "8", *radon, "--extent", near, "--smax", near], corners),
            (["reconstruct", "--method", "thm2", *direct, "--extent", near], "error: sqrt(2) * half_extent must be finite"),
            (["reconstruct", "--method", "thm6", *direct, "--extent", near, "--smax", "1"], "error: sqrt(2) * half_extent must be finite"),
            (["reconstruct", "--method", "thm2", *direct, "--extent", "1e153"], None),
            (["reconstruct", "--method", "thm6", *direct, "--extent", "1e153"], None),
        )
        blob = tmp_path / "blob.txt"
        blob.write_text("gauss 0.1 -0.2 0.3 1.0\n")
        for k, phantom in enumerate((pf, str(blob))):
            for i, (flags, error) in enumerate(inside):
                assert main([*flags, "--phantom", phantom, "--out", str(tmp_path / f"in{k}-{i}")]) == (2 if error else 0), flags
                if error:
                    err = capsys.readouterr().err
                    assert error in err and "set --smax" not in err, flags
    # this case once crashed the process in backprojection, so it runs in a
    # child process
    out = tmp_path / "fbp"
    flags = ["--method", "fbp", "--extent", "inf", "--npx", "8", "--ntheta", "4", "--ns", "9"]
    run = run_child(["-m", "conetomo.cli", "reconstruct", *flags, "--phantom", pf, "--out", str(out)])
    assert run.returncode == 2, run.stderr
    assert not out.exists()


def test_cli_reconstruct_fbp_report(tmp_path):
    pf = write_disk_phantom(tmp_path)
    out = str(tmp_path / "o")
    code = main(
        [
            "reconstruct", "--phantom", pf, "--out", out, "--method", "fbp",
            "--npx", "64", "--ntheta", "60", "--ns", "129", "--threshold", "0.2",
        ]
    )
    assert code == 0
    report = open(os.path.join(out, "report.csv")).read().splitlines()
    assert report[0] == "method,n_px,rel_l2"
    method, n_px, rel = report[1].split(",")
    assert method == "fbp" and n_px == "64"
    assert 0.0 < float(rel) < 0.2
    # an unreachable threshold flips the exit code; the run completed, so it
    # echoes its settings
    out = tmp_path / "fail"
    code = main(
        [
            "reconstruct", "--phantom", pf, "--out", str(out), "--method", "fbp",
            "--npx", "64", "--ntheta", "60", "--ns", "129", "--threshold", "1e-9",
        ]
    )
    assert code == 1
    assert "threshold = 1e-09\n" in (out / "run.cfg").read_text(encoding="utf-8")


def test_cli_reconstruct_aliases(tmp_path):
    pf = tmp_path / "blob.txt"
    pf.write_text("gauss 0 0 0.25 1\n")
    out = str(tmp_path / "o")
    code = main(
        [
            "reconstruct", "--phantom", str(pf), "--out", out, "--method", "mu-weighted",
            "--npx", "32", "--nbeta", "16", "--npsi", "32", "--threshold", "0.1",
        ]
    )
    assert code == 0
    report = open(os.path.join(out, "report.csv")).read()
    assert "thm2" in report


def test_cli_verify_deterministic_bytes(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["verify", "--identity", "psi-integral", "--count", "3", "--seed", "9"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    csv1 = open(os.path.join(out1, "verify.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "verify.csv"), "rb").read()
    assert csv1 == csv2
    lines = csv1.decode().splitlines()
    assert lines[0] == "identity,case,lhs,rhs,rel_err,status"
    assert len(lines) == 4
    assert all(line.endswith("pass") for line in lines[1:])


def test_cli_verify_asgeirsson_dimension_filter(tmp_path):
    out = str(tmp_path / "o")
    code = main(["verify", "--out", out, "--identity", "asgeirsson-3d", "--count", "2"])
    assert code == 0
    lines = open(os.path.join(out, "verify.csv")).read().splitlines()[1:]
    assert lines and all(line.startswith("asgeirsson-3d") for line in lines)


def test_cli_lambda_table(tmp_path):
    out = str(tmp_path / "o")
    assert main(["lambda", "--out", out, "--mmax", "4", "--n", "2"]) == 0
    lines = open(os.path.join(out, "lambda.csv")).read().splitlines()
    assert lines[0] == "n,m,lambda,normalized"
    assert len(lines) == 6
    row0 = lines[1].split(",")
    assert float(row0[2]) == pytest.approx(4.0, abs=1e-10)
    assert float(row0[3]) == pytest.approx(2 / math.pi, abs=1e-10)
    row2 = lines[3].split(",")
    assert float(row2[2]) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    pf = write_disk_phantom(tmp_path)
    cfg = tmp_path / "run.cfg"
    # blank lines and lines that start with '#' are skipped
    cfg.write_text(f"# settings\n\nphantom = {pf}\n   \nnpx = 24\n  # indented comment\nextent = 1.5  # comment\n")
    out = str(tmp_path / "o")
    assert main(["phantom", "--config", str(cfg), "--out", out, "--npx", "16"]) == 0
    grid = read_image_raw(os.path.join(out, "phantom.raw"))
    assert grid.n_px == 16  # flag beats the file
    assert grid.half_extent == pytest.approx(1.5)
    echoed = open(os.path.join(out, "run.cfg")).read()
    assert "npx = 16" in echoed and "extent = 1.5" in echoed
    bad = tmp_path / "bad.cfg"
    bad.write_text("npx: 16\n")
    assert main(["phantom", "--config", str(bad), "--out", out]) == 2
    unknown = tmp_path / "unk.cfg"
    unknown.write_text("warp = 9\n")
    assert main(["phantom", "--config", str(unknown), "--out", out]) == 2
    # a value its option's type rejects is named with its key
    typed = tmp_path / "typed.cfg"
    typed.write_text("npx = sixteen\n")
    capsys.readouterr()
    assert main(["phantom", "--config", str(typed), "--out", out]) == 2
    assert "error: config key 'npx': invalid literal for int() with base 10: 'sixteen'" in capsys.readouterr().err
    # a quoted value is one closed JSON string with nothing after it
    for text in ('"unclosed', '"a" b'):
        quoted = tmp_path / "quoted.cfg"
        quoted.write_text(f"phantom = {text}\n")
        assert main(["phantom", "--config", str(quoted), "--out", out]) == 2


def test_cli_run_cfg_reproduces_the_run(tmp_path):
    # a run fed its own run.cfg through --config echoes the same run.cfg, for
    # every subcommand; a '#' inside a value is not a comment, and a value
    # that would not read back as itself (here ' #' in a path and a padded
    # vertex) is echoed quoted
    folder = tmp_path / "run#1" / "my #1"
    folder.mkdir(parents=True)
    pf = str(folder / "p.txt")
    with open(pf, "w", encoding="utf-8") as fh:
        fh.write("disk 0 0 0.5 1.0\n")
    runs = {
        "phantom": ["--phantom", pf, "--npx", "8", "--extent", "1.5"],
        "forward": ["--phantom", pf, "--vertex", " 0.25,-0.5 ", "--nbeta", "4", "--npsi", "3"],
        "reconstruct": [
            "--phantom", pf, "--method", "fbp", "--npx", "8", "--ntheta", "4", "--ns", "9",
            "--threshold", "1e3",
        ],
        "verify": ["--identity", "psi-integral", "--count", "1", "--seed", "3"],
        "lambda": ["--n", "3", "--mmax", "2"],
    }
    for command, flags in runs.items():
        out = tmp_path / command
        assert main([command, "--out", str(out), *flags]) == 0, command
        echoed = (out / "run.cfg").read_bytes()
        saved = tmp_path / f"{command}.cfg"
        saved.write_bytes(echoed)
        assert main([command, "--config", str(saved)]) == 0, command
        assert (out / "run.cfg").read_bytes() == echoed, command
    echoed = (tmp_path / "forward" / "run.cfg").read_text(encoding="utf-8").splitlines()
    assert f"phantom = {json.dumps(pf)}" in echoed
    assert 'vertex = " 0.25,-0.5 "' in echoed
    assert "nbeta = 4" in echoed
