"""End-to-end CLI runs against temporary files."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from tricloud import cli, codec, core, datagen, geom, metrics
from tricloud.errors import FormatError


def _run(argv):
    return cli.main(argv)


def _generate(tmp_path, name="orig.tcg", frames=4, gof_size=2, upsample=2, depth=8):
    path = tmp_path / name
    rc = _run([
        "generate", "--shape", "sphere", "--frames", str(frames),
        "--faces", "60", "--upsample", str(upsample), "--amplitude", "0.02",
        "--seed", "9", "--gof-size", str(gof_size), "--depth", str(depth),
        "-o", str(path),
    ])
    assert rc == 0
    return path


def test_full_pipeline(tmp_path, capsys):
    orig = _generate(tmp_path)
    bits = tmp_path / "seq.tcb"
    recon = tmp_path / "recon.tcg"
    assert _run(["encode", str(orig), "-o", str(bits),
                 "--step-motion", "1.0", "--step-color-intra", "2.0",
                 "--step-color-inter", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "geometry:" in out and "color:" in out and "container" in out

    assert _run(["decode", str(bits), "-o", str(recon)]) == 0
    gofs, depth = core.read_gof_file(recon)
    assert depth == 8
    assert sum(g.n_frames for g in gofs) == 4

    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    svg_path = tmp_path / "trace.svg"
    rc = _run([
        "eval", "--original", str(orig), "--reconstruction", str(recon),
        "--bitstream", str(bits), "--uinterp", "1",
        "--csv", str(csv_path), "--json", str(json_path), "--svg", str(svg_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "psnr_g_triangle" in out and "rate_mbps_total" in out

    with open(csv_path, newline="") as fp:
        rows = list(csv.reader(fp))
    assert len(rows) == 2
    report = dict(zip(rows[0], rows[1]))
    assert float(report["psnr_g_triangle"]) > 30.0
    assert float(report["psnr_y_triangle"]) > 20.0
    assert float(report["rate_bpv_total"]) > 0.0
    assert report["step_motion"] == "1.000000"

    data = json.loads(json_path.read_text())
    assert data["n_frames"] == 4
    assert data["psnr_g_matching"] > 0.0
    assert math.isclose(data["psnr_g_triangle"], float(report["psnr_g_triangle"]),
                        abs_tol=1e-6)

    svg = svg_path.read_text()
    assert svg.lstrip().startswith("<svg") and "PSNR_G" in svg


def test_eval_subset_of_metrics(tmp_path, capsys):
    orig = _generate(tmp_path, frames=2, gof_size=2)
    rc = _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
               "--metrics", "triangle"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "psnr_g_triangle = inf" in out
    assert "matching" not in out


@pytest.mark.parametrize("metric", ["triangle", "projection", "matching"])
def test_eval_of_frames_with_no_faces_is_refused(tmp_path, capsys, metric):
    # no face means no render cloud: every metric exits 1 and writes no
    # report, rather than a NaN PSNR ("-inf" in the JSON) or voxelize's error
    vertices = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.1, 0.2]])
    frame = core.TriangleCloudFrame(vertices, np.zeros((0, 3), np.int64), np.zeros((0, 3)), 2)
    orig = tmp_path / "empty.tcg"
    core.write_gof_file(orig, [core.GroupOfFrames([frame, frame])], 8)
    report = tmp_path / "report.json"
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
                 "--metrics", metric, "--json", str(report)]) == 1
    assert "frame 0: no faces to compare" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("metric", ["triangle", "projection", "matching"])
def test_eval_refuses_a_render_cloud_over_the_point_cap(tmp_path, capsys, metric):
    # one face at U = 2 and I = 10^6 would render 2 * 10^12 points: refused
    # before the lattice is built, with exit 1 and no report
    vertices = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.1, 0.2]])
    frame = core.TriangleCloudFrame(vertices, np.array([[0, 1, 2]]), np.zeros((6, 3)), 2)
    orig = tmp_path / "one.tcg"
    core.write_gof_file(orig, [core.GroupOfFrames([frame])], 8)
    report = tmp_path / "report.json"
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
                 "--metrics", metric, "--uinterp", "1000000", "--json", str(report)]) == 1
    assert ("error: interpolation factor 1000000 gives a render cloud of 2000003000001 "
            "points, more than 16777216") in capsys.readouterr().err
    assert not report.exists()


def test_lossless_eval_of_one_metric_writes_inf_and_empty_cells(tmp_path):
    # a PSNR of identical frames is "inf" in the JSON and the CSV; the CSV
    # leaves the columns of the metrics and rates not asked for empty; no
    # PSNR is finite, so the plot draws no line
    orig = _generate(tmp_path, frames=2, gof_size=2)
    paths = [tmp_path / name for name in ("report.json", "report.csv", "trace.svg")]
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
                 "--metrics", "triangle", "--json", str(paths[0]), "--csv", str(paths[1]),
                 "--svg", str(paths[2])]) == 0
    data = json.loads(paths[0].read_text())
    assert data["psnr_g_triangle"] == data["psnr_y_triangle"] == "inf"
    with open(paths[1], newline="") as fp:
        header, row = csv.reader(fp)
    report = dict(zip(header, row))
    assert report["psnr_g_triangle"] == "inf"
    assert report["psnr_g_matching"] == report["rate_bpv_total"] == report["step_motion"] == ""
    assert "<polyline" not in paths[2].read_text()


def test_eval_of_sequences_that_differ_in_frame_count_exits_1(tmp_path, capsys):
    # the pairs are read one at a time, so the mismatch shows when the
    # reconstruction runs out, and nothing has been written by then
    orig = _generate(tmp_path, frames=3, gof_size=3)
    recon = _generate(tmp_path, name="recon.tcg", frames=2, gof_size=2)
    outputs = [tmp_path / name for name in ("report.json", "report.csv", "trace.svg")]
    capsys.readouterr()
    rc = _run(["eval", "--original", str(orig), "--reconstruction", str(recon),
               "--json", str(outputs[0]), "--csv", str(outputs[1]), "--svg", str(outputs[2])])
    assert rc == 1
    assert "the reconstruction ends after 2 frames" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


def test_containers_at_two_upsample_factors_each_code_under_their_own_header(tmp_path):
    # a TCG2 file may hold GOFs at different U; each container's header sets it
    parts = [_generate(tmp_path, name=f"u{u}.tcg", frames=2, gof_size=2, upsample=u)
             for u in (3, 2)]
    orig = tmp_path / "mixed.tcg"
    orig.write_bytes(b"".join(path.read_bytes() for path in parts))
    bits, recon = tmp_path / "mixed.tcb", tmp_path / "recon.tcg"
    assert _run(["encode", str(orig), "-o", str(bits)]) == 0
    assert _run(["decode", str(bits), "-o", str(recon)]) == 0
    gofs, _ = core.read_gof_file(recon)
    assert [gof.reference.upsample for gof in gofs] == [3, 2]
    assert _run(["eval", "--metrics", "triangle", "--original", str(orig),
                 "--reconstruction", str(recon)]) == 0


@pytest.mark.parametrize("depths", [(8, 9), (9, 8)], ids=["8-vs-9", "9-vs-8"])
def test_eval_of_files_at_two_depths_exits_1_naming_both(tmp_path, capsys, depths):
    # the same scene at two depths is not the same voxelization, whichever
    # file is the original
    orig, recon = (_generate(tmp_path, name=f"d{d}.tcg", frames=2, gof_size=2, depth=d)
                   for d in depths)
    capsys.readouterr()
    rc = _run(["eval", "--metrics", "matching", "--original", str(orig),
               "--reconstruction", str(recon)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "psnr" not in captured.out
    for path, depth in zip((orig, recon), depths):
        assert f"{path} is at depth {depth}" in captured.err


def test_jobs_other_than_1_is_a_usage_error(tmp_path):
    # encode and decode run in one process, frame by frame
    orig = _generate(tmp_path, frames=4, gof_size=2)
    bits, recon = tmp_path / "seq.tcb", tmp_path / "recon.tcg"
    assert _run(["encode", str(orig), "-o", str(bits)]) == 0
    for command, source, out in (("encode", orig, tmp_path / "two.tcb"),
                                 ("decode", bits, recon)):
        with pytest.raises(SystemExit) as err:
            _run([command, str(source), "-o", str(out), "--jobs", "2"])
        assert err.value.code == 2
        assert not out.exists()


def test_intra_only_encode_decodes(tmp_path):
    orig = _generate(tmp_path, frames=3, gof_size=3)
    bits = tmp_path / "intra.tcb"
    recon = tmp_path / "intra.tcg"
    assert _run(["encode", str(orig), "-o", str(bits), "--intra-only"]) == 0
    assert _run(["decode", str(bits), "-o", str(recon)]) == 0
    gofs, _ = core.read_gof_file(recon)
    # intra frames have no shared vertex labeling: one group per frame
    assert [g.n_frames for g in gofs] == [1, 1, 1]


def test_missing_input_exits_1(tmp_path, capsys):
    rc = _run(["encode", str(tmp_path / "nope.tcg"), "-o", str(tmp_path / "x.tcb")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_magic_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tcg"
    bad.write_bytes(b"NOPE" + bytes(64))
    rc = _run(["encode", str(bad), "-o", str(tmp_path / "x.tcb")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _child_env():
    """Environment for a child process that imports this run's tricloud."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
                OPENBLAS_NUM_THREADS="1")


# the CLI in a child process whose address space is capped at 1 GiB, so a
# reader that trusts a hostile length fails there instead of in the test run
_CAPPED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from tricloud import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def _tcg2(upsample, n_p, n_f, body=b""):
    """The header of one TCG2 container of one depth-8 frame, then ``body``."""
    return core.GOF_MAGIC + struct.pack("<IIIII", 1, 8, upsample, n_p, n_f) + body


def _tcb1_with_upsample_byte(value):
    """A 3-frame TCB1 (sphere, 60 faces, U = 3, depth 8) whose GOF header has
    byte 2 of its upsample field set to ``value``."""
    gof = datagen.gen_sequence("sphere", 3, n_faces=60, upsample=3, seed=1)[0]
    bits = io.BytesIO()
    codec.write_bitstream(bits, [codec.encode_gof(gof, core.CodecParams(8, 3))])
    data = bytearray(bits.getvalue())
    # after the magic, version, GOF count, record length and depth (18 bytes)
    data[18 + 2] = value
    return bytes(data)


def _small_intra_gof():
    """One intra-only frame (sphere, 20 faces, U = 1, depth 4), encoded."""
    gof = datagen.gen_sequence("sphere", 1, n_faces=20, upsample=1, seed=1)[0]
    return codec.encode_gof(gof, core.CodecParams(4, 1), intra_only=True)


def _small_intra_tcb1(gof_fields, frame_fields):
    """A TCB1 of that GOF with fields of its GOF record and of its frame record
    replaced."""
    encoded = _small_intra_gof()
    frame = dataclasses.replace(encoded.frames[0], **frame_fields)
    bits = io.BytesIO()
    codec.write_bitstream(bits, [dataclasses.replace(encoded, frames=(frame,), **gof_fields)])
    return bits.getvalue()


def _index_runs_padded_to(total):
    """That frame's index runs, with the last zero run grown to ``total`` entries."""
    body = bytearray(zlib.decompress(_small_intra_gof().frames[0].index_run_bytes))
    runs = np.frombuffer(bytes(body[4:]), dtype="<u4")
    body[-4:] = struct.pack("<I", total - int(runs[:-1].sum()))
    return zlib.compress(bytes(body))


def _hostile_plane():
    """That frame's first color plane declaring n nonzeros of its n symbols
    and a unary part of 2^32-1 bytes, and carrying none of them."""
    plane = _small_intra_gof().frames[0].color_payloads[0]
    (n,) = struct.unpack_from("<I", plane, 1)
    return plane[:5] + struct.pack("<II", n, 0xFFFFFFFF)


def _deflated_zeros():
    """600 MiB of zeros, deflated 1 MiB at a time to about 0.6 MB."""
    deflater = zlib.compressobj()
    zeros = bytes(1 << 20)
    return b"".join([*(deflater.compress(zeros) for _ in range(600)), deflater.flush()])


# each case is built when its test runs, so collecting the tests deflates nothing
_HOSTILE = {
    # one face, then 2^32-1 vertices declared, none present
    "vertex-count": ("encode", lambda: _tcg2(2, 0xFFFFFFFF, 1, struct.pack("<3I", 0, 1, 2))),
    # 3 vertices and 1 face, but (U+1)(U+2)/2 colors for U = 2^32-1
    "upsample": ("encode", lambda: _tcg2(0xFFFFFFFF, 3, 1,
                                         struct.pack("<3I", 0, 1, 2) + bytes(36))),
    # 2^32-1 shared faces declared, none present
    "tcg-face-count": ("encode", lambda: _tcg2(2, 3, 0xFFFFFFFF)),
    # 2^32-1 frames of no vertices and no faces, which would store no bytes
    "tcg-frame-count": ("encode", lambda: core.GOF_MAGIC
                        + struct.pack("<IIIII", 0xFFFFFFFF, 8, 1, 0, 0)),
    # one GOF record that declares about 4 GiB and carries 10 bytes
    "record-length": ("decode", lambda: codec.BITSTREAM_MAGIC
                      + struct.pack("<HI", codec.BITSTREAM_VERSION, 1)
                      + struct.pack("<I", 0xFFFFFFF0) + bytes(10)),
    # a GOF header whose U is about 8.3 million: 2 * 10^15 refined points
    "gof-upsample": ("decode", lambda: _tcb1_with_upsample_byte(0x7F)),
    # 2^32-1 vertices declared, and index runs that expand to as many
    "gof-vertex-count": ("decode", lambda: _small_intra_tcb1(
        {"n_vertices": 0xFFFFFFFF}, {"index_run_bytes": _index_runs_padded_to(0xFFFFFFFF)})),
    # 2^32-1 faces declared, and a face section that inflates to 600 MiB
    "face-count": ("decode", lambda: _small_intra_tcb1(
        {"n_faces": 0xFFFFFFFF}, {"face_bytes": _deflated_zeros()})),
    # 2^32-1 voxels declared, and an octree section that inflates to 600 MiB
    "voxel-count": ("decode", lambda: _small_intra_tcb1(
        {}, {"n_voxels": 0xFFFFFFFF, "octree_bytes": _deflated_zeros()})),
    # a coder-2 color plane whose every symbol is a nonzero, with a unary
    # part of 2^32-1 bytes
    "plane-unary-length": ("decode", lambda: _small_intra_tcb1({}, {"color_payloads": (
        _hostile_plane(), *_small_intra_gof().frames[0].color_payloads[1:])})),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE))
def test_hostile_declared_length_exits_1_within_a_memory_cap(tmp_path, name):
    command, data = _HOSTILE[name]
    path = tmp_path / "hostile.bin"
    path.write_bytes(data())
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, command, str(path), "-o", str(out)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stderr
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_encode_and_decode_read_from_a_pipe(tmp_path):
    orig = _generate(tmp_path, frames=2, gof_size=2)
    bits, recon = tmp_path / "seq.tcb", tmp_path / "recon.tcg"
    assert _run(["encode", str(orig), "-o", str(bits)]) == 0
    assert _run(["decode", str(bits), "-o", str(recon)]) == 0
    for command, source, target in (("encode", orig, bits), ("decode", bits, recon)):
        piped = tmp_path / f"piped-{command}"
        subprocess.run([sys.executable, "-m", "tricloud.cli", command, "/dev/stdin",
                        "-o", str(piped)], input=source.read_bytes(), env=_child_env(),
                       capture_output=True, check=True, timeout=120)
        assert piped.read_bytes() == target.read_bytes()


def test_decode_of_a_stream_without_gofs_exits_1_and_writes_nothing(tmp_path, capsys):
    # a TCG2 file needs at least one container, so there is nothing to write
    bits = tmp_path / "empty.tcb"
    codec.write_bitstream_file(bits, [])
    out = tmp_path / "out.tcg"
    assert _run(["decode", str(bits), "-o", str(out)]) == 1
    assert "no GOF" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_metric_exits_2(tmp_path, capsys):
    orig = _generate(tmp_path, frames=2, gof_size=2)
    rc = _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
               "--metrics", "triangle,hausdorff"])
    assert rc == 2
    assert "unknown metric" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--metrics", ""], "names no metric"),
    (["--metrics", " , "], "names no metric"),
    (["--metrics", "projection,matching", "--svg", "trace.svg"], "--svg plots the triangle"),
    (["--uinterp", "0"], "--uinterp must be >= 1"),
])
def test_eval_flags_that_would_report_nothing_exit_2_before_reading(tmp_path, monkeypatch,
                                                                   capsys, flags, message):
    # neither file exists: a run that read them would exit 1
    monkeypatch.chdir(tmp_path)
    assert _run(["eval", "--original", "none.tcg", "--reconstruction", "none.tcg", *flags]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_of_a_stream_without_gofs_exits_1_and_writes_no_report(tmp_path, capsys):
    orig = _generate(tmp_path, frames=2, gof_size=2)
    bits = tmp_path / "empty.tcb"
    codec.write_bitstream_file(bits, [])
    outputs = [tmp_path / name for name in ("report.json", "report.csv", "trace.svg")]
    capsys.readouterr()
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
                 "--metrics", "triangle", "--bitstream", str(bits), "--json", str(outputs[0]),
                 "--csv", str(outputs[1]), "--svg", str(outputs[2])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no GOF" in err and "Traceback" not in err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("frames, depth", [(3, 7), (2, 7), (3, 6)])
def test_eval_with_the_bitstream_of_another_sequence_exits_1_and_writes_no_report(
        tmp_path, capsys, frames, depth):
    # its steps and rates would be reported beside PSNRs they did not produce
    orig = _generate(tmp_path, frames=2, gof_size=2, depth=6)
    other = _generate(tmp_path, name="other.tcg", frames=frames, gof_size=frames, depth=depth)
    bits = tmp_path / "other.tcb"
    assert _run(["encode", str(other), "-o", str(bits)]) == 0
    outputs = [tmp_path / name for name in ("report.json", "report.csv", "trace.svg")]
    capsys.readouterr()
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
                 "--metrics", "triangle", "--bitstream", str(bits), "--json", str(outputs[0]),
                 "--csv", str(outputs[1]), "--svg", str(outputs[2])]) == 1
    captured = capsys.readouterr()
    # another depth is refused before the metrics run, another frame total after
    compared = f"{orig} is at depth 6" if depth != 6 else "2 frame pairs at depth 6 were compared"
    assert captured.err == f"error: {bits} holds {frames} frames at depth {depth}, but {compared}\n"
    assert "rate_" not in captured.out
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("stream, code", [("depth", 1), ("magic", 2)])
def test_eval_refuses_a_bad_bitstream_before_any_metric_runs(tmp_path, capsys, monkeypatch,
                                                            stream, code):
    # a stream at another depth (exit 1) or a TCG2 file in its place (exit 2)
    # is refused before the metrics spend their time
    orig = _generate(tmp_path, frames=2, gof_size=2, depth=6)
    bits = orig
    if stream == "depth":
        other = _generate(tmp_path, name="other.tcg", frames=2, gof_size=2, depth=7)
        bits = tmp_path / "other.tcb"
        assert _run(["encode", str(other), "-o", str(bits)]) == 0

    def evaluate(*args, **kwargs):
        raise AssertionError("evaluate ran")

    monkeypatch.setattr(cli, "evaluate", evaluate)
    capsys.readouterr()
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
                 "--metrics", "triangle", "--bitstream", str(bits)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out


def _refused_version(tmp_path, capsys, version):
    """A stream relabeled as ``version``: the reader, decode and eval refuse it."""
    orig = _generate(tmp_path, frames=2, gof_size=2)
    bits = tmp_path / "seq.tcb"
    assert _run(["encode", str(orig), "-o", str(bits)]) == 0
    data = bytearray(bits.read_bytes())
    assert data[4:6] == struct.pack("<H", codec.BITSTREAM_VERSION)
    data[4:6] = struct.pack("<H", version)
    bits.write_bytes(data)
    with pytest.raises(FormatError, match=f"unsupported container version {version}"):
        codec.read_bitstream(io.BytesIO(data))
    recon = tmp_path / "recon.tcg"
    capsys.readouterr()
    assert _run(["decode", str(bits), "-o", str(recon)]) == 2
    assert not recon.exists()
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(orig),
                 "--metrics", "triangle", "--bitstream", str(bits)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 2 and "Traceback" not in captured.err
    assert not captured.out


def test_a_version_1_stream_is_refused_by_the_reader_decode_and_eval(tmp_path, capsys):
    # version 1 coded the octree in preorder; no reader parses it any more
    _refused_version(tmp_path, capsys, 1)


def test_a_version_2_stream_is_refused_by_the_reader_decode_and_eval(tmp_path, capsys):
    # version 2 coded every plane in RLGR; no reader parses it any more
    _refused_version(tmp_path, capsys, 2)


def _tcg1(frames, depth):
    """A TCG1 file of one container, the layout before TCG2: each frame record
    repeated the magic, depth, U and counts, and only the first held faces."""
    records = [b"TCF1" + struct.pack("<IIII", depth, f.upsample, f.n_vertices, f.n_faces)
               + f.vertices.astype("<f4").tobytes()
               + (f.faces.astype("<u4").tobytes() if t == 0 else b"")
               + f.colors.astype(np.uint8).tobytes() for t, f in enumerate(frames)]
    return b"TCG1" + struct.pack("<I", len(frames)) + b"".join(records)


def test_a_tcg1_file_is_refused_by_the_reader_encode_and_eval(tmp_path, capsys):
    # no reader parses TCG1 any more: its magic alone refuses it
    (gof,), depth = core.read_gof_file(_generate(tmp_path, frames=2, gof_size=2))
    old = tmp_path / "old.tcg"
    old.write_bytes(_tcg1(gof.frames, depth))
    with open(old, "rb") as fp, pytest.raises(FormatError, match="magic b'TCG1'"):
        core.read_gof_frames(fp)
    bits, report = tmp_path / "old.tcb", tmp_path / "old.json"
    capsys.readouterr()
    assert _run(["encode", str(old), "-o", str(bits)]) == 2
    assert _run(["eval", "--original", str(old), "--reconstruction", str(old),
                 "--metrics", "triangle", "--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 2 and "Traceback" not in captured.err
    assert not captured.out and not bits.exists() and not report.exists()


@pytest.mark.parametrize("depth", ["0", "21", "-1"])
def test_generate_at_a_depth_no_reader_accepts_exits_1_and_writes_nothing(tmp_path, capsys,
                                                                         depth):
    out = tmp_path / "bad.tcg"
    assert _run(["generate", "--shape", "sphere", "--frames", "1", "--faces", "20",
                 "--upsample", "2", "--depth", depth, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: depth must be in 1..20")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--original", "missing.tcg", "--reconstruction", "missing.tcg",
     "--metrics", "triangle", "--depth", "0"],
    ["encode", "missing.tcg", "-o", "out.tcb", "--depth", "9"],
], ids=["eval", "encode"])
def test_encode_and_eval_take_no_depth_flag(tmp_path, capsys, argv):
    # the depth comes from the TCG2 file alone: a --depth is a usage error,
    # found at argument parsing, before the (missing) input is opened
    with pytest.raises(SystemExit) as err:
        _run([str(tmp_path / a) if a.endswith((".tcg", ".tcb")) else a for a in argv])
    assert err.value.code == 2
    assert "unrecognized arguments: --depth" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        _run([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        _run(["generate", "--shape", "cube", "--frames", "2", "-o", "x"])
    assert err.value.code == 2


def test_decoded_reference_matches_quantized_original(tmp_path):
    orig = _generate(tmp_path, frames=2, gof_size=2)
    bits = tmp_path / "seq.tcb"
    recon = tmp_path / "recon.tcg"
    assert _run(["encode", str(orig), "-o", str(bits)]) == 0
    assert _run(["decode", str(bits), "-o", str(recon)]) == 0
    (gof_in,), _ = core.read_gof_file(orig)
    (gof_out,), _ = core.read_gof_file(recon)
    a = np.sort(gof_in.reference.vertices, axis=0)
    b = np.sort(gof_out.reference.vertices, axis=0)
    # columnwise sort is order-free; reference geometry is within half a cell
    assert np.max(np.abs(a - b)) <= 0.5 * 2.0 ** -8 + 1e-6


def test_eval_report_is_pinned(tmp_path, capsys):
    # sphere (--faces 200), U=6, 2 frames, depth 9: the six-decimal report of
    # every metric must stay as recorded when the metrics are reimplemented;
    # about 3,800 voxels a frame put matching on its grid path
    orig = tmp_path / "pin.tcg"
    bits = tmp_path / "pin.tcb"
    recon = tmp_path / "pin_recon.tcg"
    assert _run(["generate", "--shape", "sphere", "--frames", "2", "--faces", "200",
                 "--upsample", "6", "--seed", "3", "--depth", "9", "-o", str(orig)]) == 0
    assert _run(["encode", str(orig), "-o", str(bits), "--step-motion", "1",
                 "--step-color-intra", "4", "--step-color-inter", "4"]) == 0
    assert _run(["decode", str(bits), "-o", str(recon)]) == 0
    capsys.readouterr()
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(recon),
                 "--metrics", "triangle,projection,matching"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "sequence = pin",
        "n_frames = 2",
        "depth = 9",
        "uinterp = 1",
        "psnr_g_triangle = 67.917781",
        "psnr_y_triangle = 46.901421",
        "psnr_u_triangle = 46.812773",
        "psnr_v_triangle = 47.152252",
        "psnr_y_projection = 33.988647",
        "psnr_u_projection = 38.287615",
        "psnr_v_projection = 37.477665",
        "d_g2_matching = 0.000002",
        "d_y2_matching = 1.321940",
        "psnr_g_matching = 61.807326",
        "psnr_y_matching = 46.918688",
    ]
    # the plane payloads of every frame (coder 2 intra, RLGR predicted), in
    # stream order, and the decoded file: unlike the deflated sections,
    # neither depends on the zlib build
    planes = b"".join(plane for enc in codec.read_bitstream_file(bits)
                      for frame in enc.frames
                      for plane in getattr(frame, "motion_payloads", ()) + frame.color_payloads)
    assert hashlib.sha256(planes).hexdigest() == (
        "cd199aba49a67c35c84b01276bcb1ee04ac78c6c82b8bae6dba6a366b081e343")
    assert hashlib.sha256(recon.read_bytes()).hexdigest() == (
        "08b0242abb6e683f5924b038cd0ff37039170826746f2eb68bb90c661aeb4c02")


def test_decode_accepts_streams_coded_at_coarse_steps(tmp_path):
    # saturated colors on a sphere stretched to touch the unit cube: at these
    # steps the reconstruction overshoots [0, 255] and [0, 1), and decode
    # must still write a valid TCG2 file
    (gof,), depth = core.read_gof_file(_generate(tmp_path, frames=2, gof_size=2))
    rng = np.random.default_rng(0)
    frames = []
    for frame in gof.frames:
        v = frame.vertices - frame.vertices.min(axis=0)
        v = v / v.max(axis=0) * np.nextafter(1.0, 0.0)
        colors = rng.choice([0.0, 255.0], size=frame.colors.shape)
        frames.append(core.TriangleCloudFrame(v, frame.faces, colors, frame.upsample))
    orig = tmp_path / "edge.tcg"
    bits = tmp_path / "edge.tcb"
    recon = tmp_path / "edge_recon.tcg"
    core.write_gof_file(orig, [core.GroupOfFrames(tuple(frames))], depth)
    assert _run(["encode", str(orig), "-o", str(bits), "--step-motion", "4",
                 "--step-color-intra", "64", "--step-color-inter", "64"]) == 0
    assert _run(["decode", str(bits), "-o", str(recon)]) == 0
    (out,), _ = core.read_gof_file(recon)
    colors = np.concatenate([f.colors for f in out.frames])
    assert colors.min() == 0.0 and colors.max() == 255.0


def _pin_scene(tmp_path):
    # the scene of test_eval_report_is_pinned: (original, reconstruction)
    orig = tmp_path / "pin.tcg"
    bits = tmp_path / "pin.tcb"
    recon = tmp_path / "pin_recon.tcg"
    assert _run(["generate", "--shape", "sphere", "--frames", "2", "--faces", "200",
                 "--upsample", "6", "--seed", "3", "--depth", "9", "-o", str(orig)]) == 0
    assert _run(["encode", str(orig), "-o", str(bits), "--step-motion", "1",
                 "--step-color-intra", "4", "--step-color-inter", "4"]) == 0
    assert _run(["decode", str(bits), "-o", str(recon)]) == 0
    return orig, recon


def test_eval_report_at_uinterp_2_is_pinned(tmp_path, capsys):
    # factor 2 puts blended edge midpoints into every render cloud; each
    # distinct point is voxelized once, so two roundings of one shared edge
    # midpoint on either side of a voxel boundary cannot fill two voxels
    orig, recon = _pin_scene(tmp_path)
    capsys.readouterr()
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(recon),
                 "--uinterp", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sequence = pin",
        "n_frames = 2",
        "depth = 9",
        "uinterp = 2",
        "psnr_g_triangle = 67.977761",
        "psnr_y_triangle = 48.099941",
        "psnr_u_triangle = 48.031756",
        "psnr_v_triangle = 48.390220",
        "psnr_y_projection = 28.763919",
        "psnr_u_projection = 32.854891",
        "psnr_v_projection = 31.898602",
        "d_g2_matching = 0.000002",
        "d_y2_matching = 1.295654",
        "psnr_g_matching = 61.935465",
        "psnr_y_matching = 47.005914",
    ]


def test_matching_on_the_pin_scene_render_voxels_matches_brute_force(tmp_path):
    # the render voxel sets an eval of the pin scene matches: the grid search
    # must give brute force's answers, over hits at squared distance 0, 1 and 2
    orig, recon = _pin_scene(tmp_path)
    originals = [f for gof in core.read_gof_file(orig)[0] for f in gof.frames]
    recons = [f for gof in core.read_gof_file(recon)[0] for f in gof.frames]
    d2_seen = set()
    for a, b in zip(originals, recons):
        sets = [metrics._render_voxels(f, 9, 1) for f in (a, b)]
        xyz = [geom.voxel_coords(vs) for vs in sets]
        for q, t in ((0, 1), (1, 0)):
            got = metrics._nearest(sets[q], xyz[q], sets[t], xyz[t])
            want = np.concatenate([metrics._nearest_brute(xyz[q][i:i + 256], xyz[t])
                                   for i in range(0, len(xyz[q]), 256)])
            assert np.array_equal(got, want)
            d2_seen.update(np.sum((xyz[q] - xyz[t][got]) ** 2, axis=1).tolist())
    assert {0, 1, 2} <= d2_seen


def test_default_eval_builds_each_render_voxel_set_once(tmp_path, monkeypatch, capsys):
    orig, recon = _pin_scene(tmp_path)
    calls = []
    render_voxels = metrics._render_voxels

    def counting(*args):
        calls.append(args)
        return render_voxels(*args)

    monkeypatch.setattr(metrics, "_render_voxels", counting)
    # also counts calls through a name cli imports for itself
    monkeypatch.setattr(cli, "_render_voxels", counting, raising=False)
    assert _run(["eval", "--original", str(orig), "--reconstruction", str(recon)]) == 0
    assert "psnr_y_projection" in capsys.readouterr().out
    assert len(calls) == 2 * 2


def test_generate_validates_each_gof_once(tmp_path, monkeypatch):
    # the TCG2 writer checks each frame of each GOF as it writes it
    calls = []
    check_frame = core.check_frame

    def counting(frame, t, *args):
        calls.append(t)
        return check_frame(frame, t, *args)

    monkeypatch.setattr(core, "check_frame", counting)
    _generate(tmp_path, frames=4, gof_size=2)
    assert calls == [0, 1, 0, 1]


def test_generate_builds_the_still_texture_once(tmp_path, monkeypatch):
    # the time-independent texture is built per sequence; a frame only adds
    # its breathing term
    calls = []
    still_texture = datagen._still_texture

    def counting(points, consts):
        calls.append(points.shape[0])
        return still_texture(points, consts)

    monkeypatch.setattr(datagen, "_still_texture", counting)
    gofs = datagen.gen_sequence("sphere", 5, n_faces=60, upsample=2, seed=3, gof_size=2)
    assert [g.n_frames for g in gofs] == [2, 2, 1]
    assert len(calls) == 1
    calls.clear()
    _generate(tmp_path, frames=4, gof_size=2)
    assert len(calls) == 1


def test_encode_checks_each_frame_once(tmp_path, monkeypatch):
    # the streaming reader checks each frame as it arrives; the frame encoder
    # does not check again
    orig = _generate(tmp_path, frames=3, gof_size=3)
    calls = []
    check_frame = core.check_frame

    def counting(frame, t, *args):
        calls.append(t)
        return check_frame(frame, t, *args)

    monkeypatch.setattr(core, "check_frame", counting)
    assert _run(["encode", str(orig), "-o", str(tmp_path / "seq.tcb")]) == 0
    assert calls == [0, 1, 2]


def test_decode_that_fails_after_output_started_exits_1_and_leaves_no_file(tmp_path, capsys):
    # the second GOF record parses, but its reference frame does not decode;
    # by then the first GOF has been written
    orig = _generate(tmp_path, frames=4, gof_size=2)
    bits = tmp_path / "seq.tcb"
    assert _run(["encode", str(orig), "-o", str(bits)]) == 0
    first, second = codec.read_bitstream_file(bits)
    bad_reference = dataclasses.replace(
        second.frames[0], n_refined_voxels=second.frames[0].n_refined_voxels + 1)
    bad = dataclasses.replace(second, frames=(bad_reference,) + second.frames[1:])
    codec.write_bitstream_file(bits, [first, bad])
    capsys.readouterr()
    out = tmp_path / "out.tcg"
    assert _run(["decode", str(bits), "-o", str(out)]) == 1
    assert "refined voxel count disagrees with the header" in capsys.readouterr().err
    assert not out.exists()
    # an output that is not a regular file is left where it is
    assert _run(["decode", str(bits), "-o", os.devnull]) == 1
    assert os.path.exists(os.devnull)


def test_decode_of_gofs_coded_at_two_depths_exits_1_and_writes_nothing(tmp_path, capsys):
    # one TCG2 file holds one depth, so such a stream has no valid output
    gofs = datagen.gen_sequence("sphere", 4, n_faces=60, upsample=2, seed=9, gof_size=2)
    bits = tmp_path / "mixed.tcb"
    codec.write_bitstream_file(bits, [codec.encode_gof(gofs[0], core.CodecParams(8, 2)),
                                      codec.encode_gof(gofs[1], core.CodecParams(5, 2))])
    capsys.readouterr()
    out = tmp_path / "out.tcg"
    assert _run(["decode", str(bits), "-o", str(out)]) == 1
    assert "GOF records disagree on depth" in capsys.readouterr().err
    assert not out.exists()


_STAGES = ("encode", "decode", "eval triangle", "eval projection", "eval matching")


def _peaks(tmp_path, gofs):
    """tracemalloc peaks (bytes) of an in-process encode and decode of gofs, and of
    one eval per metric of the decoded frames against gofs."""
    orig, bits, recon = (tmp_path / name for name in ("in.tcg", "seq.tcb", "out.tcg"))
    core.write_gof_file(orig, gofs, 10)
    peaks = []
    for argv in (["encode", str(orig), "-o", str(bits), "--step-color-intra", "4",
                  "--step-color-inter", "4"],
                 ["decode", str(bits), "-o", str(recon)],
                 *(["eval", "--original", str(orig), "--reconstruction", str(recon),
                    "--metrics", metric] for metric in ("triangle", "projection", "matching"))):
        tracemalloc.start()
        try:
            assert _run(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_readers_hold_no_frame_they_have_yielded(tmp_path):
    # a frame the consumer drops is freed at once, while the reader is
    # suspended; two containers, so the CLI reader crosses into a second one
    path = tmp_path / "seq.tcg"
    gofs = datagen.gen_sequence("sphere", 4, n_faces=20, upsample=2, seed=3, gof_size=2)
    core.write_gof_file(path, gofs, 8)
    drawn = []
    for _, frames in core.iter_gof_file(path):
        drawn += [ref() is None for ref in map(weakref.ref, frames)]
    drawn += [ref() is None for ref in map(weakref.ref, cli._read_frames(path)[1])]
    assert drawn == [True] * 8


def test_memory_stays_flat_in_frames_and_in_gofs(tmp_path, capsys):
    # encode and decode hold one input or output frame at a time, beside the
    # GOF's reference state and frame buffer, and one GOF at a time; eval holds
    # one frame pair and its render clouds or voxel sets at a time, so its
    # base is one frame: a second pair must not sit beside the first
    def sphere(n_frames, gof_size):
        return datagen.gen_sequence("sphere", n_frames, n_faces=2000, upsample=10, seed=1,
                                    gof_size=gof_size)

    one_frame = _peaks(tmp_path, sphere(1, 1))
    two_frames = _peaks(tmp_path, sphere(2, 2))
    four_frames = _peaks(tmp_path, sphere(4, 4))
    four_gofs = _peaks(tmp_path, sphere(8, 2))
    for stage, one, two, frames, gofs in zip(_STAGES, one_frame, two_frames, four_frames,
                                             four_gofs):
        base = one if stage.startswith("eval") else two
        for peak in (two, frames, gofs):
            assert peak <= 1.05 * base, (stage, peak, base)


@pytest.mark.parametrize("frames, gof_size, intra_only", [
    (3, 3, False),  # hybrid
    (3, 3, True),   # intra-only
    (5, 2, False),  # three GOFs, the last a lone reference frame
])
def test_streamed_outputs_equal_the_collectors(tmp_path, frames, gof_size, intra_only):
    orig = _generate(tmp_path, frames=frames, gof_size=gof_size)
    bits, recon = tmp_path / "seq.tcb", tmp_path / "recon.tcg"
    flags = ["--step-color-intra", "2", "--step-color-inter", "3", "--jobs", "1"]
    flags += ["--intra-only"] if intra_only else []
    assert _run(["encode", str(orig), "-o", str(bits), *flags]) == 0
    assert _run(["decode", str(bits), "-o", str(recon), "--jobs", "1"]) == 0

    gofs, depth = core.read_gof_file(orig)
    params = core.CodecParams(depth, gofs[0].reference.upsample, step_color_intra=2.0,
                              step_color_inter=3.0)
    want_bits, want_recon = tmp_path / "want.tcb", tmp_path / "want.tcg"
    codec.write_bitstream_file(want_bits, [codec.encode_gof(g, params, intra_only)
                                           for g in gofs])
    out = []
    for enc in codec.read_bitstream_file(want_bits):
        gof = codec.decode_gof(enc)
        out.extend(core.GroupOfFrames((f,)) for f in gof.frames) if intra_only else out.append(gof)
    core.write_gof_file(want_recon, out, depth)
    assert bits.read_bytes() == want_bits.read_bytes()
    assert recon.read_bytes() == want_recon.read_bytes()

