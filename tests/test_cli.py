"""Tests for the `pastri` command-line interface (repro.cli)."""

from pathlib import Path

import numpy as np
import pytest

from repro.chem.dataset import ERIDataset
from repro.cli import main
from repro.core.blocking import BlockSpec
from tests.conftest import make_patterned_stream


@pytest.fixture
def npz_dataset(tmp_path, rng):
    data = make_patterned_stream(rng, n_blocks=4)
    ds = ERIDataset(data=data, spec=BlockSpec((6, 6, 6, 6)), molecule_name="t", config="(dd|dd)")
    path = tmp_path / "ds.npz"
    ds.save(str(path))
    return path, data


def test_compress_decompress_cycle(tmp_path, npz_dataset, capsys):
    src, data = npz_dataset
    comp = tmp_path / "out.pastri"
    dec = tmp_path / "out.npy"
    assert main(["compress", str(src), str(comp), "--eb", "1e-10"]) == 0
    assert "ratio" in capsys.readouterr().out
    assert main(["decompress", str(comp), str(dec)]) == 0
    out = np.load(dec)
    assert np.max(np.abs(out - data)) <= 1e-10


def test_compress_raw_npy_requires_config(tmp_path, rng, capsys):
    src = tmp_path / "raw.npy"
    np.save(src, make_patterned_stream(rng, n_blocks=2))
    with pytest.raises(SystemExit):
        main(["compress", str(src), str(tmp_path / "x.pastri")])
    assert main(
        ["compress", str(src), str(tmp_path / "x.pastri"), "--config", "(dd|dd)"]
    ) == 0


def test_compress_with_auto_detected_structure(tmp_path, rng, capsys):
    src = tmp_path / "raw.npy"
    data = make_patterned_stream(rng, n_blocks=20, zero_blocks=0)
    np.save(src, data)
    comp = tmp_path / "auto.pastri"
    assert main(["compress", str(src), str(comp), "--config", "auto"]) == 0
    out = capsys.readouterr().out
    assert "detected block structure" in out
    dec = tmp_path / "auto.npy"
    assert main(["decompress", str(comp), str(dec)]) == 0
    assert np.max(np.abs(np.load(dec) - data)) <= 1e-10


def test_info_prints_header_fields(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    comp = tmp_path / "o.pastri"
    main(["compress", str(src), str(comp), "--eb", "1e-9"])
    capsys.readouterr()
    assert main(["info", str(comp)]) == 0
    out = capsys.readouterr().out
    assert "1e-09" in out and "(dd|dd)" in out


def test_info_and_decompress_report_the_stream_version(tmp_path, npz_dataset, capsys):
    src, data = npz_dataset
    comp = tmp_path / "o.pastri"
    main(["compress", str(src), str(comp), "--eb", "1e-10"])
    capsys.readouterr()
    assert main(["info", str(comp)]) == 0
    assert "stream version: 2 (planar ECQ)" in capsys.readouterr().out
    # a committed version-1 blob: listed as such, decoded bit-identically
    fx = np.load(Path(__file__).parent / "data" / "pastri_v1_streams.npz")
    v1 = tmp_path / "v1.pastri"
    v1.write_bytes(fx["mixed_t4_adaptive_blob"].tobytes())
    assert main(["info", str(v1)]) == 0
    assert "stream version: 1 (interleaved ECQ)" in capsys.readouterr().out
    assert main(["decompress", str(v1), str(tmp_path / "v1.npy")]) == 0
    assert "stream v1" in capsys.readouterr().out
    expected = fx[f"output_{int(fx['mixed_t4_adaptive_out'])}"]
    assert np.array_equal(np.load(tmp_path / "v1.npy").view(np.uint64), expected.view(np.uint64))


def test_cli_metric_and_tree_options(tmp_path, npz_dataset):
    src, data = npz_dataset
    comp = tmp_path / "o.pastri"
    assert main(["compress", str(src), str(comp), "--metric", "aar", "--tree", "1"]) == 0
    dec = tmp_path / "o.npy"
    assert main(["decompress", str(comp), str(dec)]) == 0
    assert np.max(np.abs(np.load(dec) - data)) <= 1e-10


def test_gen_creates_dataset(tmp_path, capsys):
    out = tmp_path / "ds.npz"
    assert main(["gen", "benzene", "(dd|dd)", str(out), "--blocks", "5"]) == 0
    assert "5 blocks" in capsys.readouterr().out
    from repro.chem.dataset import ERIDataset

    ds = ERIDataset.load(str(out))
    assert ds.n_blocks == 5 and ds.spec.dims == (6, 6, 6, 6)


def test_gen_rejects_unknown_molecule(tmp_path, capsys):
    assert main(["gen", "caffeine", "(dd|dd)", str(tmp_path / "x.npz")]) == 1
    assert "error:" in capsys.readouterr().err


def test_assess_reports_quality(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    assert main(["assess", str(src), "--eb", "1e-10"]) == 0
    out = capsys.readouterr().out
    assert "compression ratio" in out and "bound satisfied" in out and "True" in out


def test_assess_other_codec(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    assert main(["assess", str(src), "--codec", "sz"]) == 0
    assert "PSNR" in capsys.readouterr().out


def test_cli_reports_repro_errors(tmp_path, capsys):
    bad = tmp_path / "bad.pastri"
    bad.write_bytes(b"garbage")
    assert main(["info", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# container subcommands (pack / unpack / ls) and PSTF sniffing


def test_pack_unpack_cycle(tmp_path, npz_dataset, capsys):
    src, data = npz_dataset
    cont = tmp_path / "out.pstf"
    dec = tmp_path / "out.npy"
    assert main(["pack", str(src), str(cont), "--eb", "1e-10"]) == 0
    assert "frames" in capsys.readouterr().out
    assert main(["unpack", str(cont), str(dec)]) == 0
    assert np.max(np.abs(np.load(dec) - data)) <= 1e-10


def test_pack_chunk_blocks_controls_frame_count(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset  # 4 shell blocks
    cont = tmp_path / "out.pstf"
    assert main(["pack", str(src), str(cont), "--chunk-blocks", "1"]) == 0
    assert "4 frames" in capsys.readouterr().out


def test_ls_prints_frame_index(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    cont = tmp_path / "out.pstf"
    main(["pack", str(src), str(cont), "--chunk-blocks", "2"])
    capsys.readouterr()
    assert main(["ls", str(cont)]) == 0
    out = capsys.readouterr().out
    assert "codec pastri" in out
    assert "offset" in out and "crc32" in out
    assert "0x" in out  # per-frame checksums are shown


def test_info_sniffs_containers(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    cont = tmp_path / "out.pstf"
    main(["pack", str(src), str(cont)])
    capsys.readouterr()
    assert main(["info", str(cont)]) == 0
    out = capsys.readouterr().out
    assert "PSTF container (v2)" in out and "pastri" in out


def test_decompress_refuses_containers_with_guidance(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    cont = tmp_path / "out.pstf"
    main(["pack", str(src), str(cont)])
    capsys.readouterr()
    assert main(["decompress", str(cont), str(tmp_path / "x.npy")]) == 1
    err = capsys.readouterr().err
    assert "PSTF container" in err and "unpack" in err


def test_unpack_refuses_bare_streams(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    bare = tmp_path / "out.pastri"
    main(["compress", str(src), str(bare)])
    capsys.readouterr()
    assert main(["unpack", str(bare), str(tmp_path / "x.npy")]) == 1
    err = capsys.readouterr().err
    assert "not a PSTF container" in err and "decompress" in err


def test_ls_refuses_non_containers(tmp_path, capsys):
    bad = tmp_path / "bad.pstf"
    bad.write_bytes(b"garbage")
    assert main(["ls", str(bad)]) == 1
    assert "not a PSTF container" in capsys.readouterr().err


def _foreign_container(tmp_path):
    """A well-formed container written by a codec this build doesn't register."""
    from repro.streamio import ContainerWriter

    class Alien:
        name = "alien9000"

        def compress(self, data, error_bound):
            return np.ascontiguousarray(data).tobytes()

        def decompress(self, blob):
            return np.frombuffer(blob, dtype=np.float64)

        def spec_kwargs(self):
            return {"warp": 9, "mode": "quantum"}

    path = tmp_path / "alien.pstf"
    with open(path, "wb") as fh:
        w = ContainerWriter(fh, Alien(), 1e-10)
        w.append(np.arange(16.0), key="b0")
        w.close()
    return path


def test_info_renders_unknown_codec_spec(tmp_path, capsys):
    # a container from a newer/foreign build must still be describable
    cont = _foreign_container(tmp_path)
    assert main(["info", str(cont)]) == 0
    out = capsys.readouterr().out
    assert "alien9000" in out and "'warp': 9" in out
    assert "no codec of this name registered here" in out


def test_ls_renders_unknown_codec_spec(tmp_path, capsys):
    cont = _foreign_container(tmp_path)
    assert main(["ls", str(cont)]) == 0
    out = capsys.readouterr().out
    assert "codec alien9000" in out and "b0" in out


def test_unpack_unknown_codec_fails_cleanly(tmp_path, capsys):
    # decoding (unlike describing) genuinely needs the codec: clean error
    cont = _foreign_container(tmp_path)
    assert main(["unpack", str(cont), str(tmp_path / "x.npy")]) == 1
    assert "alien9000" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the lowrank codec through the CLI


def test_pack_unpack_lowrank(tmp_path, npz_dataset, capsys):
    src, data = npz_dataset
    cont = tmp_path / "lr.pstf"
    dec = tmp_path / "lr.npy"
    assert main(["pack", str(src), str(cont), "--codec", "lowrank",
                 "--eb", "1e-10", "--max-rank", "8"]) == 0
    capsys.readouterr()
    assert main(["info", str(cont)]) == 0
    assert "lowrank" in capsys.readouterr().out
    assert main(["unpack", str(cont), str(dec)]) == 0
    assert np.max(np.abs(np.load(dec) - data)) <= 1e-10


def test_assess_lowrank_with_knobs(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    assert main(["assess", str(src), "--codec", "lowrank", "--eb", "1e-9",
                 "--method", "cp", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "lowrank" in out and "bound satisfied" in out


# ---------------------------------------------------------------------------
# --eb-mode


def test_compress_relative_bound(tmp_path, npz_dataset, capsys):
    src, data = npz_dataset
    comp = tmp_path / "rel.pastri"
    dec = tmp_path / "rel.npy"
    assert main(
        ["compress", str(src), str(comp), "--eb", "1e-5", "--eb-mode", "rel"]
    ) == 0
    out = capsys.readouterr().out
    assert "relative bound 1e-05 -> absolute" in out
    assert main(["decompress", str(comp), str(dec)]) == 0
    value_range = data.max() - data.min()
    assert np.max(np.abs(np.load(dec) - data)) <= 1e-5 * value_range


def test_assess_relative_bound(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    assert main(["assess", str(src), "--eb", "1e-4", "--eb-mode", "rel"]) == 0
    out = capsys.readouterr().out
    assert "(rel)" in out and "relative bound" in out


def test_pack_relative_bound(tmp_path, npz_dataset, capsys):
    src, data = npz_dataset
    cont = tmp_path / "rel.pstf"
    dec = tmp_path / "rel.npy"
    assert main(["pack", str(src), str(cont), "--eb", "1e-5", "--eb-mode", "rel"]) == 0
    assert "relative bound" in capsys.readouterr().out
    assert main(["unpack", str(cont), str(dec)]) == 0
    value_range = data.max() - data.min()
    assert np.max(np.abs(np.load(dec) - data)) <= 1e-5 * value_range


# ---------------------------------------------------------------------------
# --telemetry and the telemetry report subcommand


def test_pack_telemetry_prints_stage_table(tmp_path, npz_dataset, capsys):
    from repro import telemetry
    from repro.streamio import open_container

    src, data = npz_dataset
    cont = tmp_path / "out.pstf"
    assert main(["pack", str(src), str(cont), "--telemetry"]) == 0
    captured = capsys.readouterr()
    # report goes to stderr, the normal summary stays on stdout
    assert "frames" in captured.out
    assert "cli.pack" in captured.err
    assert "codec.pastri.compress" in captured.err
    # byte totals in the report match the container's actual payload
    with open_container(str(cont)) as r:
        on_disk = sum(f.length for f in r.frames)
    assert f"{on_disk}" in captured.err
    assert f"{data.nbytes}" in captured.err
    # the run cleans up after itself: telemetry off, state clear
    assert not telemetry.is_enabled()
    assert telemetry.peek_spans() == []


def test_telemetry_trace_file_and_report(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    cont = tmp_path / "out.pstf"
    trace_path = tmp_path / "trace.jsonl"
    assert main(["pack", str(src), str(cont), f"--telemetry={trace_path}"]) == 0
    assert "trace written" in capsys.readouterr().err
    assert trace_path.exists()

    assert main(["telemetry", "report", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "cli.pack" in out
    assert "codec.pastri.compress.bytes_in" in out


def test_telemetry_decompress_and_assess(tmp_path, npz_dataset, capsys):
    src, _ = npz_dataset
    comp = tmp_path / "o.pastri"
    dec = tmp_path / "o.npy"
    assert main(["compress", str(src), str(comp), "--telemetry"]) == 0
    assert "cli.compress" in capsys.readouterr().err
    assert main(["decompress", str(comp), str(dec), "--telemetry"]) == 0
    assert "codec.pastri.decompress" in capsys.readouterr().err
    assert main(["assess", str(src), "--telemetry"]) == 0
    captured = capsys.readouterr()
    assert "bound satisfied" in captured.out
    assert "cli.assess" in captured.err


def test_telemetry_report_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n")
    assert main(["telemetry", "report", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
