"""Command-line interface round trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import load_blocks, main, save_blocks
from repro.compression.sz import SZCompressor, decompress


class TestBlockContainer:
    def test_round_trip(self, snapshot, tmp_path):
        comp = SZCompressor()
        data = snapshot["temperature"]
        blocks = [comp.compress(data[:16], 10.0), comp.compress(data[16:], 20.0)]
        path = tmp_path / "blocks.npz"
        save_blocks(str(path), blocks, np.array([10.0, 20.0]), blocks_per_axis=2)
        loaded, ebs, bpa = load_blocks(str(path))
        assert bpa == 2
        assert np.array_equal(ebs, [10.0, 20.0])
        for orig, back in zip(blocks, loaded):
            assert back.shape == orig.shape
            assert back.eb == orig.eb
            assert np.array_equal(decompress(back), decompress(orig))


class TestCommands:
    @pytest.fixture()
    def snap_path(self, tmp_path):
        path = tmp_path / "snap.npz"
        rc = main(["generate", "--shape", "16", "--redshift", "1.0", "--out", str(path)])
        assert rc == 0
        return path

    def test_generate(self, snap_path):
        from repro.sim.io import load_snapshot

        snap = load_snapshot(snap_path)
        assert snap.shape == (16, 16, 16)
        assert snap.redshift == 1.0

    def test_compress_and_analyze(self, snap_path, tmp_path, capsys):
        out = tmp_path / "blocks.npz"
        rc = main(
            [
                "compress",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        rc = main(
            [
                "analyze",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--compressed",
                str(out),
                "--tolerance",
                "0.5",
            ]
        )
        captured = capsys.readouterr().out
        assert "PSNR" in captured
        assert rc == 0

    def test_sweep(self, snap_path, capsys):
        rc = main(
            [
                "sweep",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--ebs",
                "50,500",
                "--tolerance",
                "0.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "temperature" in out

    def test_sweep_backend_flag(self, snap_path, capsys):
        rc = main(
            [
                "sweep",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--ebs",
                "50,500",
                "--tolerance",
                "0.5",
                "--backend",
                "thread",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "temperature" in out

    def test_sweep_rate_only_estimate(self, snap_path, capsys):
        rc = main(
            [
                "sweep",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--ebs",
                "50,500",
                "--probe-mode",
                "estimate",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        data_rows = [ln for ln in out.splitlines() if ln.startswith("temperature")]
        assert len(data_rows) == 2
        # Rate-only records carry no pass/fail verdict in the last column.
        assert all(row.split("|")[-1].strip() == "-" for row in data_rows)

    def test_compress_estimate_probe_mode(self, snap_path, tmp_path, capsys):
        out = tmp_path / "blocks-est.npz"
        rc = main(
            [
                "compress",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--probe-mode",
                "estimate",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_compress_backend_flag(self, snap_path, tmp_path, capsys, backend):
        out = tmp_path / f"blocks-{backend}.npz"
        rc = main(
            [
                "compress",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--backend",
                backend,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert f"backend {backend}" in printed
        assert "compress=" in printed  # per-phase timings are reported

    def test_backend_outputs_identical(self, snap_path, tmp_path):
        outs = {}
        for backend in ("serial", "thread"):
            out = tmp_path / f"b-{backend}.npz"
            main(
                [
                    "compress",
                    "--snapshot", str(snap_path),
                    "--field", "temperature",
                    "--blocks", "2",
                    "--backend", backend,
                    "--out", str(out),
                ]
            )
            outs[backend] = load_blocks(str(out))
        serial_blocks, serial_ebs, _ = outs["serial"]
        thread_blocks, thread_ebs, _ = outs["thread"]
        assert np.array_equal(serial_ebs, thread_ebs)
        for a, b in zip(serial_blocks, thread_blocks):
            assert a.payloads == b.payloads

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStreamCommand:
    @pytest.fixture()
    def seq_dir(self, tmp_path):
        out = tmp_path / "seq"
        rc = main(
            [
                "generate",
                "--shape", "16",
                "--redshifts", "2.0,1.0,0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        return out

    def test_generate_redshift_schedule(self, seq_dir):
        from repro.sim.io import load_snapshot

        paths = sorted(seq_dir.glob("*.npz"))
        assert len(paths) == 3
        assert [load_snapshot(p).redshift for p in paths] == [2.0, 1.0, 0.5]

    def test_generate_refuses_stale_sequence_dir(self, seq_dir, capsys):
        """A shorter re-run must not leave a mixed-schedule directory."""
        rc = main(
            ["generate", "--shape", "16", "--redshifts", "2.0", "--out", str(seq_dir)]
        )
        assert rc == 1
        assert "refusing" in capsys.readouterr().err
        assert len(sorted(seq_dir.glob("*.npz"))) == 3  # untouched

    def test_stream_over_directory_with_ledger(self, seq_dir, tmp_path, capsys):
        ledger = tmp_path / "run.jsonl"
        rc = main(
            [
                "stream",
                "--dir", str(seq_dir),
                "--blocks", "2",
                "--fields", "temperature,velocity_x",
                "--ledger", str(ledger),
                "--budget-bytes", "500000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream: 3 snapshots" in out
        assert "budget" in out
        assert ledger.exists()

        rc = main(["stream", "--replay", str(ledger)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay verified: 6 decisions" in out

    def test_stream_rejects_a_tampered_ledger(self, seq_dir, tmp_path, capsys):
        """--replay and --resume report a tampered ledger in one line
        naming the first diverging partition, and exit 2."""
        import json

        ledger = tmp_path / "run.jsonl"
        args = ["stream", "--dir", str(seq_dir), "--blocks", "2",
                "--fields", "temperature", "--ledger", str(ledger)]
        assert main(args) == 0
        lines = ledger.read_text().splitlines()
        seq = next(i for i, line in enumerate(lines) if '"kind":"decision"' in line)
        event = json.loads(lines[seq])
        event["data"]["ebs"][1] *= 1.01
        lines[seq] = json.dumps(event)
        ledger.write_text("\n".join(lines) + "\n")
        capsys.readouterr()

        for argv in (["stream", "--replay", str(ledger)], [*args, "--resume"]):
            assert main(argv) == 2
            err = capsys.readouterr().err.strip()
            assert err.startswith(f"stream: replay diverged at seq {seq} ")
            assert "bound of partition 1 " in err
            assert "\n" not in err and len(err) < 200

    def test_stream_simulate(self, capsys):
        rc = main(
            [
                "stream",
                "--simulate",
                "--shape", "16",
                "--redshifts", "2.0,1.0",
                "--blocks", "2",
                "--fields", "temperature",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recalibration" in out

    def test_stream_needs_a_source(self, capsys):
        rc = main(["stream"])
        assert rc == 2
        assert "need a source" in capsys.readouterr().err


class TestTelemetry:
    @pytest.fixture()
    def snap_path(self, tmp_path):
        path = tmp_path / "snap.npz"
        rc = main(["generate", "--shape", "16", "--redshift", "1.0", "--out", str(path)])
        assert rc == 0
        return path

    def test_stream_writes_trace_and_report_renders(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "run.trace.json"
        rc = main(
            [
                "stream",
                "--simulate",
                "--shape", "16",
                "--redshifts", "2.0,1.0",
                "--blocks", "2",
                "--fields", "temperature",
                "--telemetry", str(trace),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry: wrote chrome trace" in out
        assert trace.exists()

        rc = main(["trace-report", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Compression stages (sz.*)" in out
        assert "§4.3" in out
        assert "overhead_ratio" in out
        assert "temperature" in out

    def test_telemetry_disarmed_after_command(self, tmp_path, capsys):
        from repro import telemetry

        rc = main(
            [
                "stream",
                "--simulate",
                "--shape", "16",
                "--redshifts", "2.0",
                "--blocks", "2",
                "--fields", "temperature",
                "--telemetry", str(tmp_path / "t.jsonl"),
            ]
        )
        assert rc == 0
        assert telemetry.enabled() is False

    def test_compress_telemetry_jsonl(self, snap_path, tmp_path, capsys):
        trace = tmp_path / "compress.jsonl"
        rc = main(
            [
                "compress",
                "--snapshot", str(snap_path),
                "--field", "temperature",
                "--blocks", "2",
                "--out", str(tmp_path / "blocks.npz"),
                "--telemetry", str(trace),
            ]
        )
        assert rc == 0
        assert "telemetry: wrote jsonl trace" in capsys.readouterr().out
        from repro.telemetry.export import load_spans

        spans = load_spans(trace)
        assert any(s["name"].startswith("sz.") for s in spans)

    def test_trace_report_missing_file(self, tmp_path, capsys):
        rc = main(["trace-report", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err
