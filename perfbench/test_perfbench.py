"""Self-test of the benchmark on tiny grids.

Checks that both workloads print every metric ``BENCHMARK.json`` names,
with its unit, and that a stored block with one corrupted byte is
reported as a failed operation rather than a success.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str) -> bench.Workload:
    w = bench.WORKLOADS[name]
    return dataclasses.replace(w, shape=32, blocks=2, redshifts=w.redshifts[::3])


def _run(name: str, tmp_path: Path, trace: bool = False, tamper=None) -> bench.Result:
    return bench.run_workload(
        _tiny(name), seed=42, seconds=0, trace=trace, root=ROOT, out_dir=tmp_path,
        tamper=tamper,
    )


def _units(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(name, trace, tmp_path):
    result = _run(name, tmp_path, trace=trace)
    assert result.correct and result.failed == 0, result.record.get("errors")
    out = bench.result_json(result)
    expected = _units(SPEC["per_layer" if trace else "end_to_end"])
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    for key in ("git_sha", "git_dirty", "cpu_count", "python", "numpy", "kernels", "samples"):
        assert key in result.record
    assert result.record["workload"] == name and result.record["seed"] == 42
    if trace:
        assert (tmp_path / f"spans-{name}-seed42.jsonl").stat().st_size > 0


def test_corrupt_payload_is_a_failed_operation(tmp_path):
    def corrupt(p: bench.Pass) -> None:
        block = p.report.outcomes[0].result.blocks[0]
        codes = bytearray(block.payloads["codes"])
        codes[len(codes) // 2] ^= 0xFF
        block.payloads["codes"] = bytes(codes)

    result = _run("insitu-128", tmp_path, tamper=corrupt)
    assert not result.correct
    assert result.failed >= 1
    assert any("block 0" in line for line in result.record["errors"])


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "insitu-128",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_loop_time_sums_per_step_medians_over_cut_passes():
    whole = [
        bench.Pass(0.0, None, snapshot_s=[1.0, 2.0, 9.0], decode_s=[0.5, 0.5, 0.5], finish_s=0.1),
        bench.Pass(0.0, None, snapshot_s=[3.0, 2.0, 1.0], decode_s=[0.7, 0.1, 0.3], finish_s=0.3),
    ]
    cut = bench.Pass(0.0, None, snapshot_s=[2.0], decode_s=[0.6])
    assert not cut.whole
    # Steps: median(1, 3, 2) + median(2, 2) + median(9, 1), finish median(0.1, 0.3).
    assert bench.loop_seconds(whole + [cut]) == pytest.approx(2.0 + 2.0 + 5.0 + 0.2)
    assert bench.decode_seconds(whole + [cut]) == pytest.approx(0.6 + 0.3 + 0.4)
