"""The in situ path, end to end: stream, compress, read back, score.

One run = one workload at one seed:

1. Inputs are generated from the seed with ``NyxSimulator`` before any
   timer starts (``governed-64`` also writes them as snapshot files).
2. Passes run until ``seconds`` have elapsed (at least two whole ones).
   Before each, set-up (build the ``InSituController`` and ``prime()``
   it on the first snapshot) is also run alone while the repeats fit in
   ``SETUP_ONLY_S``; ``setup_s`` is the median of all set-ups.
3. A pass is set-up, then per snapshot: load +
   ``process_snapshot`` (timed), the read-back of that snapshot's stored
   blocks through ``decompress_any`` (timed apart) and the output
   checks (untimed); then ``finish``.  Interleaving spreads both
   timings over the whole run, and a pass that reaches the deadline
   stops after its current snapshot, so the run ends on time.
4. Every step (snapshot ``i``'s compress, its read-back, ``finish``) is
   the same work in every pass, so a run's loop time is the sum over
   steps of each step's median across passes: one slow stretch of a
   shared host moves a step's samples in one pass only.
5. Outside every timer: each decoded block is checked against
   ``max|x - x'| <= eb``, the file ledger of every whole pass is
   replayed against the live bounds, and the first pass is scored for
   P(k) with the system's own ``QualityEvaluator``.

With ``trace`` set, passes alternate untraced/traced; the traced ones
feed the per-layer metrics (see ``LAYERS.md``) and the ratio of their
streaming throughput to the untraced ones is ``trace_overhead``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.compression import api
from repro.compression.kernels import get_kernels
from repro.core.config import FieldSpec
from repro.foresight.evaluator import FieldReference, QualityEvaluator
from repro.foresight.quality import QualityCriteria
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.io import save_snapshot
from repro.sim.nyx import NyxSimulator, NyxSnapshot
from repro.stream import DirectoryStream, InSituController, SnapshotSequence, replay_ledger

from perfbench import tracing

MIN_PASSES = 2
#: Before each pass, set-up alone is repeated while the repeats fit in
#: this many seconds (and at least once before the first pass, which
#: warms imports and FFT plans), so a cheap set-up has samples spread
#: over the whole run, not bunched where one slow stretch moves them all.
SETUP_ONLY_S = 2.0

#: Paper-calibrated field specs (the values ``benchmarks/conftest.py``
#: uses): density P(k) tolerance relaxed to 0.02 for the small box, and
#: a signal-correlated error fraction of 0.5 for lognormal fields, 0.05
#: for the smoother velocity fields.
_PAPER_TOLERANCE = {"baryon_density": 0.02, "dark_matter_density": 0.02}
_VELOCITIES = ("velocity_x", "velocity_y", "velocity_z")


def paper_spec(name: str) -> FieldSpec:
    return FieldSpec(
        spectrum_tolerance=_PAPER_TOLERANCE.get(name, 0.01),
        correlated_fraction=0.05 if name in _VELOCITIES else 0.5,
    )


def cli_spec(name: str) -> FieldSpec:
    """The spec ``repro.cli stream`` builds from its default flags."""
    return FieldSpec(spectrum_tolerance=0.01)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: int
    blocks: int
    redshifts: tuple[float, ...]
    field_spec: Any
    #: Snapshots handed over as files (``DirectoryStream``) with a
    #: file-backed ledger, as the CLI ``stream`` campaign runs; otherwise
    #: in memory (``SnapshotSequence``) with an in-memory ledger.
    on_disk: bool = False
    candidates: tuple[str, ...] | None = None
    probe_mode: str = "exact"
    #: Total-run byte budget as a share of the stream's raw bytes.
    budget_fraction: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="insitu-128",
            shape=128,
            blocks=4,
            redshifts=tuple(float(z) for z in np.linspace(0.6, 0.4, 6)),
            field_spec=paper_spec,
        ),
        Workload(
            name="governed-64",
            shape=64,
            blocks=4,
            redshifts=tuple(float(z) for z in np.geomspace(6.0, 0.2, 8)),
            field_spec=cli_spec,
            on_disk=True,
            candidates=("sz:codec=huffman", "sz", "zfp_like"),
            probe_mode="model",
            budget_fraction=0.1,
        ),
    )
}


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    workload: Workload
    snapshots: list[NyxSnapshot]
    decomposition: BlockDecomposition
    raw_bytes: int
    workdir: Path

    def stream(self):
        if self.workload.on_disk:
            return DirectoryStream(self.workdir / "snapshots")
        return SnapshotSequence(self.snapshots)

    def first_snapshot(self) -> NyxSnapshot:
        return next(iter(self.stream()))


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    n = workload.shape
    sim = NyxSimulator(shape=(n, n, n), box_size=float(n), seed=seed, sigma_delta0=2.5)
    snapshots = [sim.snapshot(z=z) for z in workload.redshifts]
    if workload.on_disk:
        (workdir / "snapshots").mkdir(parents=True)
        for i, snap in enumerate(snapshots):
            save_snapshot(snap, workdir / "snapshots" / f"snapshot_{i:04d}.npz")
    raw = sum(int(a.nbytes) for s in snapshots for a in s.fields.values())
    return Inputs(
        workload,
        snapshots,
        BlockDecomposition((n, n, n), blocks=workload.blocks),
        raw,
        workdir,
    )


def make_controller(inputs: Inputs, ledger_path: Path | None) -> InSituController:
    w = inputs.workload
    names = inputs.snapshots[0].fields
    return InSituController(
        inputs.decomposition,
        field_specs={name: w.field_spec(name) for name in names},
        candidates=list(w.candidates) if w.candidates else None,
        probe_mode=w.probe_mode,
        byte_budget=(
            None if w.budget_fraction is None else int(w.budget_fraction * inputs.raw_bytes)
        ),
        n_snapshots=len(inputs.snapshots),
        ledger=ledger_path,
    )


# -- one pass ----------------------------------------------------------------


@dataclass
class Pass:
    setup_s: float
    report: Any
    #: Per snapshot: load + ``process_snapshot``, and the read-back of
    #: its stored blocks.
    snapshot_s: list[float] = field(default_factory=list)
    decode_s: list[float] = field(default_factory=list)
    #: ``finish`` time; ``None`` when the deadline cut the pass short.
    finish_s: float | None = None
    #: (snapshot, field) -> reasons it failed a hard check.
    hard_failures: dict[tuple[int, str], list[str]] = field(default_factory=dict)
    ledger_bytes: int = 0
    outputs: int = 0

    @property
    def whole(self) -> bool:
        return self.finish_s is not None


def _bound_limit(original: np.ndarray, eb: float) -> float:
    """``eb`` plus the float64 rounding slack of the reconstruction
    (the same ceiling the compressor's property tests allow)."""
    return eb * (1 + 1e-9) + 4.0 * float(np.spacing(np.max(np.abs(original), initial=1.0))) + 1e-12


def set_up(
    inputs: Inputs, ledger_path: Path | None, recorder: tracing.Recorder | None = None
) -> tuple[InSituController, float]:
    """Build and prime a controller; the first snapshot's load is untimed."""
    first = inputs.first_snapshot()
    if recorder is not None:
        recorder.snapshot = -1
        recorder.active = True
    t0 = time.perf_counter()
    ctl = make_controller(inputs, ledger_path)
    ctl.prime(first)
    setup = time.perf_counter() - t0
    if recorder is not None:
        recorder.active = False
    return ctl, setup


def _ledger_path(inputs: Inputs, name: str) -> Path | None:
    return inputs.workdir / f"{name}.jsonl" if inputs.workload.on_disk else None


def run_pass(
    inputs: Inputs,
    index: int,
    recorder: tracing.Recorder | None,
    score: dict[tuple[int, str], float] | None = None,
    tamper=None,
    deadline: float | None = None,
) -> Pass:
    """Stream every snapshot through a fresh controller, reading each
    snapshot's blocks back as soon as it is stored.

    With ``deadline`` set, the pass stops after the first snapshot that
    ends past it, without ``finish`` (and without the replay check).
    """
    ledger_path = _ledger_path(inputs, f"ledger-{index}")
    ctl, setup = set_up(inputs, ledger_path, recorder)
    p = Pass(setup, ctl.report)
    stream = inputs.stream()
    it = iter(stream)
    try:
        for i in range(len(stream)):
            if recorder is not None:
                recorder.snapshot = i
                recorder.active = True
            t = time.perf_counter()
            outcomes = ctl.process_snapshot(next(it))
            p.snapshot_s.append(time.perf_counter() - t)
            if recorder is not None:
                recorder.active = False
            if tamper is not None and i == 0:
                tamper(p)
            read_back(inputs, p, outcomes, recorder, score)
            if deadline is not None and i + 1 < len(stream) and time.perf_counter() >= deadline:
                break
        else:
            if recorder is not None:
                recorder.active = True
            t = time.perf_counter()
            ctl.finish()
            p.finish_s = time.perf_counter() - t
            if recorder is not None:
                recorder.active = False
    finally:
        ctl.close()
    p.outputs = len(p.report.outcomes)
    p.ledger_bytes = (
        ledger_path.stat().st_size
        if ledger_path is not None
        else sum(len(e.to_json()) + 1 for e in ctl.ledger.events)
    )
    if ledger_path is not None:
        if p.whole:
            _check_replay(p, ledger_path)
        ledger_path.unlink()
    return p


def _check_replay(p: Pass, ledger_path: Path) -> None:
    """Replaying the file ledger must rebuild every live bound bitwise."""
    outcomes = p.report.outcomes
    try:
        decisions = replay_ledger(ledger_path)
    except Exception as exc:  # any replay error fails every output
        for o in outcomes:
            p.hard_failures.setdefault((o.snapshot_index, o.field), []).append(
                f"replay: {type(exc).__name__}: {exc}"
            )
        return
    if len(decisions) != len(outcomes):
        for o in outcomes:
            p.hard_failures.setdefault((o.snapshot_index, o.field), []).append(
                f"replay: {len(decisions)} decisions for {len(outcomes)} outputs"
            )
        return
    for d, o in zip(decisions, outcomes):
        if np.asarray(d.ebs, dtype=np.float64).tobytes() != o.result.ebs.tobytes():
            p.hard_failures.setdefault((o.snapshot_index, o.field), []).append(
                "replay: bounds differ"
            )


def read_back(
    inputs: Inputs,
    p: Pass,
    outcomes: list[Any],
    recorder: tracing.Recorder | None,
    score: dict[tuple[int, str], float] | None,
) -> None:
    """Decode the stored blocks of one snapshot's ``outcomes`` (timed
    together), then check each output (untimed).

    With ``score`` given, also records each output's worst binned P(k)
    deviation from the system's ``QualityEvaluator``.
    """
    dec = inputs.decomposition
    decoded: list[list[Any]] = []
    if recorder is not None:
        recorder.active = True
    t = time.perf_counter()
    for o in outcomes:
        parts: list[Any] = []
        for block in o.result.blocks:
            try:
                parts.append(api.decompress_any(block))
            except Exception as exc:  # a corrupt payload must not abort the run
                parts.append(exc)
        decoded.append(parts)
    p.decode_s.append(time.perf_counter() - t)
    if recorder is not None:
        recorder.active = False
    for o, parts in zip(outcomes, decoded):
        key = (o.snapshot_index, o.field)
        original = inputs.snapshots[o.snapshot_index].fields[o.field]
        reasons = p.hard_failures.setdefault(key, [])
        for rank, (part, view, block) in enumerate(
            zip(parts, dec.partition_views(original), o.result.blocks)
        ):
            if isinstance(part, Exception):
                reasons.append(f"block {rank}: {type(part).__name__}: {part}")
                continue
            view64 = np.asarray(view, dtype=np.float64)
            if part.shape != view64.shape:
                reasons.append(f"block {rank}: shape {part.shape} != {view64.shape}")
                continue
            err = float(np.max(np.abs(part - view64)))
            if not err <= _bound_limit(view64, block.eb):
                reasons.append(f"block {rank}: max|x-x'| {err:.6g} > eb {block.eb:.6g}")
        if not reasons:
            del p.hard_failures[key]
        if score is not None:
            if reasons:
                score[key] = math.inf
                continue
            spec = inputs.workload.field_spec(o.field)
            evaluator = QualityEvaluator(
                reference=FieldReference(original),
                criteria=QualityCriteria(
                    spectrum_tolerance=spec.spectrum_tolerance,
                    spectrum_k_max=spec.spectrum_k_max,
                ),
            )
            score[key] = float(
                evaluator.evaluate(dec.assemble(parts, dtype=np.float64)).spectrum_worst_deviation
            )


def loop_seconds(passes: list[Pass]) -> float:
    """Streaming-loop time: per-snapshot medians plus the median ``finish``."""
    return _step_medians([p.snapshot_s for p in passes]) + statistics.median(
        p.finish_s for p in passes if p.whole
    )


def decode_seconds(passes: list[Pass]) -> float:
    """Read-back time of the whole stream: per-snapshot medians."""
    return _step_medians([p.decode_s for p in passes])


def _step_medians(rows: list[list[float]]) -> float:
    """Sum over steps of each step's median across the rows that reached it."""
    n = max(len(r) for r in rows)
    return sum(statistics.median(r[i] for r in rows if len(r) > i) for i in range(n))


# -- memory and provenance ---------------------------------------------------


def _reset_peak_rss() -> bool:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(reset: bool) -> float:
    if reset:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    # ru_maxrss is in KiB on Linux; it includes input generation.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: Path) -> dict[str, Any]:
    sha = dirty = None
    try:
        if not (root / ".git").exists():
            raise OSError("not a git checkout")
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain", "--", "src", "perfbench"], cwd=root,
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        )
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": get_kernels("auto").name,
    }


# -- metrics -----------------------------------------------------------------


def _tail_percentile(samples: list[float]) -> dict[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            best = {"p": p, "value": float(np.percentile(samples, p))}
    return best


def useful_recalibration_frac(report) -> float:
    """Share of drift recalibrations after which the field's next
    |log residual| is below the one that triggered them."""
    by_key = {(o.snapshot_index, o.field): o for o in report.outcomes}
    useful = total = 0
    for snap, name, reason in report.recalibrations:
        if reason != "drift":
            continue
        before, after = by_key.get((snap - 1, name)), by_key.get((snap, name))
        if before is None or after is None or before.residual is None or after.residual is None:
            continue
        total += 1
        useful += abs(after.residual) < abs(before.residual)
    return useful / total if total else 0.0


def layer_metrics(
    recorder: tracing.Recorder, traced: list[Pass], inputs: Inputs
) -> dict[str, tuple[float, str]]:
    """Per-pass means of every per-layer metric over the traced passes."""
    spans = recorder.spans
    own = tracing.self_times(spans)
    n = len(traced)

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name) / n

    def calls(name: str) -> float:
        return sum(1 for s in spans if s.name == name) / n

    def self_s(name: str) -> float:
        return sum(own[s.id] for s in spans if s.name == name) / n

    c = recorder.counts
    compress_self = self_s("sz.compress")
    loads = calls("source.load")
    expected_loads = len(inputs.snapshots) if inputs.workload.on_disk else 0
    probed = c["selection.probed"]
    return {
        "source.load_s": (total("source.load"), "s"),
        "source.loads": (loads, "count"),
        "source.retries": (loads - expected_loads, "count"),
        "selection.budget_s": (total("selection.budget"), "s"),
        "selection.budget_calls": (calls("selection.budget"), "count"),
        "selection.select_s": (total("selection.select"), "s"),
        "selection.selects": (calls("selection.select"), "count"),
        "selection.eligible_frac": (
            c["selection.eligible"] / probed if probed else 0.0, "fraction"
        ),
        "calibration.fit_s": (total("calibration.fit"), "s"),
        "calibration.fits": (calls("calibration.fit"), "count"),
        "calibration.useful_frac": (useful_recalibration_frac(traced[0].report), "fraction"),
        "evaluator.spectrum_s": (total("evaluator.spectrum"), "s"),
        "evaluator.spectrum_calls": (calls("evaluator.spectrum"), "count"),
        "features.s": (total("features"), "s"),
        "features.calls": (calls("features"), "count"),
        "optimizer.s": (total("optimizer"), "s"),
        "optimizer.calls": (calls("optimizer"), "count"),
        "backend.snapshot_s": (total("backend.snapshot"), "s"),
        "backend.retries": (
            calls("backend.snapshot") - len(traced[0].report.outcomes), "count"
        ),
        "sz.compress_self_s": (compress_self, "s"),
        "sz.blocks": (c["sz.blocks"] / n, "count"),
        "sz.values_per_s": (
            c["sz.values"] / n / compress_self if compress_self > 0 else 0.0, "1/s"
        ),
        "sz.estimate_s": (total("sz.estimate"), "s"),
        "sz.estimate_calls": (calls("sz.estimate"), "count"),
        "sz.decompress_self_s": (self_s("sz.decompress"), "s"),
        "entropy.encode_s.zlib": (total("entropy.encode.zlib"), "s"),
        "entropy.encode_s.huffman": (total("entropy.encode.huffman"), "s"),
        "entropy.encode_calls": (c["entropy.encode_calls"] / n, "count"),
        "entropy.bytes_in": (c["entropy.bytes_in"] / n, "B"),
        "entropy.bytes_out": (c["entropy.bytes_out"] / n, "B"),
        "entropy.decode_s.zlib": (total("entropy.decode.zlib"), "s"),
        "entropy.decode_s.huffman": (total("entropy.decode.huffman"), "s"),
        "ledger.append_s": (total("ledger.append"), "s"),
        "ledger.appends": (calls("ledger.append"), "count"),
        "ledger.bytes": (statistics.mean(p.ledger_bytes for p in traced), "B"),
        "controller.self_s": (self_s("controller.snapshot"), "s"),
        "drift.recalibrations": (traced[0].report.n_recalibrations, "count"),
    }


# -- the run -----------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    record: dict[str, Any]


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    out_dir: Path,
    tamper=None,
) -> Result:
    """Run ``workload`` at ``seed`` on the sources under ``root``.

    Scratch files live under ``out_dir`` and are removed; traced runs
    leave their spans there.  ``tamper(pass_)`` (tests only) may alter
    the stored blocks of the first pass before they are read back.
    """
    workdir = out_dir / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, root, out_dir, workdir, tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, root, out_dir, workdir, tamper) -> Result:
    inputs = make_inputs(workload, seed, workdir)
    rss_reset = _reset_peak_rss()

    recorder = tracing.Recorder() if trace else None
    undo = tracing.instrument(recorder) if recorder is not None else None
    passes: list[Pass] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    setups: list[float] = []
    score: dict[tuple[int, str], float] = {}
    failure_log: list[str] = []
    started = time.perf_counter()
    deadline = started + seconds
    try:
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            use_trace = recorder is not None and len(passes) % 2 == 1
            spent = 0.0
            while not setups or spent + statistics.median(setups) <= SETUP_ONLY_S:
                ledger_path = _ledger_path(inputs, f"setup-{len(setups)}")
                ctl, setup = set_up(inputs, ledger_path)
                ctl.close()
                setups.append(setup)
                spent += setup
                if ledger_path is not None:
                    ledger_path.unlink()
            try:
                p = run_pass(
                    inputs,
                    len(passes),
                    recorder if use_trace else None,
                    score=None if passes else score,
                    tamper=None if passes else tamper,
                    # The first passes, and traced ones, always finish.
                    deadline=None if use_trace or len(passes) < MIN_PASSES else deadline,
                )
            except Exception:
                failure_log.append(traceback.format_exc())
                break
            setups.append(p.setup_s)
            passes.append(p)
            (traced if use_trace else untraced).append(p)
            if p is not passes[0] and not (traced and p is traced[0]):
                # Only these two reports are read later; dropping the rest
                # keeps stored blocks of past passes out of peak RSS.
                p.report = None
    finally:
        if undo is not None:
            undo()
    peak = _peak_rss_mb(rss_reset)

    n_outputs = len(inputs.snapshots) * len(inputs.snapshots[0].fields)
    attempted = sum(p.outputs for p in passes) + (n_outputs if failure_log else 0)
    failed = sum(len(p.hard_failures) for p in passes) + (n_outputs if failure_log else 0)
    for p in passes:
        for key, reasons in sorted(p.hard_failures.items()):
            failure_log.append(f"{key}: {'; '.join(reasons[:3])}")

    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        **provenance(root),
        "passes": len(passes),
        "outputs_per_pass": n_outputs,
    }
    if not passes:
        return Result(False, attempted, failed, {}, {**record, "errors": failure_log})

    first = passes[0]
    report = first.report
    pk_miss = sorted(
        k for k, dev in score.items() if dev > workload.field_spec(k[1]).spectrum_tolerance
    )
    failed_frac = len(set(pk_miss) | set(first.hard_failures)) / n_outputs
    budget = report.byte_budget
    budget_err = 0.0 if budget is None else abs(report.compressed_bytes - budget) / budget

    snap_samples = [s for p in untraced for s in p.snapshot_s]
    compress = inputs.raw_bytes / loop_seconds(untraced) / 1e6
    metrics: dict[str, tuple[float, str]]
    if trace and not traced:
        metrics = {}
    elif trace:
        metrics = layer_metrics(recorder, traced, inputs)
        traced_mbps = inputs.raw_bytes / loop_seconds(traced) / 1e6
        metrics["snapshot_s_p50"] = (statistics.median(snap_samples), "s")
        metrics["failed_frac"] = (failed_frac, "fraction")
        metrics["budget_err"] = (budget_err, "fraction")
        metrics["trace_overhead"] = (traced_mbps / compress, "ratio")
        recorder.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "compress_MBps": (compress, "MB/s"),
            "decompress_MBps": (inputs.raw_bytes / decode_seconds(untraced) / 1e6, "MB/s"),
            "ratio": (report.overall_ratio, "ratio"),
            "peak_rss_MB": (peak, "MB"),
        }
    record.update(
        {
            "samples": {
                "setup_s": len(setups),
                "passes_untraced": len(untraced),
                "passes_cut_short": sum(not p.whole for p in passes),
                "snapshot_s": len(snap_samples),
                "decode_s": sum(len(p.decode_s) for p in untraced),
                "traced_passes": len(traced),
            },
            "snapshot_s_p50": statistics.median(snap_samples),
            "snapshot_s_tail": _tail_percentile(snap_samples),
            "raw_bytes": inputs.raw_bytes,
            "compressed_bytes": report.compressed_bytes,
            "failed_frac": failed_frac,
            "pk_misses": [[s, f, round(score[(s, f)], 5)] for s, f in pk_miss],
            "budget_err": None if budget is None else budget_err,
            "recalibrations": report.n_recalibrations,
            "peak_rss_MB": peak,
            "peak_rss_scope": "after input generation" if rss_reset else "whole process",
        }
    )
    if failure_log:
        record["errors"] = failure_log[:20]
    return Result(failed == 0 and not failure_log, attempted, failed, metrics, record)


def result_json(result: Result) -> dict[str, Any]:
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }

