"""The online in situ streaming controller.

:class:`InSituController` is the long-running service the per-snapshot
machinery was missing: it consumes a :class:`~repro.stream.source.
SnapshotStream`, decides per-field error bounds for every dump, and
closes the loop the batch campaign leaves open —

- **warm starts**: each snapshot's per-field configuration starts from
  the previous decision (the calibrated rate model *and* the
  model-inverted base bound), so the steady-state per-snapshot cost is
  feature extraction + the closed-form optimization + compression, with
  no model refits and no original-field re-analysis;
- **drift-gated recalibration**: a per-field
  :class:`~repro.stream.drift.DriftDetector` compares the model's
  predicted bitrate (PR 2's histogram estimator feeds the same
  prediction path) against the achieved bitrate; only when the
  standardized residuals drift does the controller re-fit the rate
  model and re-invert the quality budget, reusing one
  :class:`~repro.foresight.evaluator.FieldReference` for the budget
  inversion, the halo-spec derivation and the optional quality check;
- **a run-level budget governor**: :class:`BudgetGovernor` tracks
  cumulative compressed bytes against a total-run byte budget and
  scales every field's error bound through the rate model's own power
  law to land on it;
- **an append-only ledger**: every calibration, decision, outcome and
  budget step is recorded (:mod:`repro.stream.ledger`) and read by one
  fold over a run's events.  :func:`replay_ledger` folds each run and
  returns byte-identical bounds, no field data touched; resume folds the
  last run up to its resume point, so it verifies every decision as
  replay does.  A ``resume`` event at snapshot ``s`` supersedes the
  per-snapshot events recorded before it for snapshots ``>= s``.

Per-field compression fans out over the PR 1
:class:`~repro.parallel.backends.ExecutionBackend` registry exactly as
the batch path does; the batch :class:`~repro.core.campaign.
CompressionCampaign` is now a thin client of this controller.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field as dataclass_field, replace
from types import MappingProxyType
from typing import Any

import numpy as np

from repro import telemetry
from repro.compression.api import (
    Compressor,
    CompressorSpec,
    resolve_compressor,
    spec_of,
)
from repro.core.config import FieldSpec, HaloQualitySpec, OptimizerSettings
from repro.core.features import PartitionFeatures
from repro.core.optimizer import optimize_combined, optimize_for_spectrum
from repro.core.pipeline import AdaptiveCompressionPipeline, SnapshotResult
from repro.core.selection import (
    CandidateVerdict,
    SelectionResult,
    derive_eb_budget,
    derive_halo_params,
    select_compressor,
)
from repro.foresight.evaluator import FieldReference, QualityEvaluator
from repro.foresight.quality import QualityCriteria
from repro.models.calibration import (
    CalibrationResult,
    RateModelBank,
    calibrate_rate_model,
)
from repro.models.rate_model import RateModel
from repro.parallel.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    get_backend,
)
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience.retry import RetryExhaustedError, RetryPolicy
from repro.sim.nyx import NyxSnapshot
from repro.stream.drift import DriftConfig, DriftDetector, DriftSignal
from repro.stream.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    LedgerEvent,
    RunLedger,
)
from repro.stream.source import SnapshotStream, as_stream
from repro.util.tables import format_table
from repro.util.timer import TimingBreakdown

__all__ = [
    "derive_eb_budget",
    "derive_halo_params",
    "BudgetGovernor",
    "StreamOutcome",
    "StreamReport",
    "InSituController",
    "ReplayedDecision",
    "replay_ledger",
]


# -- run-level storage budget governor ---------------------------------------


class BudgetGovernor:
    """Steers cumulative compressed bytes onto a total-run byte budget.

    After every snapshot the governor re-derives the per-snapshot
    allowance from the *remaining* budget and remaining dump count, and
    converts the byte mismatch into an error-bound scale through the
    calibrated power law: bytes scale as ``eb**c`` (Eq. 15), so landing
    on an allowance ``a`` from achieved bytes ``b`` requires scaling
    every bound by ``(a/b) ** (gain/c)``.  Overspending therefore
    *raises* bounds (coarser, cheaper snapshots); underspending relaxes
    them back.  The scale is clamped to ``[1/max_scale, max_scale]`` so
    one misbehaved snapshot cannot swing the quality configuration
    arbitrarily.

    The governor is a pure, deterministic function of the observed byte
    counts and calibrated exponents — both of which the run ledger
    records — so replay reproduces its trajectory exactly.
    """

    def __init__(
        self,
        total_bytes: int,
        n_snapshots: int,
        gain: float = 1.0,
        max_scale: float = 4.0,
    ) -> None:
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        if n_snapshots <= 0:
            raise ValueError(f"n_snapshots must be positive, got {n_snapshots}")
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        if max_scale < 1:
            raise ValueError(f"max_scale must be >= 1, got {max_scale}")
        self.total_bytes = int(total_bytes)
        self.n_snapshots = int(n_snapshots)
        self.gain = float(gain)
        self.max_scale = float(max_scale)
        self.scale = 1.0
        self.spent = 0
        self.snapshots_done = 0

    @property
    def remaining_bytes(self) -> int:
        return self.total_bytes - self.spent

    @property
    def utilization(self) -> float:
        """Fraction of the total budget consumed so far."""
        return self.spent / self.total_bytes

    def observe(self, snapshot_bytes: int, exponent: float) -> float:
        """Account one snapshot's bytes; returns the next snapshot's scale."""
        if snapshot_bytes <= 0:
            raise ValueError("snapshot_bytes must be positive")
        if exponent >= 0:
            raise ValueError("rate exponent must be negative")
        self.spent += int(snapshot_bytes)
        self.snapshots_done += 1
        if self.snapshots_done >= self.n_snapshots:
            return self.scale
        allowance = self.remaining_bytes / (self.n_snapshots - self.snapshots_done)
        if allowance <= 0:
            # Budget exhausted: tighten storage as hard as permitted.
            self.scale = self.max_scale
            return self.scale
        factor = allowance / snapshot_bytes
        proposal = self.scale * factor ** (self.gain / exponent)
        self.scale = float(min(max(proposal, 1.0 / self.max_scale), self.max_scale))
        return self.scale

    def __repr__(self) -> str:
        return (
            f"BudgetGovernor(spent={self.spent}/{self.total_bytes}, "
            f"scale={self.scale:.3f}, done={self.snapshots_done}/{self.n_snapshots})"
        )


# -- outcomes and the stream report ------------------------------------------


@dataclass
class StreamOutcome:
    """One field of one stream snapshot, decided and compressed."""

    field: str
    redshift: float
    snapshot_index: int
    eb_base: float
    scale: float
    eb_avg: float
    #: The full compression result (payloads included); ``None`` when the
    #: controller runs with ``retain_results=False`` to keep long streams
    #: at O(1) memory — the scalar accounting fields below remain.
    result: SnapshotResult | None
    predicted_bit_rate: float
    achieved_bit_rate: float
    raw_bytes: int
    compressed_bytes: int
    residual: float | None
    quality_deviation: float | None = None
    drift_signal: DriftSignal | None = None
    #: The compressor configuration behind this outcome (``None`` when a
    #: caller-owned instance without a spec was used).
    compressor_spec: CompressorSpec | None = None

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.compressed_bytes


@dataclass
class StreamReport:
    """Cumulative accounting of a streaming run."""

    outcomes: list[StreamOutcome] = dataclass_field(default_factory=list)
    n_snapshots: int = 0
    n_recalibrations: int = 0
    recalibrations: list[tuple[int, str, str]] = dataclass_field(default_factory=list)
    byte_budget: int | None = None
    #: Resilience accounting: transient failures retried (across the
    #: controller, the ledger append path and a retry-aware backend),
    #: torn ledger tails truncated on (re)open, and fields that fell
    #: back to the conservative compressor after exhausting retries.
    n_retries: int = 0
    n_recoveries: int = 0
    n_degradations: int = 0
    degraded_fields: list[str] = dataclass_field(default_factory=list)
    #: Per-phase wall time merged across every field result the run
    #: produced (features/optimize/compress/..., rank-summed like the
    #: backends' own accounting).
    timings: TimingBreakdown = dataclass_field(default_factory=TimingBreakdown)

    @property
    def raw_bytes(self) -> int:
        return sum(o.raw_bytes for o in self.outcomes)

    @property
    def compressed_bytes(self) -> int:
        return sum(o.compressed_bytes for o in self.outcomes)

    @property
    def overall_ratio(self) -> float:
        if self.compressed_bytes == 0:
            raise ValueError("stream report is empty")
        return self.raw_bytes / self.compressed_bytes

    @property
    def budget_utilization(self) -> float | None:
        if self.byte_budget is None:
            return None
        return self.compressed_bytes / self.byte_budget

    def snapshot_bytes(self, index: int) -> int:
        rows = [o.compressed_bytes for o in self.outcomes if o.snapshot_index == index]
        if not rows:
            raise KeyError(f"no outcomes recorded for snapshot {index}")
        return sum(rows)

    def as_rows(self) -> list[list[object]]:
        return [
            [
                o.snapshot_index,
                o.redshift,
                o.field,
                o.eb_avg,
                o.scale,
                o.ratio,
                o.compressed_bytes,
                o.drift_signal is not None,
            ]
            for o in self.outcomes
        ]

    def to_table(self, title: str | None = None) -> str:
        return format_table(
            ["snap", "z", "field", "eb_avg", "scale", "ratio", "bytes", "drift"],
            self.as_rows(),
            title=title or "stream report",
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_snapshots": self.n_snapshots,
                "n_recalibrations": self.n_recalibrations,
                "recalibrations": [list(r) for r in self.recalibrations],
                "n_retries": self.n_retries,
                "n_recoveries": self.n_recoveries,
                "n_degradations": self.n_degradations,
                "degraded_fields": list(self.degraded_fields),
                # Additive since PR 9: per-phase seconds *and* counts
                # (as_dict() would drop the counts).
                "timings": self.timings.phase_stats(),
                "raw_bytes": self.raw_bytes,
                "compressed_bytes": self.compressed_bytes,
                "overall_ratio": self.overall_ratio if self.outcomes else None,
                "byte_budget": self.byte_budget,
                "budget_utilization": self.budget_utilization,
                "outcomes": [
                    {
                        "snapshot": o.snapshot_index,
                        "redshift": o.redshift,
                        "field": o.field,
                        "eb_avg": o.eb_avg,
                        "scale": o.scale,
                        "ratio": o.ratio,
                        "compressed_bytes": o.compressed_bytes,
                        "predicted_bit_rate": o.predicted_bit_rate,
                        "achieved_bit_rate": o.achieved_bit_rate,
                        "drift": o.drift_signal is not None,
                        "compressor": (
                            None
                            if o.compressor_spec is None
                            else o.compressor_spec.to_dict()
                        ),
                    }
                    for o in self.outcomes
                ],
            },
            indent=2,
            sort_keys=True,
        )


@dataclass
class _FieldState:
    """Everything the controller warm-starts from snapshot to snapshot."""

    calibration: CalibrationResult
    eb_base: float
    halo_params: tuple[float, float] | None
    detector: DriftDetector
    #: Serializable identity of the field's compressor (``None`` for
    #: caller-owned instances that carry no spec, and in a ledger fold
    #: for the run's default); recorded with every ledger decision so
    #: replays and audits know what compressed what.
    compressor_spec: CompressorSpec | None = None
    #: ``None`` only in a ledger fold, which never resolves compressors.
    pipeline: AdaptiveCompressionPipeline | None = None


# -- the controller ----------------------------------------------------------


class InSituController:
    """Online adaptive-compression service over a snapshot stream.

    Parameters
    ----------
    decomposition:
        Rank layout shared by every field and snapshot.
    field_specs:
        Field name -> :class:`~repro.core.config.FieldSpec`; fields
        without an entry use the default spec.
    compressor / settings / backend:
        As in :class:`~repro.core.campaign.CompressionCampaign`; the
        compressor is registry-resolvable (instance,
        :class:`~repro.compression.api.CompressorSpec` or spec string,
        ``None`` for the SZ default) and the backend (registry name or
        instance) executes every per-field compression, default serial.
    candidates:
        Compressor candidate slate (specs or spec strings).  When given,
        every field's compressor is *selected* at (re)calibration time
        by :func:`~repro.core.selection.select_compressor` — candidates
        that cannot honour the field's bound are rejected with the
        violation quantified, the verdicts land in a ``selection``
        ledger event, and drift therefore triggers *re-selection*, not
        just recalibration.
    ledger:
        A :class:`~repro.stream.ledger.RunLedger`, a JSONL path, or
        ``None`` for an in-memory ledger.
    byte_budget:
        Total-run compressed-byte budget enabling the
        :class:`BudgetGovernor`; requires ``n_snapshots`` (given here or
        inferred from ``len(stream)`` in :meth:`run`).
    drift:
        :class:`~repro.stream.drift.DriftConfig` thresholds.
    recalibrate:
        ``"drift"`` (default) refits a field's models only when its
        detector fires; ``"always"`` refits every field every snapshot
        (the naive online baseline); ``"never"`` freezes models after
        :meth:`prime` (batch-campaign semantics).
    warm_start:
        Reuse the previous snapshot's base bound between recalibrations
        (default).  ``False`` re-inverts the quality budget from the
        data every snapshot (batch-campaign semantics) while still
        keeping the rate model warm.
    probe_mode:
        Rate-model calibration probes: ``"exact"``, the codec-free
        ``"estimate"`` (PR 2's histogram estimator), or ``"model"`` —
        the closed-form ratio-quality engine
        (:mod:`repro.models.rq_model`), which additionally gates
        drift-triggered re-selection on *predicted* quality-at-bound
        instead of trial compressions.
    check_quality:
        Decompress and measure each field's achieved spectrum deviation
        (feeds the drift detector's quality channel; implied by a
        :class:`DriftConfig` with ``quality_margin`` set).
    retain_results:
        Keep every field's full :class:`SnapshotResult` (compressed
        payloads included) on the report outcomes — convenient for
        analysis, but memory then grows with the stream.  ``False``
        drops the payloads after accounting (the CLI's choice), keeping
        a 200-dump run at one-snapshot memory.
    retry:
        A :class:`~repro.resilience.retry.RetryPolicy` (or a plain int,
        shorthand for ``RetryPolicy(max_attempts=n)``) applied to
        per-field execution and ledger appends; a
        :class:`~repro.parallel.backends.ProcessBackend` without its own
        policy additionally inherits it for batch-level re-execution.
        ``None`` (default) keeps fail-fast semantics.
    fallback_compressor:
        Conservative :class:`~repro.compression.api.CompressorSpec` (or
        spec string) a field degrades to when its retries are
        exhausted: the field is quarantined onto the fallback, a
        ``degradation`` ledger event is recorded, and the stream
        continues.  ``None`` (default) re-raises instead.
    fsync_ledger:
        ``os.fsync`` every ledger append (crash-safety against power
        loss, not just process death); only meaningful for path-backed
        ledgers constructed by the controller.

    Examples
    --------
    >>> from repro.sim.nyx import NyxSimulator
    >>> from repro.stream.source import SimulatorStream
    >>> from repro.parallel.decomposition import BlockDecomposition
    >>> sim = NyxSimulator(shape=(16, 16, 16), seed=0)
    >>> ctl = InSituController(BlockDecomposition((16, 16, 16), blocks=2))
    >>> report = ctl.run(SimulatorStream(sim, [2.0, 1.0]))
    >>> report.n_snapshots
    2
    """

    def __init__(
        self,
        decomposition: BlockDecomposition,
        field_specs: dict[str, FieldSpec] | None = None,
        compressor: "Compressor | CompressorSpec | str | None" = None,
        settings: OptimizerSettings | None = None,
        backend: str | ExecutionBackend | None = None,
        *,
        candidates: "list[CompressorSpec | str] | None" = None,
        ledger: RunLedger | str | os.PathLike | None = None,
        byte_budget: int | None = None,
        n_snapshots: int | None = None,
        drift: DriftConfig | None = None,
        recalibrate: str = "drift",
        warm_start: bool = True,
        default_spec: FieldSpec | None = None,
        probe_mode: str = "exact",
        max_partitions: int = 24,
        seed: int = 0,
        check_quality: bool = False,
        governor_gain: float = 1.0,
        governor_max_scale: float = 4.0,
        retain_results: bool = True,
        retry: "RetryPolicy | int | None" = None,
        fallback_compressor: "CompressorSpec | str | None" = None,
        fsync_ledger: bool = False,
    ) -> None:
        if recalibrate not in ("drift", "always", "never"):
            raise ValueError(
                f"recalibrate must be 'drift', 'always' or 'never', got {recalibrate!r}"
            )
        if byte_budget is not None and byte_budget <= 0:
            raise ValueError(f"byte_budget must be positive, got {byte_budget}")
        self.decomposition = decomposition
        self.field_specs = dict(field_specs or {})
        self.default_spec = default_spec or FieldSpec()
        self.compressor = resolve_compressor(compressor)
        self.candidates = (
            None
            if not candidates
            else [
                CompressorSpec.parse(c) if isinstance(c, str) else c
                for c in candidates
            ]
        )
        self.settings = settings or OptimizerSettings()
        self.backend = SerialBackend() if backend is None else get_backend(backend)
        self.retry = (
            RetryPolicy(max_attempts=int(retry)) if isinstance(retry, int) else retry
        )
        self.fallback_compressor = (
            CompressorSpec.parse(fallback_compressor)
            if isinstance(fallback_compressor, str)
            else fallback_compressor
        )
        if (
            self.retry is not None
            and isinstance(self.backend, ProcessBackend)
            and self.backend.retry_policy is None
        ):
            # A backend without its own policy inherits the stream's, so
            # a BrokenProcessPool rebuilds the pool and re-runs only the
            # failed batches instead of failing the whole field.
            self.backend.retry_policy = self.retry
            self.backend.on_retry = self._note_retry
        self.ledger = (
            ledger
            if isinstance(ledger, RunLedger)
            else RunLedger(ledger, fsync=fsync_ledger)
        )
        self.byte_budget = None if byte_budget is None else int(byte_budget)
        self.drift = drift or DriftConfig()
        self.recalibrate = recalibrate
        self.warm_start = bool(warm_start)
        if probe_mode not in ("exact", "estimate", "model"):
            raise ValueError(
                f"probe_mode must be 'exact', 'estimate' or 'model', "
                f"got {probe_mode!r}"
            )
        self.probe_mode = probe_mode
        self.max_partitions = int(max_partitions)
        self.seed = int(seed)
        self.check_quality = bool(check_quality) or self.drift.quality_margin is not None
        self.governor_gain = float(governor_gain)
        self.governor_max_scale = float(governor_max_scale)
        self.retain_results = bool(retain_results)

        self.report = StreamReport(byte_budget=self.byte_budget)
        if getattr(self.ledger, "recovered_tail", None) is not None:
            self.report.n_recoveries += 1
        self._states: dict[str, _FieldState] = {}
        self._selections: dict[str, SelectionResult] = {}
        self._pending: set[str] = set()
        self._quarantined: set[str] = set()
        self._snapshot_index = 0
        self._started = False
        self._ended = False
        self._governor: BudgetGovernor | None = None
        if self.byte_budget is not None and n_snapshots is not None:
            self._make_governor(n_snapshots)

    # -- resilience plumbing ---------------------------------------------

    def _note_retry(
        self, site: str, attempt: int, exc: BaseException, delay: float
    ) -> None:
        """Retry-accounting hook shared with the backend's batch retries."""
        self.report.n_retries += 1

    def _append(self, kind: str, **data: Any) -> LedgerEvent:
        """Ledger append under the retry policy.

        The ledger commits an event to memory only after it is safely on
        disk, so a transient append failure retried here reuses the same
        sequence id.  A :class:`~repro.resilience.faults.TornWrite` is
        *not* retryable — retrying would duplicate the event — and
        propagates for crash-recovery tests.
        """
        if self.retry is None:
            return self.ledger.append(kind, **data)
        return self.retry.execute(
            lambda: self.ledger.append(kind, **data),
            site="ledger.append",
            on_retry=self._note_retry,
        )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the backend pool and the ledger file handle."""
        self.backend.close()
        self.ledger.close()

    def __enter__(self) -> "InSituController":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def spec_for(self, name: str) -> FieldSpec:
        return self.field_specs.get(name, self.default_spec)

    @property
    def calibrations(self) -> Mapping[str, CalibrationResult]:
        """Current per-field rate-model fits (latest recalibration wins).

        A read-only view: calibration state is owned by the controller
        (mutating the mapping raises rather than silently no-opping).
        """
        return MappingProxyType(
            {name: state.calibration for name, state in self._states.items()}
        )

    @property
    def selections(self) -> Mapping[str, SelectionResult]:
        """Latest per-field compressor-selection outcomes (``candidates`` mode)."""
        return MappingProxyType(dict(self._selections))

    @property
    def governor(self) -> BudgetGovernor | None:
        return self._governor

    def _make_governor(self, n_snapshots: int) -> None:
        self._governor = BudgetGovernor(
            self.byte_budget,
            n_snapshots,
            gain=self.governor_gain,
            max_scale=self.governor_max_scale,
        )
        if self._started:
            self._append_governor_event()

    def _append_governor_event(self) -> None:
        gov = self._governor
        assert gov is not None
        self._append(
            "governor",
            total_bytes=gov.total_bytes,
            n_snapshots=gov.n_snapshots,
            gain=gov.gain,
            max_scale=gov.max_scale,
        )

    def _ensure_started(self) -> None:
        if self._started:
            return
        default_spec = spec_of(self.compressor)
        self._append(
            "run_start",
            schema=LEDGER_SCHEMA_VERSION,
            shape=list(self.decomposition.shape),
            # Schema v3: the block layout, so resume() can rebuild the
            # decomposition without re-specifying it.
            blocks=list(self.decomposition.blocks),
            n_partitions=self.decomposition.n_partitions,
            byte_budget=self.byte_budget,
            compressor=None if default_spec is None else default_spec.to_dict(),
            candidates=(
                None
                if self.candidates is None
                else [c.to_dict() for c in self.candidates]
            ),
            settings={
                "clamp_factor": self.settings.clamp_factor,
                "normalization": self.settings.normalization,
                "constraint_mode": self.settings.constraint_mode,
            },
            recalibrate=self.recalibrate,
            warm_start=self.warm_start,
            probe_mode=self.probe_mode,
            drift={
                "z_threshold": self.drift.z_threshold,
                "window": self.drift.window,
                "min_points": self.drift.min_points,
                "rate_sigma": self.drift.rate_sigma,
                "quality_margin": self.drift.quality_margin,
            },
            backend=self.backend.name,
        )
        self._started = True
        if self._governor is not None:
            self._append_governor_event()

    # -- calibration -----------------------------------------------------

    def prime(
        self,
        snapshot: NyxSnapshot,
        max_partitions: int | None = None,
        seed: int | None = None,
    ) -> None:
        """Calibrate every field of ``snapshot`` (the offline §3.5 step).

        Optional with ``recalibrate="drift"``/``"always"`` (the first
        snapshot self-calibrates); required before streaming with
        ``recalibrate="never"``.
        """
        if max_partitions is not None:
            self.max_partitions = int(max_partitions)
        if seed is not None:
            self.seed = int(seed)
        self._ensure_started()
        for name, data in snapshot.fields.items():
            ref = FieldReference(data)
            self._calibrate_field(name, data, ref, reason="initial")

    def _field_compressor(
        self,
        name: str,
        data: np.ndarray,
        ref: FieldReference,
        spec: FieldSpec,
        eb_base: float,
        reason: str,
    ) -> tuple[Any, SelectionResult | None]:
        """Resolve which compressor this field uses for this calibration.

        Priority: quarantine (a degraded field stays pinned to the
        conservative fallback — re-selection could hand it back the very
        compressor that failed) > candidate-slate selection (re-run on
        every recalibration, so drift triggers *re-selection*) > the
        field spec's pinned ``compressor`` > the controller default.
        """
        if name in self._quarantined and self.fallback_compressor is not None:
            return resolve_compressor(self.fallback_compressor), None
        if self.candidates is not None:
            selection = select_compressor(
                data,
                self.decomposition,
                candidates=self.candidates,
                field_spec=spec,
                field=name,
                eb_avg=eb_base,
                reference=ref,
                bank=RateModelBank(
                    probe_mode=self.probe_mode,
                    max_partitions=self.max_partitions,
                    seed=self.seed,
                ),
                probe_mode=self.probe_mode,
                require_error_bounded=True,
            )
            self._selections[name] = selection
            self._append(
                "selection",
                snapshot=self._snapshot_index,
                field=name,
                reason=reason,
                eb_avg=selection.eb_avg,
                chosen=selection.chosen.to_dict(),
                verdicts=[v.to_dict() for v in selection.verdicts],
            )
            return selection.compressor, selection
        if spec.compressor is not None:
            return resolve_compressor(spec.compressor), None
        return self.compressor, None

    def _calibrate_field(
        self, name: str, data: np.ndarray, ref: FieldReference, reason: str
    ) -> _FieldState:
        spec = self.spec_for(name)
        eb_base = derive_eb_budget(spec, ref)
        compressor, selection = self._field_compressor(
            name, data, ref, spec, eb_base, reason
        )
        if selection is not None and selection.calibration is not None:
            # The winning candidate was already calibrated at eb_base
            # with the controller's probe settings during selection —
            # reuse the fit instead of probing the field again.
            calibration = selection.calibration
        else:
            calibration = calibrate_rate_model(
                self.decomposition.partition_views(data),
                compressor=compressor,
                eb_scale=eb_base,
                max_partitions=self.max_partitions,
                seed=self.seed,
                probe_mode=self.probe_mode,
            )
        halo_params = derive_halo_params(spec, ref) if spec.halo_aware else None
        previous = self._states.get(name)
        detector = previous.detector if previous else DriftDetector(name, self.drift)
        detector.reset()
        state = _FieldState(
            calibration=calibration,
            pipeline=AdaptiveCompressionPipeline(
                calibration.rate_model,
                compressor=compressor,
                settings=self.settings,
                backend=self.backend,
            ),
            eb_base=eb_base,
            halo_params=halo_params,
            detector=detector,
            compressor_spec=spec_of(compressor),
        )
        self._states[name] = state
        kind = "calibration" if reason == "initial" else "recalibration"
        if kind == "recalibration":
            self.report.n_recalibrations += 1
            self.report.recalibrations.append((self._snapshot_index, name, reason))
        model = calibration.rate_model
        self._append(
            kind,
            snapshot=self._snapshot_index,
            field=name,
            reason=reason,
            spec=(
                None
                if state.compressor_spec is None
                else state.compressor_spec.to_dict()
            ),
            exponent=model.exponent,
            coef_alpha=model.coef_alpha,
            coef_beta=model.coef_beta,
            feature_floor=model.feature_floor,
            coef_r2=calibration.coef_r2,
            eb_base=eb_base,
            halo_params=(
                None
                if halo_params is None
                else {"t_boundary": halo_params[0], "mass_budget": halo_params[1]}
            ),
        )
        return state

    # -- streaming -------------------------------------------------------

    def run(self, stream: "SnapshotStream | list[NyxSnapshot]") -> StreamReport:
        """Consume every snapshot of ``stream``; returns the final report.

        Accepts any :class:`SnapshotStream` or a plain snapshot list
        (coerced via :func:`~repro.stream.source.as_stream`).

        On a resumed controller (:meth:`resume`) the first
        ``self._snapshot_index`` dumps are already accounted in the
        ledger and are skipped — without loading or generating them when
        the stream supports ``iter_from``.
        """
        stream = as_stream(stream)
        if self.byte_budget is not None and self._governor is None:
            self._make_governor(len(stream))
        start = self._snapshot_index
        if start == 0:
            iterator = iter(stream)
        elif hasattr(stream, "iter_from"):
            iterator = stream.iter_from(start)
        else:
            iterator = (s for i, s in enumerate(stream) if i >= start)
        for snapshot in iterator:
            self.process_snapshot(snapshot)
        self.finish()
        return self.report

    def finish(self) -> StreamReport:
        """Seal the run with a ``run_end`` ledger event (idempotent)."""
        if self._started and not self._ended:
            self._append(
                "run_end",
                n_snapshots=self.report.n_snapshots,
                compressed_bytes=self.report.compressed_bytes,
                raw_bytes=self.report.raw_bytes,
                n_recalibrations=self.report.n_recalibrations,
                budget_utilization=self.report.budget_utilization,
            )
            self._ended = True
        return self.report

    # -- crash recovery --------------------------------------------------

    @classmethod
    def resume(
        cls,
        ledger: "RunLedger | str | os.PathLike",
        *,
        decomposition: BlockDecomposition | None = None,
        backend: "str | ExecutionBackend | None" = None,
        field_specs: dict[str, FieldSpec] | None = None,
        default_spec: FieldSpec | None = None,
        retry: "RetryPolicy | int | None" = None,
        fallback_compressor: "CompressorSpec | str | None" = None,
        fsync_ledger: bool = False,
        max_partitions: int = 24,
        seed: int = 0,
        check_quality: bool = False,
        retain_results: bool = True,
    ) -> "InSituController":
        """Rebuild a controller from an interrupted run's ledger.

        Opens ``ledger`` with ``recover=True`` (a torn final line — the
        footprint of a crash mid-append — is truncated and recorded as a
        ``recovery`` event) and folds the last run exactly as
        :func:`replay_ledger` does, so a ledger replay rejects raises
        :class:`~repro.stream.ledger.LedgerError` here too.  The fold up
        to the resume point (the first snapshot without a complete
        record) restores every per-field rate model, compressor
        selection, drift-detector trajectory, quarantine and the
        :class:`BudgetGovernor`'s byte accounting.  Calling :meth:`run`
        with the original stream then skips the completed dumps and
        produces decisions bitwise identical to a run that was never
        interrupted.

        Settings recorded in the ``run_start`` event (optimizer
        settings, drift thresholds, compressor, candidates, byte
        budget, recalibration policy, ...) are restored from the ledger;
        process-local choices the ledger does not record — the execution
        backend, field specs, retry policy, calibration
        ``max_partitions``/``seed`` — are taken from the keyword
        arguments and must match the original run for recalibrations
        after the resume point to reproduce exactly.

        Ledgers older than schema v3 do not record the block layout, so
        ``decomposition`` is required for them.
        """
        run_ledger = (
            ledger
            if isinstance(ledger, RunLedger)
            else RunLedger(ledger, recover=True, fsync=fsync_ledger)
        )
        starts = [i for i, e in enumerate(run_ledger.events) if e.kind == "run_start"]
        if not starts:
            raise LedgerError("cannot resume: ledger has no run_start event")
        run_events = run_ledger.events[starts[-1] :]
        rs = run_events[0].data

        if decomposition is None:
            if rs.get("blocks") is None:
                raise LedgerError(
                    "cannot resume: ledger predates schema v3 and records no "
                    "block layout; pass decomposition= explicitly"
                )
            decomposition = BlockDecomposition(
                tuple(rs["shape"]), blocks=tuple(rs["blocks"])
            )

        # Verify the run as replay does, then fold it as it will read once
        # the resume event below supersedes the snapshot it re-executes.
        resume_index = _fold_run(run_events).resume_point
        marker = LedgerEvent(-1, "resume", {"snapshot": resume_index})
        state = _fold(_effective_events([*run_events, marker]), verify=False)
        gov = state.governor

        ctl = cls(
            decomposition,
            field_specs=field_specs,
            compressor=(
                CompressorSpec.from_dict(rs["compressor"])
                if rs.get("compressor") is not None
                else None
            ),
            settings=OptimizerSettings(**rs["settings"]),
            backend=backend,
            candidates=(
                [CompressorSpec.from_dict(c) for c in rs["candidates"]]
                if rs.get("candidates")
                else None
            ),
            ledger=run_ledger,
            byte_budget=rs.get("byte_budget"),
            drift=DriftConfig(**rs["drift"]),
            recalibrate=rs["recalibrate"],
            warm_start=rs["warm_start"],
            default_spec=default_spec,
            probe_mode=rs["probe_mode"],
            max_partitions=max_partitions,
            seed=seed,
            check_quality=check_quality,
            governor_gain=gov.gain if gov else 1.0,
            governor_max_scale=gov.max_scale if gov else 4.0,
            retain_results=retain_results,
            retry=retry,
            fallback_compressor=fallback_compressor,
        )
        for st in state.fields.values():
            if st.compressor_spec is None:
                compressor = ctl.compressor
                st.compressor_spec = spec_of(compressor)
            else:
                compressor = resolve_compressor(st.compressor_spec)
            st.pipeline = AdaptiveCompressionPipeline(
                st.calibration.rate_model,
                compressor=compressor,
                settings=ctl.settings,
                backend=ctl.backend,
            )
        ctl._states = state.fields
        ctl._selections = {
            name: replace(sel, compressor=resolve_compressor(sel.chosen))
            for name, sel in state.selections.items()
        }
        ctl._pending = state.pending
        ctl._quarantined = state.quarantined
        ctl._governor = gov
        ctl.report = state.report
        ctl.report.n_snapshots = resume_index
        ctl._snapshot_index = resume_index
        ctl._started = True
        ctl._ended = state.end is not None
        if not ctl._ended:
            tail = getattr(run_ledger, "recovered_tail", None)
            ctl._append(
                "resume",
                snapshot=resume_index,
                restored_fields=sorted(ctl._states),
                truncated_bytes=0 if tail is None else tail["truncated_bytes"],
            )
        return ctl

    def process_snapshot(self, snapshot: NyxSnapshot) -> list[StreamOutcome]:
        """Decide, compress and account every field of one snapshot."""
        if self.byte_budget is not None and self._governor is None:
            raise RuntimeError(
                "a byte budget requires n_snapshots (pass it to the "
                "constructor, or use run() on a sized stream)"
            )
        self._ensure_started()
        index = self._snapshot_index
        # The span carries the ledger seq window this snapshot appended
        # (attributes only — telemetry never writes INTO the ledger, so
        # armed runs replay byte-identically to disarmed ones).
        with telemetry.get_tracer().span(
            "stream.snapshot",
            snapshot=index,
            redshift=float(snapshot.redshift),
            seq_first=self.ledger.next_seq,
        ) as span:
            outcomes = [
                self._process_field(index, snapshot.redshift, name, data)
                for name, data in snapshot.fields.items()
            ]
            if self._governor is not None:
                snapshot_bytes = sum(o.compressed_bytes for o in outcomes)
                exponent_mean = _exponent_mean(
                    st.calibration.rate_model for st in self._states.values()
                )
                scale_next = self._governor.observe(snapshot_bytes, exponent_mean)
                self._append(
                    "budget",
                    snapshot=index,
                    snapshot_bytes=snapshot_bytes,
                    spent=self._governor.spent,
                    exponent_mean=exponent_mean,
                    scale_next=scale_next,
                    utilization=self._governor.utilization,
                )
            span.set_attr("seq_last", self.ledger.next_seq - 1)
        self._snapshot_index += 1
        self.report.n_snapshots += 1
        return outcomes

    def _halo_for(
        self, state: _FieldState, eb_avg: float
    ) -> HaloQualitySpec | None:
        if state.halo_params is None:
            return None
        t_boundary, mass_budget = state.halo_params
        return HaloQualitySpec(
            t_boundary=t_boundary,
            mass_budget=mass_budget,
            reference_eb=min(1.0, eb_avg),
        )

    def _run_field(
        self,
        name: str,
        state: _FieldState,
        data: np.ndarray,
        eb_avg: float,
        halo: HaloQualitySpec | None,
    ) -> SnapshotResult:
        """Execute one field's compression under the retry policy.

        A transient failure (injected crash, timeout, OSError, ...) is
        retried with the same inputs — the pipeline is a pure function
        of them, so a successful retry is bitwise identical to a run
        that never failed.  A retry-aware :class:`~repro.parallel.
        backends.ProcessBackend` retries at batch granularity first;
        only what escapes it (e.g. its own
        :class:`~repro.resilience.retry.RetryExhaustedError`, which is
        not retryable) reaches this per-field site.
        """

        def attempt() -> SnapshotResult:
            return state.pipeline.run_insitu_spmd(
                data, self.decomposition, eb_avg=eb_avg, halo=halo
            )

        if self.retry is None:
            return attempt()
        return self.retry.execute(
            attempt, site=f"stream.field:{name}", on_retry=self._note_retry
        )

    def _degrade_field(
        self, index: int, name: str, data: np.ndarray, exc: RetryExhaustedError
    ) -> _FieldState:
        """Quarantine ``name`` onto the fallback compressor after retries.

        Records a ``degradation`` ledger event, then recalibrates the
        field on the fallback (reason ``"degradation"``) so its rate
        model matches what will actually compress it from here on.
        """
        assert self.fallback_compressor is not None
        self._quarantined.add(name)
        self.report.n_degradations += 1
        if telemetry.enabled():
            telemetry.get_registry().counter("resilience.degradations").inc()
        if name not in self.report.degraded_fields:
            self.report.degraded_fields.append(name)
        self._append(
            "degradation",
            snapshot=index,
            field=name,
            site=exc.site,
            attempts=exc.attempts,
            error=f"{type(exc.last).__name__}: {exc.last}",
            fallback=self.fallback_compressor.to_dict(),
        )
        self._pending.discard(name)
        return self._calibrate_field(
            name, data, FieldReference(data), reason="degradation"
        )

    def _process_field(
        self, index: int, redshift: float, name: str, data: np.ndarray
    ) -> StreamOutcome:
        with telemetry.get_tracer().span("stream.field", field=name, snapshot=index):
            return self._process_field_inner(index, redshift, name, data)

    def _process_field_inner(
        self, index: int, redshift: float, name: str, data: np.ndarray
    ) -> StreamOutcome:
        spec = self.spec_for(name)
        state = self._states.get(name)
        ref: FieldReference | None = None
        if state is None:
            if self.recalibrate == "never":
                raise KeyError(f"field {name!r} was not calibrated")
            ref = FieldReference(data)
            state = self._calibrate_field(name, data, ref, reason="initial")
        elif self.recalibrate == "always" or name in self._pending:
            reason = "forced" if self.recalibrate == "always" else "drift"
            self._pending.discard(name)
            ref = FieldReference(data)
            state = self._calibrate_field(name, data, ref, reason=reason)
        elif not self.warm_start:
            # Batch-campaign semantics: the rate model stays frozen but
            # the budget inversion re-derives from this snapshot's data.
            ref = FieldReference(data)
            state.eb_base = derive_eb_budget(spec, ref)
            state.halo_params = derive_halo_params(spec, ref) if spec.halo_aware else None

        scale = self._governor.scale if self._governor is not None else 1.0
        eb_avg = state.eb_base * scale
        halo = self._halo_for(state, eb_avg)
        try:
            result = self._run_field(name, state, data, eb_avg, halo)
        except RetryExhaustedError as exc:
            if self.fallback_compressor is None:
                raise
            # Graceful degradation: quarantine the field onto the
            # conservative fallback compressor, recalibrate it there
            # (the recalibration ledger event carries the new model, so
            # replay stays bitwise), and compress this snapshot with it.
            # No decision/outcome events were appended for the failed
            # attempts — the ledger sees only what actually happened.
            state = self._degrade_field(index, name, data, exc)
            eb_avg = state.eb_base * scale
            halo = self._halo_for(state, eb_avg)
            result = self._run_field(name, state, data, eb_avg, halo)

        feats = result.features
        self._append(
            "decision",
            snapshot=index,
            redshift=redshift,
            field=name,
            spec=(
                None
                if state.compressor_spec is None
                else state.compressor_spec.to_dict()
            ),
            eb_base=state.eb_base,
            scale=scale,
            eb_avg=eb_avg,
            mean_abs=[f.mean_abs for f in feats],
            n_cells=[f.n_cells for f in feats],
            cell_rates=(
                [f.effective_cell_rate for f in feats] if halo is not None else None
            ),
            halo=(
                None
                if halo is None
                else {
                    "t_boundary": halo.t_boundary,
                    "mass_budget": halo.mass_budget,
                    "reference_eb": halo.reference_eb,
                }
            ),
            ebs=result.ebs,
            constraint=(
                result.optimization.constraint if result.optimization else "spectrum"
            ),
        )

        stats = result.stats
        raw_bytes = stats.source_itemsize * stats.total_elements
        compressed_bytes = stats.total_nbytes
        achieved = float(stats.overall_bit_rate)
        predicted = (
            float(result.optimization.predicted_mean_bitrate)
            if result.optimization is not None
            else float("nan")
        )
        residual = (
            math.log(achieved / predicted)
            if achieved > 0 and predicted > 0
            else None
        )

        quality_dev: float | None = None
        if self.check_quality:
            if ref is None:
                ref = FieldReference(data)
            evaluator = QualityEvaluator(
                reference=ref,
                criteria=QualityCriteria(
                    spectrum_tolerance=spec.spectrum_tolerance,
                    spectrum_k_max=spec.spectrum_k_max,
                ),
            )
            quality_dev = float(
                evaluator.evaluate(
                    result.reconstruct(self.decomposition)
                ).spectrum_worst_deviation
            )

        signal: DriftSignal | None = None
        if self.recalibrate == "drift":
            if residual is not None:
                signal = state.detector.update_rate(predicted, achieved)
            if signal is None and quality_dev is not None:
                signal = state.detector.update_quality(
                    quality_dev, spec.spectrum_tolerance
                )
            if signal is not None:
                self._pending.add(name)

        self._append(
            "outcome",
            snapshot=index,
            field=name,
            raw_bytes=raw_bytes,
            compressed_bytes=compressed_bytes,
            achieved_bit_rate=achieved,
            predicted_bit_rate=predicted,
            residual=residual,
            drift_z=state.detector.zscore(),
            quality_deviation=quality_dev,
            recalibrate_next=name in self._pending,
        )
        outcome = StreamOutcome(
            field=name,
            redshift=redshift,
            snapshot_index=index,
            eb_base=state.eb_base,
            scale=scale,
            eb_avg=eb_avg,
            compressor_spec=state.compressor_spec,
            result=result if self.retain_results else None,
            predicted_bit_rate=predicted,
            achieved_bit_rate=achieved,
            raw_bytes=raw_bytes,
            compressed_bytes=compressed_bytes,
            residual=residual,
            quality_deviation=quality_dev,
            drift_signal=signal,
        )
        self.report.outcomes.append(outcome)
        self.report.timings.merge(result.timings)
        return outcome


# -- the ledger fold: one interpreter for replay and resume ------------------


@dataclass(frozen=True)
class ReplayedDecision:
    """One re-derived per-(snapshot, field) decision.

    ``compressor`` is the recorded spec behind the decision — ``None``
    for schema-v1 (PR 4-era) ledgers, which predate spec recording.
    """

    snapshot_index: int
    redshift: float
    field: str
    eb_avg: float
    ebs: tuple[float, ...]
    compressor: CompressorSpec | None = None


#: Event kinds recorded per snapshot.  A ``resume`` event at snapshot
#: ``s`` supersedes every such event for snapshots ``>= s`` recorded
#: before it (a crash mid-snapshot leaves a partial set; the
#: authoritative copies follow the resume).
_PER_SNAPSHOT_KINDS = (
    "selection",
    "calibration",
    "recalibration",
    "decision",
    "outcome",
    "degradation",
)


def _effective_events(run_events: list[LedgerEvent]) -> list[LedgerEvent]:
    """The run's events with resume-superseded partial segments dropped.

    The one definition of supersession: each ``resume`` event at
    snapshot ``s`` declares that everything recorded for snapshots
    ``>= s`` before it belongs to an interrupted attempt that is about
    to be re-executed; the copies appended after the resume are the
    ones a restored controller (and replay) must trust.
    """
    effective: list[LedgerEvent] = []
    for event in run_events:
        if event.kind == "resume":
            cut = int(event.data["snapshot"])
            effective = [
                e
                for e in effective
                if not (
                    e.kind in _PER_SNAPSHOT_KINDS
                    and int(e.data.get("snapshot", -1)) >= cut
                )
            ]
            continue
        effective.append(event)
    return effective


def _exponent_mean(models: Iterable[RateModel]) -> float:
    """Mean calibrated exponent the governor converts byte errors with."""
    exps = [m.exponent for m in models]
    # This left-fold is FROZEN: ledgers record governor decisions derived
    # from it, and the fold must reproduce them bitwise.  Switching to
    # math.fsum would orphan every ledger written before the change.
    return sum(exps) / len(exps)  # repro-lint: disable=RL006


@dataclass
class _RunState:
    """Everything one run's ledger events determine."""

    governor: BudgetGovernor | None = None
    #: Per-field state in first-calibration order — the order the
    #: governor's exponent mean sums in.
    fields: dict[str, _FieldState] = dataclass_field(default_factory=dict)
    selections: dict[str, SelectionResult] = dataclass_field(default_factory=dict)
    pending: set[str] = dataclass_field(default_factory=set)
    quarantined: set[str] = dataclass_field(default_factory=set)
    #: Restored outcomes, recalibrations, degradations and recoveries.
    report: StreamReport = dataclass_field(default_factory=StreamReport)
    decisions: list[ReplayedDecision] = dataclass_field(default_factory=list)
    end: dict[str, Any] | None = None
    n_budgets: int = 0
    last_snapshot: int = 0

    @property
    def resume_point(self) -> int:
        """The first snapshot without a complete record."""
        if self.end is not None:
            # A sealed run: everything is complete; run() on the same
            # stream skips every snapshot and finish() is a no-op.
            return int(self.end["n_snapshots"])
        if self.n_budgets:
            # Governed run: each budget event seals exactly one
            # completed snapshot, so their count is the resume point.
            return self.n_budgets
        # Ungoverned run: nothing in the ledger distinguishes "last
        # snapshot complete" from "crashed between its last outcome and
        # the next snapshot", so the last referenced snapshot is
        # conservatively re-executed.  The resume event supersedes the
        # re-recorded events, so replay and reports stay identical.
        return self.last_snapshot


def _replay_features(data: dict[str, Any]) -> list[PartitionFeatures]:
    rates = data["cell_rates"] or [None] * len(data["mean_abs"])
    return [
        PartitionFeatures(
            rank=i, n_cells=int(n), mean_abs=float(m), effective_cell_rate=r
        )
        for i, (n, m, r) in enumerate(zip(data["n_cells"], data["mean_abs"], rates))
    ]


def _diverged(event: LedgerEvent, what: str, got: object, recorded: object) -> LedgerError:
    return LedgerError(
        f"replay diverged at seq {event.seq} ({event.kind}): "
        f"{what} {got!r} != recorded {recorded!r}"
    )


def _check_bounds(event: LedgerEvent, ebs: tuple[float, ...]) -> None:
    """Raise on the first partition whose replayed bound differs."""
    recorded = [float(e) for e in event.data["ebs"]]
    if len(ebs) != len(recorded):
        raise _diverged(event, "partition count", len(ebs), len(recorded))
    for i, (got, want) in enumerate(zip(ebs, recorded)):
        if got != want:
            raise _diverged(event, f"bound of partition {i}", got, want)


def _fold(events: list[LedgerEvent], verify: bool = True) -> _RunState:
    """Fold one run's authoritative events into the state they determine.

    This is the only interpreter of ledger events.  Calibration events
    give the rate models; every decision re-runs the actual optimizer
    on its recorded features; every budget event re-applies the
    governor to the snapshot's outcome bytes; outcomes re-feed the
    drift detectors exactly as the live run did.  No field data is read
    and no compressor is resolved.  JSON round-trips floats exactly, so
    with ``verify`` every recomputed quantity — governor scale, average
    bound, per-partition bounds, snapshot bytes, next scale — must
    equal the recorded one, or :class:`~repro.stream.ledger.LedgerError`
    names the first divergence.
    """
    s = _RunState()
    settings: OptimizerSettings | None = None
    drift = DriftConfig()
    drift_fed = False  # do outcomes feed the detectors (recalibrate="drift")?
    decided: dict[tuple[int, str], dict[str, Any]] = {}
    snapshot_bytes = 0
    for event in events:
        d = event.data
        kind = event.kind
        if kind in ("decision", "outcome"):
            s.last_snapshot = max(s.last_snapshot, int(d["snapshot"]))
        if kind == "run_start":
            settings = OptimizerSettings(**d["settings"])
            drift = DriftConfig(**d["drift"])
            drift_fed = d["recalibrate"] == "drift"
            s.report.byte_budget = d.get("byte_budget")
        elif kind == "governor":
            s.governor = BudgetGovernor(
                d["total_bytes"],
                d["n_snapshots"],
                gain=d["gain"],
                max_scale=d["max_scale"],
            )
        elif kind in ("calibration", "recalibration"):
            name = d["field"]
            model = RateModel(
                exponent=d["exponent"],
                coef_alpha=d["coef_alpha"],
                coef_beta=d["coef_beta"],
                feature_floor=d["feature_floor"],
            )
            previous = s.fields.get(name)
            detector = previous.detector if previous else DriftDetector(name, drift)
            detector.reset()
            empty = np.array([])
            halo = d.get("halo_params")
            s.fields[name] = _FieldState(
                # Probe diagnostics are not recorded (they do not feed any
                # decision); the restored fit carries the model and coef_r2.
                calibration=CalibrationResult(
                    model, empty, empty, empty, empty, float(d["coef_r2"])
                ),
                compressor_spec=(
                    None if d.get("spec") is None else CompressorSpec.from_dict(d["spec"])
                ),
                eb_base=float(d["eb_base"]),
                halo_params=(
                    None if halo is None else (halo["t_boundary"], halo["mass_budget"])
                ),
                detector=detector,
            )
            if kind == "recalibration":
                s.report.n_recalibrations += 1
                s.report.recalibrations.append((int(d["snapshot"]), name, d["reason"]))
                s.pending.discard(name)
        elif kind == "selection":
            s.selections[d["field"]] = SelectionResult(
                field=d["field"],
                eb_avg=float(d["eb_avg"]),
                chosen=CompressorSpec.from_dict(d["chosen"]),
                compressor=None,  # resolved by resume(), never by replay
                verdicts=[
                    CandidateVerdict(
                        spec=CompressorSpec.from_dict(v["spec"]),
                        eligible=v["eligible"],
                        reason=v["reason"],
                        predicted_bit_rate=v["predicted_bit_rate"],
                        measured_bit_rate=v["measured_bit_rate"],
                        max_abs_error=v["max_abs_error"],
                        eb_violation=v["eb_violation"],
                    )
                    for v in d["verdicts"]
                ],
            )
        elif kind == "decision":
            if settings is None:
                raise LedgerError("decision event before run_start")
            name = d["field"]
            folded = s.fields.get(name)
            if folded is None:
                raise LedgerError(
                    f"decision for {name!r} at seq {event.seq} has no calibration"
                )
            scale = s.governor.scale if s.governor is not None else 1.0
            if verify and scale != d["scale"]:
                raise _diverged(event, "governor scale", scale, d["scale"])
            # The base bound is a recorded *input*: with warm starts it
            # matches the latest calibration event; without them it is
            # re-derived from the data each snapshot, so the decision
            # event is its only record.
            eb_avg = float(d["eb_base"]) * scale
            features = _replay_features(d)
            model = folded.calibration.rate_model
            if d.get("halo") is not None:
                halo_spec = HaloQualitySpec(**d["halo"])
                opt = optimize_combined(features, model, eb_avg, halo_spec, settings)
            else:
                opt = optimize_for_spectrum(features, model, eb_avg, settings)
            ebs = tuple(float(e) for e in opt.ebs)
            if verify:
                if eb_avg != float(d["eb_avg"]):
                    raise _diverged(event, "eb_avg", eb_avg, d["eb_avg"])
                _check_bounds(event, ebs)
            decided[(int(d["snapshot"]), name)] = d
            s.decisions.append(
                ReplayedDecision(
                    snapshot_index=int(d["snapshot"]),
                    redshift=float(d["redshift"]),
                    field=name,
                    eb_avg=eb_avg,
                    ebs=ebs,
                    # Schema v1 ledgers record no spec; v2 records one
                    # (possibly null for spec-less instances).  Either
                    # way it is informational — the bound arithmetic
                    # above never touches it.
                    compressor=(
                        CompressorSpec.from_dict(d["spec"])
                        if d.get("spec") is not None
                        else None
                    ),
                )
            )
        elif kind == "outcome":
            name = d["field"]
            snapshot_bytes += int(d["compressed_bytes"])
            folded = s.fields.get(name)
            if folded is not None and drift_fed and d.get("residual") is not None:
                # The detector consumes the numbers it saw live, so its
                # residual window continues where the run left it (the
                # quality channel keeps no state).
                folded.detector.update_rate(
                    float(d["predicted_bit_rate"]), float(d["achieved_bit_rate"])
                )
            # The recorded flag is authoritative for what the next snapshot
            # must recalibrate (it folds in both drift channels).
            if d.get("recalibrate_next"):
                s.pending.add(name)
            else:
                s.pending.discard(name)
            dd = decided.pop((int(d["snapshot"]), name), {})
            spec_dict = dd.get("spec")
            s.report.outcomes.append(
                StreamOutcome(
                    field=name,
                    redshift=float(dd.get("redshift", float("nan"))),
                    snapshot_index=int(d["snapshot"]),
                    eb_base=float(dd.get("eb_base", float("nan"))),
                    scale=float(dd.get("scale", 1.0)),
                    eb_avg=float(dd.get("eb_avg", float("nan"))),
                    compressor_spec=(
                        None if spec_dict is None else CompressorSpec.from_dict(spec_dict)
                    ),
                    # Payloads are gone with the recording process; the
                    # scalar accounting (and the on-disk artifacts) remain.
                    result=None,
                    predicted_bit_rate=float(d["predicted_bit_rate"]),
                    achieved_bit_rate=float(d["achieved_bit_rate"]),
                    raw_bytes=int(d["raw_bytes"]),
                    compressed_bytes=int(d["compressed_bytes"]),
                    residual=d.get("residual"),
                    quality_deviation=d.get("quality_deviation"),
                    drift_signal=None,
                )
            )
        elif kind == "degradation":
            name = d["field"]
            s.quarantined.add(name)
            s.report.n_degradations += 1
            if name not in s.report.degraded_fields:
                s.report.degraded_fields.append(name)
        elif kind == "budget":
            if s.governor is None:
                raise LedgerError("budget event without a governed run_start")
            exponent_mean = _exponent_mean(
                f.calibration.rate_model for f in s.fields.values()
            )
            if verify and snapshot_bytes != int(d["snapshot_bytes"]):
                raise _diverged(
                    event, "snapshot bytes", snapshot_bytes, d["snapshot_bytes"]
                )
            scale_next = s.governor.observe(snapshot_bytes, exponent_mean)
            if verify and scale_next != d["scale_next"]:
                raise _diverged(event, "next scale", scale_next, d["scale_next"])
            snapshot_bytes = 0
            s.n_budgets += 1
        elif kind == "recovery":
            s.report.n_recoveries += 1
        elif kind == "run_end":
            s.end = d
    return s


def _fold_run(run_events: list[LedgerEvent], verify: bool = True) -> _RunState:
    """Fold one run (``run_start`` onwards) as replay reads it.

    The authoritative events decide the state.  With ``verify``, every
    attempt a ``resume`` cut short is first folded up to its marker, so
    the decisions it superseded are checked as well.
    """
    if verify:
        for i, event in enumerate(run_events):
            if event.kind == "resume":
                _fold(_effective_events(run_events[:i]))
    return _fold(_effective_events(run_events), verify)


def replay_ledger(
    source: "RunLedger | str | os.PathLike | list[LedgerEvent]",
    verify: bool = True,
) -> list[ReplayedDecision]:
    """Re-execute a run's decision logic from its ledger alone.

    Folds each run's events (:func:`_fold`, the interpreter
    :meth:`InSituController.resume` also uses) and returns the
    re-derived decisions — no field data is read, no compressor is
    invoked, and the bounds are bitwise identical to the live run's.

    With ``verify=True`` (default) every recomputed quantity is checked
    against the ledger and a :class:`~repro.stream.ledger.LedgerError`
    naming the first divergence is raised (a tampered or corrupted
    ledger, or a non-deterministic controller, which would be a bug).
    Decisions a later ``resume`` superseded are checked too.

    Schema compatibility: v2 ledgers additionally carry compressor specs
    (surfaced on :attr:`ReplayedDecision.compressor`) and ``selection``
    events; v1 (PR 4-era) ledgers carry neither and replay byte-for-byte
    unchanged.  v3 ledgers add the resilience events: ``recovery`` and
    ``degradation`` are informational, while ``resume`` supersedes the
    partial snapshot recorded before an interruption (its authoritative
    copies follow), so a crashed-and-resumed run replays to the same
    decision list as an uninterrupted one.
    """
    if isinstance(source, RunLedger):
        events = source.events
    elif isinstance(source, list):
        events = source
    else:
        events = RunLedger.load(source).events
    # A ledger file may hold several runs back to back (re-opened files
    # continue the sequence); every run replays from a clean slate.
    runs: list[list[LedgerEvent]] = []
    for event in events:
        if event.kind == "run_start" or not runs:
            runs.append([])
        runs[-1].append(event)
    return [d for run in runs for d in _fold_run(run, verify).decisions]
