"""Run history: a durable RUNS.jsonl of per-run performance records.

Every pipeline or stream run can append one summarized record to
``<history-dir>/RUNS.jsonl`` (``--history-dir``): config and scenario
digests, per-stage wall-time attribution (from
:func:`repro.obs.profile.build_profile`), records/sec, charged service
calls, cache hit rate, and gap/limitation counts. The store is the
substrate for two consumers:

* ``repro stats --history`` — trend tables over the recorded runs, with
  a delta column against each run's *previous comparable* run (same
  config digest, so a ``--workers 4`` run is never judged against a
  ``--workers 1`` baseline);
* ``scripts/perf_gate.py`` — the perf regression gate:
  :func:`compare_runs` diffs the latest record against a baseline
  artifact under :class:`GateThresholds` and reports every stage
  slowdown or charged-call increase beyond threshold.

The file is bounded: appends past ``max_entries`` rewrite the ledger
keeping only the newest records (atomic replace), so a long-lived
history directory never grows without bound — the property tests in
``tests/test_properties.py`` pin retention and growth.

Determinism note: wall-clock values live *only* in these records and
the tables rendered from them; nothing here is read back into a run.
History records carry no wall-clock datetime — runs are ordered by the
monotonically increasing ``sequence`` the store assigns — so the store
itself is a pure function of the runs appended to it.

Zero-dependency constraint: standard library only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..durable import atomic_write_bytes, fsync_file
from ..utils.tables import Table
from .profile import build_profile

#: The ledger file name inside a history directory.
RUNS_NAME = "RUNS.jsonl"
#: Record schema version, bumped on incompatible layout changes.
HISTORY_FORMAT_VERSION = 1


def _digest(payload: Any) -> str:
    """A short stable digest of any JSON-serialisable payload."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def build_run_record(*, command: str, config: Dict[str, Any],
                     telemetry, counts: Dict[str, int]) -> Dict[str, Any]:
    """Summarize one finished run into a history record.

    ``config`` is the run-shaping knobs (seed, campaigns, faults,
    workers, cache, epochs); its digest decides which runs are
    comparable. ``counts`` carries the outcome volumes (reports,
    records, gaps, limitations).
    """
    profile = build_profile(telemetry.tracer.spans)
    charged = {name: int(snapshot.get("used", 0))
               for name, snapshot in sorted(telemetry.meter_snapshots.items())}
    cache = telemetry.cache_snapshot or {}
    totals = cache.get("totals", {})
    record: Dict[str, Any] = {
        "format": HISTORY_FORMAT_VERSION,
        "sequence": None,  # assigned by RunHistory.append
        "command": command,
        "config": dict(config),
        "config_digest": _digest({"command": command, **config}),
        "wall_seconds": profile.total_seconds,
        "stages": profile.stage_summary(),
        "counts": {key: int(value) for key, value in sorted(counts.items())},
        "charged": charged,
        "charged_total": sum(charged.values()),
        "cache": {
            "hits": int(totals.get("hits", 0)),
            "misses": int(totals.get("misses", 0)),
            "hit_rate": float(cache.get("hit_rate", 0.0)),
        },
        "exec": dict(telemetry.exec_snapshot),
    }
    records_n = int(counts.get("records", 0) or 0)
    # End-to-end throughput; None when the tracer clock is frozen (tests)
    # or the run produced no records, so gates can skip it cleanly.
    record["records_per_sec"] = (
        records_n / profile.total_seconds
        if profile.total_seconds and records_n else None
    )
    investigate = getattr(telemetry, "investigate_snapshot", None) or {}
    if investigate:
        investigated = int(investigate.get("investigated", 0))
        # Fleet throughput mirrors records_per_sec: None under a frozen
        # tracer clock or an empty fleet, so gates skip it cleanly.
        record["investigate"] = {
            "playbook": investigate.get("playbook", "-"),
            "investigated": investigated,
            "evidence_packages": int(
                investigate.get("evidence_packages", 0)),
            "scans_completed": int(investigate.get("scans_completed", 0)),
            "scan_gaps": int(investigate.get("scan_gaps", 0)),
        }
        record["investigations_per_sec"] = (
            investigated / profile.total_seconds
            if profile.total_seconds and investigated else None
        )
    serve = getattr(telemetry, "serve_snapshot", None) or {}
    if serve:
        latency = serve.get("latency", {})
        queue = serve.get("queue", {})
        # Sim-time SLOs: deterministic for a given (seed, load, config),
        # so the gate can hold them to exact-ish thresholds.
        record["serve"] = {
            "p50_latency": float(latency.get("p50") or 0.0),
            "p99_latency": float(latency.get("p99") or 0.0),
            "submitted": int(serve.get("submitted", 0)),
            "processed": int(serve.get("processed", 0)),
            "shed": int(serve.get("shed", 0)),
            "max_queue_depth": int(queue.get("max_depth", 0)),
        }
    return record


class RunHistory:
    """The durable, bounded RUNS.jsonl store under one directory."""

    def __init__(self, directory: Path, *, max_entries: int = 200):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.directory = Path(directory)
        self.max_entries = max_entries

    @property
    def path(self) -> Path:
        return self.directory / RUNS_NAME

    def load(self) -> List[Dict[str, Any]]:
        """Every record, oldest first; tolerates a torn trailing line."""
        if not self.path.is_file():
            return []
        records = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    # A torn tail (crash mid-append) loses that one
                    # record, never the ledger.
                    continue
        return records

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one record (assigning its sequence) and rotate.

        Returns the stored record. When the ledger would exceed
        ``max_entries`` the file is atomically rewritten keeping only
        the newest records — bounded growth, last-N retention.
        """
        records = self.load()
        sequence = (int(records[-1]["sequence"]) + 1) if records else 0
        record = dict(record, sequence=sequence)
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str)
        if len(records) + 1 > self.max_entries:
            kept = (records + [record])[-self.max_entries:]
            atomic_write_bytes(self.path, "".join(
                json.dumps(kept_record, sort_keys=True, default=str) + "\n"
                for kept_record in kept).encode("utf-8"))
        else:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                fsync_file(handle)
        return record

    def latest(self) -> Optional[Dict[str, Any]]:
        records = self.load()
        return records[-1] if records else None


def previous_comparable(records: List[Dict[str, Any]],
                        current: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The newest earlier record sharing ``current``'s config digest."""
    sequence = current.get("sequence")
    digest = current.get("config_digest")
    best = None
    for record in records:
        if record is current or record.get("sequence") == sequence:
            continue
        if sequence is not None and record.get("sequence", -1) >= sequence:
            continue
        if record.get("config_digest") == digest:
            if best is None or record.get("sequence", -1) > best.get(
                    "sequence", -1):
                best = record
    return best


def _delta(current: Optional[float],
           previous: Optional[float]) -> Optional[str]:
    if current is None or previous is None:
        return None
    diff = current - previous
    return f"{diff:+,.4f}".rstrip("0").rstrip(".") or "+0"


def history_table(records: List[Dict[str, Any]]) -> Table:
    """One row per recorded run, with deltas vs the previous comparable.

    The delta columns compare wall seconds and charged calls against
    the newest earlier run with the same config digest; runs with no
    comparable predecessor render ``-``.
    """
    table = Table(
        title="Run history",
        columns=["Run", "Command", "Config", "Wall (s)", "Records",
                 "Rec/s", "Charged", "Cache hit", "Gaps",
                 "Δ wall (s)", "Δ charged"],
    )
    for record in records:
        previous = previous_comparable(records, record)
        counts = record.get("counts", {})
        wall = record.get("wall_seconds")
        records_n = counts.get("records", 0)
        rate = (records_n / wall) if wall and records_n else None
        charged = record.get("charged_total", 0)
        prev_charged = (previous.get("charged_total")
                        if previous is not None else None)
        table.add_row(
            record.get("sequence"),
            record.get("command", "-"),
            record.get("config_digest", "-"),
            round(wall, 4) if wall is not None else None,
            records_n,
            round(rate, 1) if rate is not None else None,
            charged,
            f"{record.get('cache', {}).get('hit_rate', 0.0):.1%}",
            counts.get("gaps", 0),
            _delta(wall, previous.get("wall_seconds")
                   if previous is not None else None),
            (f"{charged - prev_charged:+d}"
             if prev_charged is not None else None),
        )
    return table


def stage_trend_table(current: Dict[str, Any],
                      previous: Optional[Dict[str, Any]]) -> Table:
    """Per-stage hot-path attribution for one run, with trend deltas.

    Stages sort by self time (heaviest first); the delta column shows
    the cumulative-wall change vs the same stage in ``previous``.
    """
    title = f"Stage trends (run {current.get('sequence')}"
    if previous is not None:
        title += f" vs run {previous.get('sequence')})"
    else:
        title += ", no comparable baseline)"
    table = Table(
        title=title,
        columns=["Stage", "Count", "Self (s)", "Cum (s)", "p50 (ms)",
                 "p90 (ms)", "p99 (ms)", "Rec/s", "Δ cum (s)"],
    )
    stages = current.get("stages", {})
    baseline = previous.get("stages", {}) if previous is not None else {}

    def _ms(value: Optional[float]) -> Optional[float]:
        return None if value is None else round(value * 1000.0, 2)

    ordered = sorted(stages.items(),
                     key=lambda item: (-item[1].get("self", 0.0), item[0]))
    for name, stage in ordered:
        rate = stage.get("records_per_sec")
        prior = baseline.get(name, {})
        table.add_row(
            name,
            stage.get("count", 0),
            round(stage.get("self", 0.0), 4),
            round(stage.get("cum", 0.0), 4),
            _ms(stage.get("p50")),
            _ms(stage.get("p90")),
            _ms(stage.get("p99")),
            round(rate, 1) if rate is not None else None,
            _delta(stage.get("cum"), prior.get("cum")),
        )
    return table


def render_history(records: List[Dict[str, Any]]) -> str:
    """The full ``repro stats --history`` report."""
    if not records:
        return "run history is empty — record runs with --history-dir"
    parts = [history_table(records).to_text()]
    current = records[-1]
    parts.append(stage_trend_table(
        current, previous_comparable(records, current)).to_text())
    return "\n\n".join(parts)


# -- the regression gate ------------------------------------------------------


@dataclass(frozen=True)
class GateThresholds:
    """When does a run-over-baseline difference become a regression?

    A stage only counts as slower when it exceeds *both* the relative
    ``max_slowdown`` and the absolute ``min_wall_floor`` — sub-floor
    stages are noise at any ratio. Charged-call increases are exact
    (the simulators are deterministic, so any increase is a real
    behaviour change, not jitter).
    """

    #: Stage cumulative wall may grow at most this factor.
    max_slowdown: float = 1.50
    #: Ignore stages whose wall time never reaches this many seconds.
    min_wall_floor: float = 0.05
    #: Allowed growth in charged calls (per service and total).
    max_charged_increase: int = 0
    #: Allowed drop in enrichment-cache hit rate (absolute).
    max_hit_rate_drop: float = 0.05
    #: Serve p99 intake latency (sim seconds) may grow at most this
    #: factor vs baseline. Sim-time, so growth is real queueing-behaviour
    #: drift, not machine jitter; the factor only absorbs rounding.
    max_serve_p99_growth: float = 1.25
    #: Serve throughput (reports processed) may not drop below this
    #: fraction of baseline.
    min_serve_processed_ratio: float = 1.0
    #: Absolute end-to-end records/second floor. ``None`` disables the
    #: check; runs whose record carries no throughput (frozen tracer
    #: clock, zero records) are skipped rather than failed.
    min_records_per_sec: Optional[float] = None
    #: Absolute investigations/second floor for fleet runs. ``None``
    #: disables the check; runs whose record carries no fleet
    #: throughput (non-investigate commands, frozen tracer clock) are
    #: skipped rather than failed.
    min_investigations_per_sec: Optional[float] = None
    #: Max tolerated fraction of collected reports the sanitizer
    #: quarantined (``counts["quarantined"] / counts["reports"]``).
    #: ``None`` disables the check; records without a quarantine count
    #: (clean runs omit the key) pass at rate 0. Judged against the
    #: current run alone — hostile-input handling is an absolute
    #: property, not a baseline-relative one.
    max_quarantine_rate: Optional[float] = None


def compare_runs(current: Dict[str, Any], baseline: Dict[str, Any],
                 thresholds: Optional[GateThresholds] = None,
                 *, check_config: bool = True) -> List[str]:
    """Regression findings for ``current`` judged against ``baseline``.

    Returns human-readable findings, empty when the gate passes.
    """
    thresholds = thresholds or GateThresholds()
    findings: List[str] = []
    if check_config and (current.get("config_digest")
                         != baseline.get("config_digest")):
        findings.append(
            f"config drift: current digest "
            f"{current.get('config_digest')} != baseline "
            f"{baseline.get('config_digest')} (runs are not comparable; "
            f"re-baseline or pass --allow-config-drift)"
        )
        return findings

    base_stages = baseline.get("stages", {})
    for name, stage in sorted(current.get("stages", {}).items()):
        cum = float(stage.get("cum", 0.0))
        base = base_stages.get(name)
        if base is None:
            if cum >= thresholds.min_wall_floor:
                findings.append(
                    f"new stage {name}: {cum:.3f}s with no baseline entry")
            continue
        base_cum = float(base.get("cum", 0.0))
        if max(cum, base_cum) < thresholds.min_wall_floor:
            continue
        if base_cum > 0 and cum > base_cum * thresholds.max_slowdown:
            findings.append(
                f"stage {name} slowed {cum / base_cum:.2f}x: "
                f"{base_cum:.3f}s -> {cum:.3f}s "
                f"(threshold {thresholds.max_slowdown:.2f}x)"
            )

    base_charged = baseline.get("charged", {})
    for service, used in sorted(current.get("charged", {}).items()):
        base_used = int(base_charged.get(service, 0))
        if used > base_used + thresholds.max_charged_increase:
            findings.append(
                f"charged calls to {service} grew {base_used} -> {used} "
                f"(allowed increase {thresholds.max_charged_increase})"
            )
    current_total = int(current.get("charged_total", 0))
    base_total = int(baseline.get("charged_total", 0))
    if current_total > base_total + thresholds.max_charged_increase:
        findings.append(
            f"total charged calls grew {base_total} -> {current_total} "
            f"(allowed increase {thresholds.max_charged_increase})"
        )

    base_serve = baseline.get("serve")
    cur_serve = current.get("serve")
    if base_serve and cur_serve:
        base_p99 = float(base_serve.get("p99_latency", 0.0))
        cur_p99 = float(cur_serve.get("p99_latency", 0.0))
        if base_p99 > 0 and cur_p99 > base_p99 * thresholds.max_serve_p99_growth:
            findings.append(
                f"serve p99 intake latency grew {cur_p99 / base_p99:.2f}x: "
                f"{base_p99:.2f}s -> {cur_p99:.2f}s sim "
                f"(threshold {thresholds.max_serve_p99_growth:.2f}x)"
            )
        base_processed = int(base_serve.get("processed", 0))
        cur_processed = int(cur_serve.get("processed", 0))
        floor = base_processed * thresholds.min_serve_processed_ratio
        if base_processed > 0 and cur_processed < floor:
            findings.append(
                f"serve throughput dropped: processed "
                f"{base_processed} -> {cur_processed} reports "
                f"(floor {thresholds.min_serve_processed_ratio:.0%} "
                f"of baseline)"
            )

    if thresholds.min_records_per_sec is not None:
        throughput = current.get("records_per_sec")
        if (throughput is not None
                and float(throughput) < thresholds.min_records_per_sec):
            findings.append(
                f"throughput {float(throughput):,.1f} records/s fell below "
                f"the {thresholds.min_records_per_sec:,.1f} records/s floor"
            )

    if thresholds.min_investigations_per_sec is not None:
        throughput = current.get("investigations_per_sec")
        if (throughput is not None
                and float(throughput)
                < thresholds.min_investigations_per_sec):
            findings.append(
                f"fleet throughput {float(throughput):,.1f} "
                f"investigations/s fell below the "
                f"{thresholds.min_investigations_per_sec:,.1f} "
                f"investigations/s floor"
            )

    if thresholds.max_quarantine_rate is not None:
        counts = current.get("counts", {})
        quarantined = int(counts.get("quarantined", 0) or 0)
        denominator = int(counts.get("reports", 0)
                          or counts.get("accepted", 0) or 0)
        if quarantined and denominator:
            rate = quarantined / denominator
            if rate > thresholds.max_quarantine_rate:
                findings.append(
                    f"quarantine rate {rate:.1%} ({quarantined}/"
                    f"{denominator} reports) exceeds the "
                    f"{thresholds.max_quarantine_rate:.1%} ceiling"
                )

    base_rate = float(baseline.get("cache", {}).get("hit_rate", 0.0))
    current_rate = float(current.get("cache", {}).get("hit_rate", 0.0))
    if base_rate - current_rate > thresholds.max_hit_rate_drop:
        findings.append(
            f"cache hit rate dropped {base_rate:.1%} -> {current_rate:.1%} "
            f"(allowed drop {thresholds.max_hit_rate_drop:.1%})"
        )
    return findings
