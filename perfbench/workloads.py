"""The three benchmark workloads.

Each workload is a single caller in one process, on the serial pool with
one worker. ``setup`` builds the world and any session or service (timed
as ``setup_s``), ``run`` is the measured phase (``wall_s``), and ``check``
computes the output digest and the accounting identities after the clock
has stopped. Every workload ends with the full-funnel investigation
fleet over the dataset it curated, so ``investigations_per_s`` has the
same meaning everywhere.

The program is reached through module attributes (``scenario.build_world``,
``report.generate_paper_report``) so that the layer tracer's wrappers,
when installed, see every call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.analysis import report as report_mod
from repro.core.dataset import SmishingDataset
from repro.core.pipeline import run_pipeline
from repro.exec import ExecutionPolicy
from repro.faults import build_fault_plan
from repro.investigate import (InvestigationFleet, fleet_fingerprint,
                               fleet_items, get_playbook)
from repro.serve import IntakeService, LoadSpec, serve_fingerprint
from repro.stream import StreamSession
from repro.world import scenario

SERIAL = ExecutionPolicy(workers=1, pool="serial")

#: World services whose meters count enrichment lookups (the annotation
#: endpoint is built inside ``run_pipeline`` and is not reachable after it).
ENRICHMENT_METERS = ("hlr", "whois", "crtsh", "passivedns", "ipinfo",
                     "virustotal", "gsb")
#: ``EnrichmentGap.service`` values filed against those seven services.
ENRICHMENT_GAP_SERVICES = frozenset({"hlr", "whois", "crtsh", "spamhaus-pdns",
                                     "ipinfo", "virustotal", "gsb",
                                     "gsb-transparency"})


@dataclass
class Products:
    """What one measured phase produced, plus its timings."""

    wall_s: float
    fleet_s: float
    records: int
    requests: int
    investigated: int
    enrich_charged: int
    state: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """The checked result of one iteration."""

    digest: str
    failures: List[str]
    #: ``failed_ratio`` as numerator and denominator, so runs can pool it.
    failed: int
    failed_of: int
    counts: Dict[str, float]


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def _world_charged(world) -> int:
    """Charged calls on the world's seven enrichment services."""
    return sum(getattr(world, name).meter.used for name in ENRICHMENT_METERS)


def _all_world_charged(world) -> int:
    """Charged requests on every simulated forum and service of a world."""
    return (_world_charged(world)
            + sum(forum.meter.used for forum in world.forums.values()))


def _fleet(world, dataset):
    """Full-funnel investigation of every URL-bearing record; timed.

    The garbage left by the phase before is collected first, untimed, so
    the short fleet timing does not absorb a collection it did not cause.
    """
    gc.collect()
    start = time.perf_counter()
    fleet = InvestigationFleet(world, dataset,
                               playbook=get_playbook("full-funnel"),
                               workers=SERIAL.workers, pool_kind=SERIAL.pool)
    report = fleet.run()
    return report, time.perf_counter() - start


def _fleet_failures(report, dataset) -> List[str]:
    expected = len(fleet_items(dataset))
    if report.investigated != expected or len(report.probes) != expected:
        return [f"fleet investigated {report.investigated} "
                f"({len(report.probes)} probes) of {expected} items"]
    return []


def _curation_failures(stats, collected: int) -> List[str]:
    failures = []
    if stats.reports_in != collected:
        failures.append(f"curation saw {stats.reports_in} reports, "
                        f"collection produced {collected}")
    settled = stats.reports_curated + stats.quarantined + stats.reports_dropped
    if settled != stats.reports_in:
        failures.append(f"curated+quarantined+dropped={settled} != "
                        f"collected={stats.reports_in}")
    return failures


def _enrichment_gaps(gaps) -> int:
    return sum(1 for gap in gaps if gap.service in ENRICHMENT_GAP_SERVICES)


class BatchResearchRun:
    """Closed single-caller research run over a 480-campaign world."""

    name = "batch-480"
    campaigns = 480

    def setup(self, seed: int, workdir: Path):
        return scenario.build_world(scenario.ScenarioConfig(
            seed=seed, n_campaigns=self.campaigns))

    def run(self, world) -> Products:
        start = time.perf_counter()
        run = run_pipeline(world, execution=SERIAL)
        charged = _world_charged(world)
        text = report_mod.generate_paper_report(run).render()
        phase_s = time.perf_counter() - start
        fleet, fleet_s = _fleet(world, run.dataset)
        return Products(
            wall_s=phase_s + fleet_s, fleet_s=fleet_s,
            records=len(run.dataset),
            requests=_all_world_charged(world),
            investigated=fleet.investigated, enrich_charged=charged,
            state={"run": run, "report": text, "fleet": fleet,
                   "world": world})

    def check(self, products: Products) -> Outcome:
        run = products.state["run"]
        fleet = products.state["fleet"]
        world = products.state["world"]
        payload = json.dumps({
            "rows": [record.to_json_dict()
                     for record in run.annotated_dataset],
            "gaps": [asdict(gap) for gap in run.enriched.gaps],
            "limitations": [asdict(lim)
                            for lim in run.collection.limitations],
        }, sort_keys=True, default=str)
        failures = (_curation_failures(run.curation_stats,
                                       len(run.collection.reports))
                    + _fleet_failures(fleet, run.dataset))
        return Outcome(
            digest=_sha256(payload, products.state["report"],
                           fleet_fingerprint(fleet, world)),
            failures=failures,
            failed=_enrichment_gaps(run.enriched.gaps),
            failed_of=products.enrich_charged,
            counts={"enrich.charged_calls": products.enrich_charged,
                    "enrich.gaps": len(run.enriched.gaps),
                    "investigate.scans": len(fleet.verdicts)
                    + fleet.scan_gaps})


class DurableFlakyStream:
    """Durable 12-epoch stream under the ``flaky`` fault plan."""

    name = "stream-flaky"
    campaigns = 120
    epochs = 12

    def setup(self, seed: int, workdir: Path):
        return StreamSession.create(
            scenario.ScenarioConfig(seed=seed, n_campaigns=self.campaigns),
            epochs=self.epochs,
            fault_plan=build_fault_plan("flaky", seed=seed),
            execution=SERIAL,
            stream_dir=workdir / "stream")

    def run(self, session) -> Products:
        start = time.perf_counter()
        state = session.run()
        charged = _world_charged(session.world)
        phase_s = time.perf_counter() - start
        fleet, fleet_s = _fleet(session.world, state.dataset)
        return Products(
            wall_s=phase_s + fleet_s, fleet_s=fleet_s,
            records=len(state.dataset),
            requests=_all_world_charged(session.world),
            investigated=fleet.investigated, enrich_charged=charged,
            state={"session": session, "fleet": fleet})

    def check(self, products: Products) -> Outcome:
        session = products.state["session"]
        fleet = products.state["fleet"]
        state = session.state
        failures = (_curation_failures(state.curation_stats,
                                       len(state.collection.reports))
                    + _fleet_failures(fleet, state.dataset))
        if state.committed_epochs != self.epochs:
            failures.append(f"committed {state.committed_epochs} of "
                            f"{self.epochs} epochs")
        return Outcome(
            digest=_sha256(state.fingerprint(),
                           fleet_fingerprint(fleet, session.world)),
            failures=failures,
            failed=_enrichment_gaps(state.gaps),
            failed_of=products.enrich_charged,
            counts={"enrich.charged_calls": products.enrich_charged,
                    "enrich.gaps": len(state.gaps),
                    "investigate.scans": len(fleet.verdicts)
                    + fleet.scan_gaps,
                    "stream.cache_reuse": session.stats()["cache_reuse"]})


class DurableHostileServe:
    """Durable intake service replaying a steady open-loop schedule
    against a world seeded with noisy hostile reports."""

    name = "serve-hostile"
    campaigns = 120
    requests = 20_000
    reporters = 5_000

    def setup(self, seed: int, workdir: Path):
        return IntakeService.create(
            scenario.ScenarioConfig(seed=seed, n_campaigns=self.campaigns,
                                    hostile="noisy"),
            load=LoadSpec(profile="steady", requests=self.requests,
                          reporters=self.reporters, seed=seed),
            execution=SERIAL,
            serve_dir=workdir / "serve")

    def run(self, service) -> Products:
        start = time.perf_counter()
        state = service.run()
        charged = _world_charged(service.world)
        dataset = SmishingDataset(state.records)
        phase_s = time.perf_counter() - start
        fleet, fleet_s = _fleet(service.world, dataset)
        return Products(
            wall_s=phase_s + fleet_s, fleet_s=fleet_s,
            records=len(state.records),
            requests=state.submitted, investigated=fleet.investigated,
            enrich_charged=charged,
            state={"service": service, "fleet": fleet, "dataset": dataset})

    def check(self, products: Products) -> Outcome:
        service = products.state["service"]
        fleet = products.state["fleet"]
        stats = service.stats()
        failures = _fleet_failures(fleet, products.state["dataset"])
        if stats["submitted"] != self.requests:
            failures.append(f"submitted {stats['submitted']} of "
                            f"{self.requests} requests")
        if stats["accepted"] + stats["shed"] != stats["submitted"]:
            failures.append(f"accepted+shed={stats['accepted']}"
                            f"+{stats['shed']} != submitted="
                            f"{stats['submitted']}")
        if stats["processed"] + stats["timed_out"] != stats["accepted"]:
            failures.append(f"processed+timed_out={stats['processed']}"
                            f"+{stats['timed_out']} != accepted="
                            f"{stats['accepted']}")
        latency = stats["latency"]
        return Outcome(
            digest=_sha256(serve_fingerprint(service),
                           fleet_fingerprint(fleet, service.world)),
            failures=failures,
            failed=stats["shed"] + stats["timed_out"],
            failed_of=stats["submitted"],
            counts={"enrich.charged_calls": products.enrich_charged,
                    "enrich.gaps": stats["gaps"],
                    "investigate.scans": len(fleet.verdicts)
                    + fleet.scan_gaps,
                    "serve.batches": stats["batches"],
                    "serve.degraded_batches": stats["degraded_batches"],
                    "serve.accepted_ratio": (stats["accepted"]
                                             / stats["submitted"]),
                    "serve.queue_depth_p99": stats["queue"]["p99"],
                    "serve.intake_p50_sim_s": latency["p50"],
                    "serve.intake_p99_sim_s": latency["p99"]})


WORKLOADS = {workload.name: workload for workload in
             (BatchResearchRun(), DurableFlakyStream(), DurableHostileServe())}
