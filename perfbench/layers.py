"""Where the layer spans go, and how they become per-layer metrics.

Every span wraps a public function of the program; the list below is the
whole layer map. Metric names ending in ``_s`` are self seconds (span
minus child spans) unless :func:`layer_metrics` says otherwise.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from repro.analysis import report as report_mod
from repro.checkpoint.journal import RunJournal
from repro.core import collection, curation
from repro.core.enrichment import Enricher
from repro.core.quarantine import Sanitizer
from repro.exec.engine import ExecutionEngine
from repro.forums.base import ForumService
from repro.imaging.vision_openai import OpenAiVisionExtractor
from repro.investigate.fleet import InvestigationFleet
from repro.nlp.annotator import MessageAnnotator
from repro.nlp.brands_ner import BrandRecognizer
from repro.nlp.langdetect import LanguageDetector
from repro.nlp.lures import LureDetector
from repro.nlp.scamtype import ScamTypeClassifier
from repro.nlp.translate import TemplateTranslator
from repro.resilience.retry import RetryPolicy
from repro.serve import service as serve_service
from repro.services import virustotal
from repro.stream import runner as stream_runner
from repro.stream.ledger import DedupLedger
from repro.stream.watermarks import WatermarkStore
from repro.world import scenario

from tracer import LayerTracer

#: Collector class per forum metric stem.
COLLECTORS = {
    "twitter": collection.TwitterCollector,
    "reddit": collection.RedditCollector,
    "smishingeu": collection.SmishingEuCollector,
    "pastebin": collection.PastebinCollector,
    "smishtank": collection.SmishtankCollector,
}

#: (owner, attribute, layer) for every timed public function.
SPANS = [
    (scenario, "build_world", "world.build"),
    (stream_runner, "build_world", "world.build"),
    (serve_service, "build_world", "world.build"),
    *[(cls, "collect", f"collection.{stem}")
      for stem, cls in COLLECTORS.items()],
    (ForumService, "search", "collection.search"),
    (curation.Curator, "curate", "curation"),
    (OpenAiVisionExtractor, "extract", "curation.vision"),
    (Sanitizer, "observe_batch", "curation.quarantine"),
    (Sanitizer, "screen", "curation.quarantine"),
    (curation, "parse_screenshot_timestamp", "curation.timestamp"),
    (MessageAnnotator, "annotate", "nlp.annotate"),
    (LanguageDetector, "detect", "nlp.langdetect"),
    (TemplateTranslator, "translate", "nlp.translate"),
    (BrandRecognizer, "find_all", "nlp.brands_ner"),
    (ScamTypeClassifier, "classify", "nlp.scamtype"),
    (LureDetector, "detect", "nlp.lures"),
    (virustotal, "scan_url_uncharged", "services.vt_scan"),
    (Enricher, "run", "enrich.run"),
    (Enricher, "enrich_senders", "enrich.senders"),
    (Enricher, "enrich_urls", "enrich.urls"),
    (Enricher, "annotate", "enrich.annotate"),
    (report_mod, "generate_paper_report", "analysis.report"),
    (report_mod.PaperReport, "render", "analysis.report"),
    (InvestigationFleet, "run", "investigate.run"),
    (InvestigationFleet, "run_probes", "investigate.probes"),
    (WatermarkStore, "filter_epoch", "stream.watermark"),
    (WatermarkStore, "commit", "stream.watermark"),
    (DedupLedger, "divide", "stream.ledger"),
    (DedupLedger, "commit", "stream.ledger"),
    (RunJournal, "append", "checkpoint.journal_append"),
    (RunJournal, "write_snapshot", "checkpoint.snapshot"),
    (serve_service.IntakeService, "dispatch", "serve.dispatch"),
]

#: Modules that call the durable atomic writers by their imported name.
DURABLE_WRITERS = [(module, name) for module in (stream_runner, serve_service)
                   for name in ("atomic_write_pickle", "atomic_write_json")]

ENRICH_STAGES = ("enrich.senders", "enrich.urls", "enrich.annotate")


class LayerProbe:
    """A tracer with the layer map installed, plus the counts that come
    from return values rather than from span timing."""

    def __init__(self):
        self.tracer = LayerTracer()
        self.counts: Dict[str, float] = {
            "collection.reports": 0, "curation.reports_in": 0,
            "curation.records_out": 0, "durable.commit_bytes": 0}
        self.caches: List[Any] = []
        self.restored: List[Any] = []

    def _add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def install(self) -> None:
        tracer = self.tracer
        for owner, attribute, layer in SPANS:
            observe = None
            if layer.startswith("collection.") and attribute == "collect":
                observe = (lambda result, args, kwargs: self._add(
                    "collection.reports", len(result.reports)))
            elif layer == "curation":
                observe = self._observe_curate
            tracer.install(owner, attribute, layer, observe=observe)
        for module, name in DURABLE_WRITERS:
            tracer.install(module, name, "durable.commit",
                           observe=self._observe_durable)
        tracer.install(RetryPolicy, "delay_for", "resilience.retries",
                       count_only=True)
        tracer.install(ExecutionEngine, "build_cache", "exec.build_cache",
                       observe=lambda cache, args, kwargs:
                       self.caches.append(cache))

    def uninstall(self):
        return self.tracer.uninstall()

    def _observe_curate(self, dataset, args, kwargs) -> None:
        reports = args[1] if len(args) > 1 else kwargs["reports"]
        self._add("curation.reports_in", len(reports))
        self._add("curation.records_out", len(dataset))

    def _observe_durable(self, result, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self._add("durable.commit_bytes", os.path.getsize(path))


def layer_metrics(probe: LayerProbe, workload_counts: Dict[str, float], *,
                  workload: str, wall_s: float, covered_s: float,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced iteration.

    ``enrich.precompute_s`` is ``Enricher.run`` minus its three public
    stages (so it includes the annotator and scan work done while filling
    the cache); ``investigate.charged_s`` is the fleet run minus its probe
    phase; ``serve.batch_enrich_s`` is the inclusive ``Enricher.run`` time
    of the intake service's batches.
    """
    tracer = probe.tracer
    own = tracer.self_time
    calls = tracer.calls
    counts = probe.counts
    metrics: Dict[str, float] = {"world.build_s": own["world.build"]}
    for stem in COLLECTORS:
        metrics[f"collection.{stem}_s"] = own[f"collection.{stem}"]
    metrics.update({
        "collection.search_s": own["collection.search"],
        "collection.search_calls": calls["collection.search"],
        "collection.reports": counts["collection.reports"],
        "curation.s": own["curation"],
        "curation.vision_s": own["curation.vision"],
        "curation.quarantine_s": own["curation.quarantine"],
        "curation.timestamp_s": own["curation.timestamp"],
        "curation.yield": (counts["curation.records_out"]
                           / counts["curation.reports_in"]
                           if counts["curation.reports_in"] else 0.0),
        "nlp.annotate_s": own["nlp.annotate"],
        "nlp.langdetect_s": own["nlp.langdetect"],
        "nlp.translate_s": own["nlp.translate"],
        "nlp.brands_ner_s": own["nlp.brands_ner"],
        "nlp.scamtype_s": own["nlp.scamtype"],
        "nlp.lures_s": own["nlp.lures"],
        "nlp.texts": calls["nlp.annotate"],
        "services.vt_scan_s": own["services.vt_scan"],
        "enrich.precompute_s": tracer.inclusive["enrich.run"] - sum(
            tracer.edges[("enrich.run", stage)] for stage in ENRICH_STAGES),
        "enrich.senders_s": own["enrich.senders"],
        "enrich.urls_s": own["enrich.urls"],
        "enrich.annotate_s": own["enrich.annotate"],
        "exec.cache_hit_ratio": _hit_ratio(probe.caches),
        "resilience.retries": calls["resilience.retries"],
        "analysis.report_s": own["analysis.report"],
        "investigate.probes_s": own["investigate.probes"],
        "investigate.charged_s": (
            tracer.inclusive["investigate.run"]
            - tracer.edges[("investigate.run", "investigate.probes")]),
        "stream.watermark_s": own["stream.watermark"],
        "stream.ledger_s": own["stream.ledger"],
        "checkpoint.journal_append_s": own["checkpoint.journal_append"],
        "checkpoint.journal_append_calls":
            calls["checkpoint.journal_append"],
        "checkpoint.snapshot_s": own["checkpoint.snapshot"],
        "durable.commit_s": own["durable.commit"],
        "durable.commit_bytes": counts["durable.commit_bytes"],
        "serve.dispatch_s": own["serve.dispatch"],
        "serve.batch_enrich_s": (tracer.inclusive["enrich.run"]
                                 if workload == "serve-hostile" else 0.0),
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.unattributed_s": wall_s - covered_s,
    })
    for name in ("enrich.charged_calls", "enrich.gaps", "investigate.scans",
                 "stream.cache_reuse", "serve.batches",
                 "serve.degraded_batches", "serve.accepted_ratio",
                 "serve.queue_depth_p99", "serve.intake_p50_sim_s",
                 "serve.intake_p99_sim_s"):
        metrics[name] = workload_counts.get(name, 0)
    return metrics


def _hit_ratio(caches) -> float:
    hits = sum(cache.hits for cache in caches)
    lookups = hits + sum(cache.misses for cache in caches)
    return hits / lookups if lookups else 0.0
