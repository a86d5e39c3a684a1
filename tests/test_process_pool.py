"""Process-pool regression suite: pickling, spawn contexts, failures.

The :class:`~repro.exec.ProcessPool` ships tasks across a pickle
boundary, so everything the precompute phase closes over must survive
``pickle.dumps`` — including under the ``spawn`` start method, where the
worker is a from-scratch interpreter that re-imports ``repro`` (the
macOS/Windows default, exercised here explicitly so a fork-only Linux
CI cannot hide a spawn regression). The differential matrix in
``tests/test_exec_equivalence.py`` proves whole runs byte-identical;
this module pins the sharp edges individually.
"""

import multiprocessing
import pickle

import pytest

from repro.core.enrichment import AnnotateShardTask, Enricher, ScanShardTask
from repro.core.pipeline import build_enrichment_services, run_pipeline
from repro.exec import (
    CacheEntry,
    EnrichmentCache,
    EntryKind,
    ProcessPool,
    SerialPool,
    make_pool,
    shard,
)
from repro.faults import build_fault_plan
from repro.nlp.annotator import MessageAnnotator
from repro.world.scenario import ScenarioConfig, build_world


def _square(value):
    """Module-level on purpose: process-pool tasks must be picklable."""
    return value * value


def _explode_on_odd(value):
    if value % 2:
        raise RuntimeError(f"task-{value}")
    return value


class _CountsUnpickles:
    """A task that reports how often its process has unpickled one."""

    unpickled = 0

    def __init__(self):
        self.tag = "heavy"

    def __setstate__(self, state):
        self.__dict__.update(state)
        type(self).unpickled += 1

    def __call__(self, item):
        return type(self).unpickled


# -- pickling regressions ------------------------------------------------------


def test_enrichment_cache_round_trips_through_pickle():
    """A warm cache pickles with its entries and counters intact: it
    holds no process-local state (no lock) that would need dropping."""
    cache = EnrichmentCache()
    cache.put_value("openai", "hello", {"label": 1})
    cache.put_value("whois", "evil.test", "registrar")
    restored = pickle.loads(pickle.dumps(cache))
    assert restored.get("openai", "hello").value == {"label": 1}
    assert restored.get("whois", "evil.test").value == "registrar"
    assert restored.lookup("openai", "hello",
                           lambda: None).value == {"label": 1}
    stats = restored.stats()
    assert stats["services"]["openai"]["hits"] >= 1


@pytest.mark.parametrize("profile", ["none", "flaky", "outage"])
def test_fault_plan_round_trips_through_pickle(profile):
    plan = build_fault_plan(profile, seed=7)
    restored = pickle.loads(pickle.dumps(plan))
    assert type(restored) is type(plan)
    assert restored.seed == plan.seed
    assert restored.profile == plan.profile
    assert len(restored.rules) == len(plan.rules)


def test_shard_tasks_are_picklable():
    annotate = AnnotateShardTask(MessageAnnotator())
    assert pickle.loads(pickle.dumps(annotate)) is not None
    scan = ScanShardTask(frozenset({"evil.test"}))
    restored = pickle.loads(pickle.dumps(scan))
    assert restored._known_bad_hosts == frozenset({"evil.test"})


def test_annotator_patterns_unpickle_from_the_re_cache():
    """A forked worker inherits the parent's ``re`` cache. Every pattern
    the annotator pickles must come back as that very cached object
    (pickled flags equal compile flags); otherwise each worker
    recompiles hundreds of templates on its first task."""
    annotator = MessageAnnotator()
    patterns = [pattern for entries in annotator.translator._memory.values()
                for pattern, _ in entries]
    patterns += [pattern
                 for entries in annotator.lure_detector._compiled.values()
                 for _, pattern in entries]
    assert len(patterns) > 100
    assert all(pickle.loads(pickle.dumps(p)) is p for p in patterns)


# -- spawn-context regression --------------------------------------------------


def test_process_pool_under_spawn_context_matches_serial():
    """``spawn`` workers start with an empty interpreter: every task,
    argument, and result must round-trip through pickle and re-import.
    One pool, both shard-task kinds, results compared against inline."""
    annotator = MessageAnnotator()
    texts = ["Your N3tfl!x account is on hold", "URGENT: verify your bank"]
    urls = ["http://evil.test/login", "https://short.test/x"]
    annotate = AnnotateShardTask(annotator)
    scan = ScanShardTask(frozenset({"evil.test"}))
    with ProcessPool(2, mp_context=multiprocessing.get_context(
            "spawn")) as pool:
        annotated = pool.map(annotate, shard(texts, pool.workers))
        scanned = pool.map(scan, shard(urls, pool.workers))
    assert annotated == SerialPool().map(annotate, shard(texts, 2))
    assert scanned == SerialPool().map(scan, shard(urls, 2))


# -- merge and failure semantics -----------------------------------------------


def test_process_pool_merges_in_submission_order():
    with ProcessPool(4) as pool:
        assert pool.map(_square, range(20)) == [i * i for i in range(20)]
        stats = pool.stats()
    assert stats["kind"] == "ProcessPool"
    assert stats["tasks"] == 20


def test_worker_unpickles_a_task_once_across_chunks_and_maps():
    """The task ships pickled once per map and each worker keeps what it
    unpickled, so a heavy task is not rebuilt per chunk or per batch."""
    task = _CountsUnpickles()
    with ProcessPool(1) as pool:
        assert pool.map(task, range(5)) == [1] * 5
        assert pool.map(task, range(3)) == [1] * 3


def test_process_pool_reraises_lowest_indexed_failure():
    with ProcessPool(4) as pool:
        with pytest.raises(RuntimeError) as excinfo:
            pool.map(_explode_on_odd, [0, 4, 7, 3, 9])
    # Index 2 (value 7) is the first failing submission, regardless of
    # which worker finished first.
    assert str(excinfo.value) == "task-7"


def test_make_pool_selects_backend_by_kind_and_width():
    assert isinstance(make_pool(4, "process"), ProcessPool)
    assert isinstance(make_pool(4, "serial"), SerialPool)
    # One worker never pays pool overhead, whatever the kind.
    assert isinstance(make_pool(1, "process"), SerialPool)
    for retired in ("thread", "greenlet"):
        with pytest.raises(ValueError):
            make_pool(4, retired)
    with pytest.raises(ValueError):
        ProcessPool(0)


# -- cache-miss-only precompute ------------------------------------------------


class _RecordingPool(SerialPool):
    """A 2-shard serial pool that records every subject it is handed."""

    workers = 2

    def __init__(self):
        super().__init__()
        self.shipped = []

    def map(self, fn, items):
        items = list(items)
        self.shipped.append((type(fn).__name__,
                             [subject for chunk in items for subject in chunk]))
        return super().map(fn, items)


@pytest.fixture(scope="module")
def small_run():
    world = build_world(ScenarioConfig(seed=7, n_campaigns=4))
    run = run_pipeline(world)
    texts = list(dict.fromkeys(r.text for r in run.dataset))
    urls = list(dict.fromkeys(str(r.url) for r in run.dataset
                              if r.url is not None))
    return world, run.dataset, texts, urls


def _seeded_cache(services, texts, urls, **kwargs):
    """A cache already holding every third text and URL, as an earlier
    stream epoch or serve batch would have left it."""
    cache = EnrichmentCache(**kwargs)
    annotator = services.openai._annotator
    cache.seed(
        [("openai", text, CacheEntry(EntryKind.VALUE,
                                     annotator.annotate("", text)))
         for text in texts[::3]]
        + [("virustotal", url, CacheEntry(
            EntryKind.VALUE, services.virustotal._scan_url_uncharged(url)))
           for url in urls[::3]])
    return cache


def _reference_fill(cache, services, texts, urls):
    """The serial fill: one memoising lookup per unique subject."""
    annotator = services.openai._annotator
    for text in texts:
        cache.lookup("openai", text,
                     lambda t=text: annotator.annotate("", t))
    for url in urls:
        cache.lookup("virustotal", url,
                     lambda u=url: services.virustotal._scan_url_uncharged(u))


def test_precompute_ships_only_uncached_subjects(small_run):
    world, dataset, texts, urls = small_run
    services = build_enrichment_services(world)
    cache = _seeded_cache(services, texts, urls)
    pool = _RecordingPool()
    Enricher(services, cache=cache, pool=pool)._precompute(dataset)
    uncached_texts = [t for i, t in enumerate(texts) if i % 3]
    uncached_urls = [u for i, u in enumerate(urls) if i % 3]
    assert uncached_texts and uncached_urls
    assert [(name, sorted(subjects)) for name, subjects in pool.shipped] \
        == [("AnnotateShardTask", sorted(uncached_texts)),
            ("ScanShardTask", sorted(uncached_urls))]
    # A second pass over a now-warm cache ships nothing at all.
    pool.shipped.clear()
    Enricher(services, cache=cache, pool=pool)._precompute(dataset)
    assert pool.shipped == []


@pytest.mark.parametrize("max_entries", [None, 2])
def test_process_precompute_counters_equal_serial_fill(small_run,
                                                        max_entries):
    """Hits, misses, stores, evictions and the entries left behind are
    exactly those of the serial fill, bounded cache included."""
    world, dataset, texts, urls = small_run
    services = build_enrichment_services(world)
    expected = _seeded_cache(services, texts, urls, max_entries=max_entries)
    _reference_fill(expected, services, texts, urls)
    cache = _seeded_cache(services, texts, urls, max_entries=max_entries)
    with ProcessPool(2) as pool:
        Enricher(services, cache=cache, pool=pool)._precompute(dataset)
    assert cache.stats() == expected.stats()
    assert cache.export_entries() == expected.export_entries()


def test_bounded_cache_recomputes_a_subject_evicted_mid_fill(small_run):
    """A subject cached at peek time is not shipped; if storing the
    misses before it evicts it, the lookup pass recomputes it in the
    parent — with the right value and the serial fill's counters."""
    world, _, texts, _ = small_run
    services = build_enrichment_services(world)
    annotator = services.openai._annotator
    subjects = texts[:3]
    right = annotator.annotate("", subjects[2])
    cache = EnrichmentCache(max_entries=2)
    cache.seed([("openai", subjects[2], CacheEntry(EntryKind.VALUE, right))])
    pool = _RecordingPool()
    Enricher(services, cache=cache, pool=pool)._fill(
        "openai", subjects, pool, AnnotateShardTask(annotator))
    assert sorted(pool.shipped[0][1]) == sorted(subjects[:2])
    assert cache.peek("openai", subjects[2]).value == right
    assert cache.stats()["services"]["openai"] == {
        "hits": 0, "misses": 3, "stores": 3, "evictions": 2, "seeded": 1}
