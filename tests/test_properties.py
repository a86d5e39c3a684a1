"""Property-based tests (hypothesis) on core data structures & invariants."""

import datetime as dt
import random
import string
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (
    EnrichmentCache,
    ProcessPool,
    SerialPool,
    shard,
)
from repro.nlp.brands_ner import _MAX_SCAN_TOKENS, BrandRecognizer
from repro.nlp.normalize import (
    MAX_NORMALIZE_CHARS,
    batch_normalize,
    batch_squash,
    normalize_text,
    squash,
)
from repro.imaging.screenshot import word_wrap
from repro.net.ipaddr import IPv4
from repro.net.url import Url, defang, parse_url, refang
from repro.sms.gsm import (
    is_gsm_text,
    pack_septets,
    segment_count,
    septet_length,
    split_segments,
    unpack_septets,
)
from repro.sms.senderid import normalize_phone, try_classify_sender_id
from repro.core.anonymize import scrub_text
from repro.core.collection import CollectionResult, RawReport
from repro.core.dataset import SmishingRecord, normalise_message_key
from repro.stream import (
    DedupLedger,
    EpochWindow,
    WatermarkStore,
    content_hash,
)
from repro.types import Forum
from repro.utils.rng import WeightedSampler, partition_count, stable_hash
from repro.utils.stats import cohens_kappa, ks_two_sample, median
from tests.ner_reference import _reference_find_all

GSM_SAFE = st.text(
    alphabet=string.ascii_letters + string.digits + " .,!?@£$-:/()'",
    min_size=0, max_size=400,
)


class TestGsmProperties:
    @given(GSM_SAFE)
    def test_split_segments_reassembles(self, text):
        assert "".join(split_segments(text)) == text

    @given(GSM_SAFE)
    def test_segment_count_matches_split(self, text):
        assert segment_count(text) == max(1, len(split_segments(text)))

    @given(GSM_SAFE.filter(lambda t: t != ""))
    def test_septet_pack_round_trip(self, text):
        if is_gsm_text(text):
            packed = pack_septets(text)
            assert unpack_septets(packed, septet_length(text)) == text

    @given(GSM_SAFE)
    def test_packed_size_bound(self, text):
        if is_gsm_text(text):
            septets = septet_length(text)
            assert len(pack_septets(text)) == (septets * 7 + 7) // 8


class TestUrlProperties:
    hosts = st.from_regex(r"[a-z][a-z0-9]{0,10}(\.[a-z][a-z0-9]{0,10}){0,2}"
                          r"\.(com|net|org|info|ly|in|xyz)", fullmatch=True)
    paths = st.from_regex(r"(/[a-zA-Z0-9._-]{0,12}){0,3}", fullmatch=True)

    @given(hosts, paths)
    def test_parse_str_round_trip(self, host, path):
        url = parse_url(f"https://{host}{path}")
        assert parse_url(str(url)) == url

    @given(hosts, paths)
    def test_defang_refang_inverse(self, host, path):
        original = f"https://{host}{path}"
        assert refang(defang(parse_url(original))) == original

    @given(hosts)
    def test_host_always_lowercase(self, host):
        url = parse_url("HTTPS://" + host.upper())
        assert url.host == url.host.lower()


class TestIPv4Properties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_parse_str_round_trip(self, value):
        address = IPv4(value)
        assert IPv4.parse(str(address)) == address

    @given(st.integers(min_value=0, max_value=2**32 - 2))
    def test_ordering_consistent(self, value):
        assert IPv4(value) < IPv4(value + 1)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=10_000),
           st.dictionaries(st.text(min_size=1, max_size=5),
                           st.floats(min_value=0.01, max_value=100),
                           min_size=1, max_size=8),
           st.integers(min_value=0, max_value=2**31))
    def test_partition_count_sums(self, total, weights, seed):
        counts = partition_count(random.Random(seed), total, weights)
        assert sum(counts.values()) == total
        assert all(v >= 0 for v in counts.values())

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.floats(min_value=0.01, max_value=10),
                           min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**31))
    def test_sampler_only_returns_known_outcomes(self, weights, seed):
        sampler = WeightedSampler(weights)
        rng = random.Random(seed)
        for _ in range(20):
            assert sampler.sample(rng) in weights

    @given(st.text(max_size=50))
    def test_stable_hash_in_range(self, text):
        assert 0 <= stable_hash(text) < 2**32


class TestStatsProperties:
    labels = st.lists(st.sampled_from("abcd"), min_size=1, max_size=200)

    @given(labels)
    def test_kappa_self_agreement_is_one(self, seq):
        assert cohens_kappa(seq, seq) == pytest.approx(1.0)

    @given(labels, st.integers(min_value=0, max_value=2**31))
    def test_kappa_bounded(self, seq, seed):
        rng = random.Random(seed)
        other = [rng.choice("abcd") for _ in seq]
        kappa = cohens_kappa(seq, other)
        assert -1.0001 <= kappa <= 1.0001

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=100))
    def test_median_between_min_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=5, max_size=100),
           st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=5, max_size=100))
    def test_ks_statistic_bounded(self, a, b):
        result = ks_two_sample(a, b)
        assert 0.0 <= result.statistic <= 1.0
        assert 0.0 <= result.pvalue <= 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=5, max_size=60))
    def test_ks_symmetric(self, a):
        shifted = [x + 0.1 for x in a]
        assert ks_two_sample(a, shifted).statistic == pytest.approx(
            ks_two_sample(shifted, a).statistic
        )


class TestWordWrapProperties:
    @given(st.text(alphabet=string.ascii_letters + " ", max_size=300),
           st.integers(min_value=8, max_value=60))
    def test_rows_respect_width(self, text, width):
        for row, _ in word_wrap(text, width):
            assert len(row) <= width

    @given(st.text(alphabet=string.ascii_letters + " ", max_size=300),
           st.integers(min_value=8, max_value=60))
    def test_content_preserved(self, text, width):
        rows = word_wrap(text, width)
        rebuilt = ""
        for row, continuation in rows:
            rebuilt += row if continuation else (" " + row)
        original_words = text.split()
        assert rebuilt.split() == [w for w in original_words if w]


class TestSenderIdProperties:
    @given(st.from_regex(r"\+?[0-9]{7,15}", fullmatch=True))
    def test_digit_strings_classify_as_phone(self, raw):
        sender = try_classify_sender_id(raw)
        assert sender is not None
        assert sender.digits == raw.lstrip("+")

    @given(st.from_regex(r"[A-Z]{3,11}", fullmatch=True))
    def test_letter_strings_classify_as_alnum(self, raw):
        sender = try_classify_sender_id(raw)
        assert sender is not None
        assert sender.normalized == raw.lower()

    @given(st.text(max_size=30))
    def test_classification_never_crashes(self, raw):
        try_classify_sender_id(raw)  # must not raise

    @given(st.from_regex(r"\+?[0-9() .-]{7,20}", fullmatch=True))
    def test_normalize_phone_idempotent(self, raw):
        once = normalize_phone(raw)
        assert normalize_phone(once) == once


class TestAnonymizationProperties:
    @given(st.text(alphabet=string.printable, max_size=200))
    def test_scrub_idempotent(self, text):
        once = scrub_text(text)
        assert scrub_text(once) == once

    @given(st.text(alphabet=string.ascii_lowercase + " ", max_size=100))
    def test_scrub_preserves_plain_words(self, text):
        assert scrub_text(text) == text


def _affine(value):
    """Module-level process-pool tasks: picklable by name."""
    return value * 31 + 7


def _affine_chunk(chunk):
    return [_affine(value) for value in chunk]


def _finish_at(item):
    index, delay = item
    time.sleep(delay)
    return index


def _fail_for(item):
    index, failures = item
    if index in failures:
        raise ValueError(f"task-{index}")
    return index


@pytest.fixture(scope="module")
def process_pool():
    """One 6-worker process pool shared by every hypothesis example."""
    with ProcessPool(6) as pool:
        yield pool


class TestExecutionEngineProperties:
    """The engine's invariants: stable cache keys, canonical merges,
    and idempotent (zero-recompute) second passes."""

    subjects = st.lists(st.text(min_size=1, max_size=20), min_size=1,
                        max_size=30, unique=True)
    services = st.sampled_from(["openai", "virustotal", "whois", "hlr"])

    @given(subjects, services)
    def test_cache_key_stability_and_isolation(self, subjects, service):
        # Same (service, subject) always lands on the same entry;
        # distinct subjects never collide — each gets its own value back.
        cache = EnrichmentCache()
        for index, subject in enumerate(subjects):
            cache.put_value(service, subject, index)
        for index, subject in enumerate(subjects):
            assert cache.get(service, subject).value == index
            assert cache.peek(service, subject).value == index

    @given(subjects)
    def test_cache_keys_do_not_collide_across_services(self, subjects):
        cache = EnrichmentCache()
        for subject in subjects:
            cache.put_value("whois", subject, "w:" + subject)
            cache.put_value("hlr", subject, "h:" + subject)
        for subject in subjects:
            assert cache.get("whois", subject).value == "w:" + subject
            assert cache.get("hlr", subject).value == "h:" + subject

    @given(st.permutations(list(range(6))))
    @settings(max_examples=12, deadline=None)
    def test_merge_order_canonical_under_shuffled_completion(
            self, process_pool, order):
        # Tasks are *finished* in an arbitrary permutation (each sleeps
        # in proportion to its rank in it, one worker apiece), yet the
        # merged result must always be in submission order.
        delays = [0.01 * order.index(i) for i in range(len(order))]
        merged = process_pool.map(_finish_at, list(enumerate(delays)))
        assert merged == list(range(len(order)))

    @given(st.lists(st.integers(), max_size=40),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_process_pool_equals_serial_pool(self, process_pool, items,
                                             shards):
        serial = SerialPool().map(_affine, items)
        assert process_pool.map(_affine, items) == serial
        chunks = shard(items, shards)
        assert process_pool.map(_affine_chunk, chunks) == \
            SerialPool().map(_affine_chunk, chunks)

    @given(st.lists(st.integers(), max_size=60),
           st.integers(min_value=1, max_value=9))
    def test_shard_round_robin_order_preserving_and_loss_free(self, items,
                                                              shards):
        # Tag every item with its submission index so duplicates stay
        # distinguishable, then check the partition/merge contract the
        # process pool's precompute path relies on.
        indexed = list(enumerate(items))
        chunks = shard(indexed, shards)
        assert len(chunks) == min(shards, len(indexed))
        sizes = [len(chunk) for chunk in chunks]
        if sizes:
            assert max(sizes) - min(sizes) <= 1  # balanced within one
        for chunk in chunks:
            indices = [index for index, _ in chunk]
            assert indices == sorted(indices)  # each shard a subsequence
        merged = [item for chunk in chunks for item in chunk]
        assert sorted(merged) == sorted(indexed)  # loss-free permutation
        assert shard(indexed, shards) == chunks  # deterministic repartition

    @given(st.sets(st.integers(min_value=0, max_value=11), min_size=1))
    @settings(max_examples=20, deadline=None)
    def test_pool_merge_reraises_lowest_indexed_failure(self, process_pool,
                                                        failures):
        with pytest.raises(ValueError) as excinfo:
            process_pool.map(_fail_for, [(i, frozenset(failures))
                                         for i in range(12)])
        assert str(excinfo.value) == f"task-{min(failures)}"

    @given(st.lists(st.tuples(services, st.text(min_size=1, max_size=12)),
                    min_size=1, max_size=40))
    def test_cache_idempotence_second_pass_computes_nothing(self, batch):
        cache = EnrichmentCache()
        computes = []

        def run_batch():
            for service, subject in batch:
                cache.lookup(service, subject,
                             lambda: computes.append((service, subject)))

        run_batch()
        first_pass = len(computes)
        assert first_pass == len(set(batch))  # one compute per unique key
        run_batch()
        assert len(computes) == first_pass  # second pass: zero computes


class TestBatchNormalizeProperties:
    """The columnar hot path's one-pass normalisation must agree with
    the per-record reference on arbitrary unicode — including inputs
    containing the batch sentinel's record separator, which take the
    per-record fallback."""

    texts = st.lists(st.text(max_size=80), max_size=25)

    @given(texts)
    def test_batch_normalize_matches_per_record(self, texts):
        assert batch_normalize(texts) == [normalize_text(t) for t in texts]

    @given(texts)
    def test_batch_squash_matches_per_record(self, texts):
        assert batch_squash(texts) == [squash(t) for t in texts]

    @given(st.lists(st.text(max_size=40), min_size=1, max_size=10),
           st.data())
    def test_sentinel_bearing_inputs_take_the_fallback(self, texts, data):
        # Splice the record separator into a random subset of inputs;
        # equality with the per-record path must survive regardless.
        spiked = []
        for text in texts:
            if data.draw(st.booleans()):
                cut = data.draw(st.integers(min_value=0,
                                            max_value=len(text)))
                text = text[:cut] + "\x1e" + text[cut:]
            spiked.append(text)
        assert batch_normalize(spiked) == [normalize_text(t)
                                           for t in spiked]
        assert batch_squash(spiked) == [squash(t) for t in spiked]


class TestHostileUnicodeProperties:
    """Quarantine-era guarantees on the NLP hot paths: the batch and
    per-record normalisers agree on *adversarial* unicode (zero-width
    splices, RTL overrides, replacement-char mojibake), and the length
    budgets keep even megabyte single-token inputs bounded."""

    _HOSTILE_ALPHABET = (string.ascii_letters + " .!?"
                         + "​‌‍⁠"   # zero-width
                         + "‪‫‭‮"   # bidi overrides
                         + "⁦⁧⁩"         # bidi isolates
                         + "�﻿")              # mojibake, BOM
    hostile_texts = st.lists(
        st.text(alphabet=_HOSTILE_ALPHABET, max_size=120), max_size=15)

    @given(hostile_texts)
    def test_batch_normalize_matches_per_record_on_hostile_unicode(
            self, texts):
        assert batch_normalize(texts) == [normalize_text(t) for t in texts]

    @given(hostile_texts)
    def test_batch_squash_matches_per_record_on_hostile_unicode(self, texts):
        assert batch_squash(texts) == [squash(t) for t in texts]

    @given(st.integers(min_value=MAX_NORMALIZE_CHARS - 2,
                       max_value=MAX_NORMALIZE_CHARS + 2))
    def test_normalize_truncates_exactly_at_the_budget(self, length):
        text = "a" * length
        expected = normalize_text(text[:MAX_NORMALIZE_CHARS])
        assert normalize_text(text) == expected
        assert batch_normalize([text]) == [expected]

    def test_megabyte_single_token_is_bounded_and_consistent(self):
        """A 1MB whitespace-free token — the classic regex-budget bomb —
        must terminate under the truncation cap on both paths, with the
        batch path agreeing with the reference."""
        bomb = "x" * 1_000_000
        texts = [bomb, "verify your account at example.com", bomb + " tail"]
        assert batch_normalize(texts) == [normalize_text(t) for t in texts]
        assert batch_squash(texts) == [squash(t) for t in texts]
        assert len(normalize_text(bomb)) <= MAX_NORMALIZE_CHARS

    def test_brand_scan_token_budget_is_enforced(self):
        """`find_all` scans at most its token cap: a brand mention
        buried beyond the budget is (deliberately) not found, and the
        scan completes instead of blowing up combinatorially."""
        recognizer = BrandRecognizer()
        in_budget = "junk " * 100 + " your PayPal account is locked"
        assert any(m.brand.lower() == "paypal"
                   for m in recognizer.find_all(in_budget))
        flood = "junk " * 25_000 + " your PayPal account is locked"
        assert recognizer.find_all(flood) == []

    @given(st.text(alphabet=_HOSTILE_ALPHABET, max_size=300))
    def test_sanitizer_screen_never_raises(self, body):
        from repro.core.quarantine import QUARANTINE_REASONS, Sanitizer

        report = RawReport(forum=Forum.REDDIT, post_id="p1", author="u",
                           posted_at=dt.datetime(2022, 9, 1), body=body)
        verdict = Sanitizer().screen(report)
        assert verdict is None or verdict.reason in QUARANTINE_REASONS


class TestBrandNerOracleProperties:
    """``BrandRecognizer.find_all`` builds window keys from per-token
    keys and prunes on lexicon prefixes; it must return exactly what the
    window-by-window reference walk (``tests.ner_reference``) returns."""

    #: Text pieces that stress every matching rule: letter-free and
    #: digit-only tokens beside words, leet digits and homoglyphs, Greek
    #: sigma forms and combining marks, URLs with brand host labels,
    #: ``http``-prefixed tokens, multi-word and short aliases.
    _PIECES = (
        "7", "eleven", "7 eleven", "!! netflix", "e 3", "at 0", "sb 1",
        "h 5 bc", "3", "1", "5", "!!", "!", "netflix", "N3tfl!x", "nf",
        "NETFL1X", "0", "2", "o2", "O", "ee", "e", "sbi", "5B1", "ups",
        "dhl", "fb", "amz", "p4yp@l", "paypal", "Amaz0n", "amazon",
        "royal", "mail", "r0yal", "m4il", "state", "bank", "of", "india",
        "st4te", "0f", "santander", "san", "tander", "at&t", "at", "t",
        "t-mobile", "three", "uk", "hmrc", "gov", "g0v.uk", "Σ", "σ", "ς",
        "ΑΣ", "e\u0301", "\u0301", "café", "ℓ", "аmazon", "İ", "ß", "ﬃ",
        "‼", "'", "_", "€", "$", "|", "£", "123456", "1.5", "..",
        "http", "https://", "http://netflix.com", "httpnetflix",
        "netflix.com-billing.xyz", "https://royalmail.co.uk-fee.info/pay",
        "www.paypal.com/x", "sbi.co.in", "pay/now", "a/b", "ee.co.uk",
    )
    _SEPARATORS = ("", " ", " ", " ", "\n", "-", ".", "/", ", ", ": ")

    ner_texts = st.lists(
        st.tuples(st.sampled_from(_PIECES), st.sampled_from(_SEPARATORS)),
        max_size=24,
    ).map(lambda parts: "".join(piece + sep for piece, sep in parts))

    _CHARS = ("netflixamzopyhdsbriu0123457@!$|€ΣσςΑа .-/:'"
              + "\u0301\u0308ﬃ‼ொா")

    @pytest.fixture(scope="class")
    def recognizer(self):
        return BrandRecognizer()

    @given(ner_texts)
    def test_find_all_matches_the_reference_walk(self, recognizer, text):
        assert recognizer.find_all(text) == \
            _reference_find_all(recognizer, text)

    @given(st.text(alphabet=_CHARS, max_size=60))
    def test_find_all_matches_the_reference_on_raw_characters(
            self, recognizer, text):
        assert recognizer.find_all(text) == \
            _reference_find_all(recognizer, text)

    def test_letter_free_tokens_fold_only_beside_a_word(self, recognizer):
        """``squash`` decides leet mapping on the joined window: "3"
        reads as "e" next to "e", so "e 3" is EE, while "3 3" stays
        digits."""
        for text, brands in (("e 3", ["EE"]), ("at 0", ["ATO"]),
                             ("h 5 bc", ["HSBC"]), ("3 3", []),
                             ("!! netflix", ["Netflix"])):
            matches = recognizer.find_all(text)
            assert [m.brand for m in matches] == brands, text
            assert matches == _reference_find_all(recognizer, text)

    def test_window_beyond_the_normalise_cap_takes_exact_squash(
            self, recognizer):
        """Two tokens whose join outgrows ``MAX_NORMALIZE_CHARS`` (each
        Tamil vowel sign decomposes into two non-alphanumeric marks):
        ``squash`` truncates the join right after "flix", so the window
        is Netflix, although the token keys concatenate to
        "netflixzzz"."""
        text = "net" + "\u0bca" * 32_764 + "\u0bbe flixzzz"
        assert len(text) <= MAX_NORMALIZE_CHARS
        expected = _reference_find_all(recognizer, text)
        assert [m.brand for m in expected] == ["Netflix"]
        assert recognizer.find_all(text) == expected

    def test_token_flood_matches_the_reference(self, recognizer):
        flood = "royal mail 7 eleven N3tfl!x " * (_MAX_SCAN_TOKENS // 5) \
            + "your PayPal account"
        matches = recognizer.find_all(flood)
        assert matches == _reference_find_all(recognizer, flood)
        assert matches and "PayPal" not in {m.brand for m in matches}
        assert max(m.start_token for m in matches) < _MAX_SCAN_TOKENS

    def test_matches_the_reference_on_every_annotated_text(
            self, monkeypatch):
        """Every text the annotator scans in a 120-campaign world."""
        from repro.core.pipeline import run_pipeline
        from repro.world.scenario import ScenarioConfig, build_world

        scanned = []
        find_all = BrandRecognizer.find_all

        def spy(self, text):
            scanned.append((self, text))
            return find_all(self, text)

        monkeypatch.setattr(BrandRecognizer, "find_all", spy)
        run_pipeline(build_world(ScenarioConfig(seed=7726,
                                                n_campaigns=120)))
        monkeypatch.undo()
        assert len(scanned) > 1_000
        for recognizer, text in scanned:
            assert recognizer.find_all(text) == \
                _reference_find_all(recognizer, text), text


class TestDatasetKeyProperties:
    @given(st.text(max_size=100))
    def test_key_idempotent(self, text):
        key = normalise_message_key(text)
        assert normalise_message_key(key) == key

    @given(st.text(alphabet=string.ascii_letters + string.digits +
                   " .,!?@#éüñàößç", max_size=100))
    def test_key_case_insensitive(self, text):
        # Restricted to alphabets with two-way case mappings; one-way
        # mappings (Turkish dotless i) are out of scope for dedup keys.
        assert normalise_message_key(text.upper()) == \
            normalise_message_key(text.lower())


class TestStreamWatermarkProperties:
    """Re-presenting already-ingested material must be a no-op."""

    reports = st.lists(
        st.tuples(
            st.sampled_from(list(Forum)),
            st.from_regex(r"p[0-9]{1,4}", fullmatch=True),
            st.integers(min_value=0, max_value=120),  # days into window
        ),
        min_size=1, max_size=40,
    )

    @staticmethod
    def _collection(entries):
        # A post id names one post: re-sightings of the same (forum, id)
        # must carry the same timestamp, as real collectors guarantee.
        base = dt.datetime(2020, 1, 1)
        canonical_days = {}
        for forum, pid, days in entries:
            canonical_days.setdefault((forum, pid), days)
        result = CollectionResult()
        result.reports = [
            RawReport(forum=forum, post_id=pid, author="u",
                      posted_at=base + dt.timedelta(
                          days=canonical_days[(forum, pid)]),
                      body=f"report {pid}")
            for forum, pid, _ in entries
        ]
        return result

    @given(reports)
    @settings(max_examples=40, deadline=None)
    def test_unchanged_watermark_reingest_is_noop(self, entries):
        epoch = EpochWindow(index=0, start=dt.datetime(2020, 1, 1),
                            end=dt.datetime(2020, 3, 1))
        store = WatermarkStore()
        collection = self._collection(entries)
        first = store.filter_epoch(collection, epoch)
        store.commit(first, epoch)
        before = store.to_dict()

        again = store.filter_epoch(collection, epoch)
        assert again.result.reports == []
        # Every previously-kept report now reads as seen, and so do the
        # within-collection duplicates that were dropped the first time.
        assert again.seen_dropped == (len(first.result.reports)
                                      + first.seen_dropped)
        assert again.deferred == first.deferred
        # And committing the empty re-ingest changes nothing durable.
        store.commit(again, epoch)
        assert store.to_dict() == before

    @given(reports)
    @settings(max_examples=40, deadline=None)
    def test_filter_never_duplicates_a_post_id(self, entries):
        epoch = EpochWindow(index=0, start=dt.datetime(2020, 1, 1),
                            end=dt.datetime(2020, 3, 1))
        store = WatermarkStore()
        filtered = store.filter_epoch(self._collection(entries), epoch)
        keyed = [(r.forum, r.post_id) for r in filtered.result.reports]
        assert len(keyed) == len(set(keyed))


class TestStreamLedgerProperties:
    """The dedup division's *content* is order-insensitive: however the
    forums interleave their records, the same delta contents come out."""

    texts = st.lists(
        st.sampled_from(["msg alpha", "msg beta", "msg gamma",
                         "msg ALPHA", "msg  beta", "msg delta"]),
        min_size=1, max_size=25,
    )

    @staticmethod
    def _records(texts):
        forums = list(Forum)
        return [
            SmishingRecord(record_id=f"r{i:07d}",
                           forum=forums[i % len(forums)],
                           source_post_id=f"p{i}", text=text)
            for i, text in enumerate(texts)
        ]

    @given(texts, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_division_content_is_permutation_invariant(self, texts, rng):
        records = self._records(texts)
        shuffled = list(records)
        rng.shuffle(shuffled)

        base = DedupLedger().divide(records)
        other = DedupLedger().divide(shuffled)

        hashes = lambda division: {content_hash(r) for r in division.delta}
        assert hashes(base) == hashes(other)
        assert len(base.delta) == len(other.delta)
        assert len(base.duplicate_of) == len(other.duplicate_of)
        # Every duplicate points at a record carrying the same content.
        by_id = {r.record_id: r for r in records}
        for division in (base, other):
            for dup_id, canon_id in division.duplicate_of.items():
                assert content_hash(by_id[dup_id]) \
                    == content_hash(by_id[canon_id])

    @given(texts)
    @settings(max_examples=40, deadline=None)
    def test_commit_then_divide_finds_every_prior_sighting(self, texts):
        records = self._records(texts)
        ledger = DedupLedger()
        ledger.commit(ledger.divide(records).new_hashes)
        replay = ledger.divide(records)
        assert replay.delta == []
        assert set(replay.duplicate_of) == {r.record_id for r in records}


class TestPercentileDigestProperties:
    samples = st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    )

    @given(samples, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_quantiles_are_permutation_invariant(self, values, rng):
        from repro.obs.profile import PercentileDigest

        shuffled = list(values)
        rng.shuffle(shuffled)
        base, other = PercentileDigest(values), PercentileDigest(shuffled)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert base.quantile(q) == other.quantile(q)

    @given(samples)
    @settings(max_examples=60, deadline=None)
    def test_quantiles_are_monotone_and_bounded(self, values):
        from repro.obs.profile import PercentileDigest

        digest = PercentileDigest(values)
        qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
        answers = [digest.quantile(q) for q in qs]
        for lower, upper in zip(answers, answers[1:]):
            assert lower <= upper
        assert answers[0] == min(values)
        assert answers[-1] == max(values)
        assert all(digest.min <= a <= digest.max for a in answers)

    @given(samples, samples)
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_concatenation(self, left_values, right_values):
        from repro.obs.profile import PercentileDigest

        merged = PercentileDigest(left_values)
        merged.merge(PercentileDigest(right_values))
        combined = PercentileDigest(left_values + right_values)
        assert merged.count == combined.count
        for q in (0.0, 0.5, 0.9, 1.0):
            assert merged.quantile(q) == combined.quantile(q)


class TestRunHistoryProperties:
    @staticmethod
    def _record(tag):
        return {"command": "stats", "config_digest": "abc",
                "wall_seconds": float(tag), "tag": tag}

    @given(max_entries=st.integers(min_value=1, max_value=12),
           appended=st.integers(min_value=1, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_growth_is_bounded_and_newest_retained(self, tmp_path_factory,
                                                   max_entries, appended):
        from repro.obs.history import RunHistory

        directory = tmp_path_factory.mktemp("history")
        history = RunHistory(directory, max_entries=max_entries)
        for tag in range(appended):
            history.append(self._record(tag))
        records = history.load()
        # Bounded growth: never more than max_entries on disk.
        assert len(records) == min(appended, max_entries)
        # Last-N retention: exactly the newest appends, in order.
        kept = [record["tag"] for record in records]
        assert kept == list(range(appended))[-max_entries:]
        # Sequences stay monotonically increasing across rotations.
        sequences = [record["sequence"] for record in records]
        assert sequences == sorted(sequences)
        assert sequences[-1] == appended - 1

    @given(appended=st.integers(min_value=2, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_reopened_store_continues_sequence(self, tmp_path_factory,
                                               appended):
        from repro.obs.history import RunHistory

        directory = tmp_path_factory.mktemp("history")
        for tag in range(appended):
            # A fresh handle per append: the sequence is a property of
            # the ledger on disk, not of the Python object.
            RunHistory(directory, max_entries=5).append(self._record(tag))
        latest = RunHistory(directory, max_entries=5).latest()
        assert latest["sequence"] == appended - 1


class TestServeProperties:
    """Serve-layer invariants: the bounded queue really is bounded, the
    admission front door is a pure function of (seed, arrival order),
    and shed + accepted always partitions submitted."""

    _ops = st.lists(
        st.one_of(
            st.tuples(st.just("offer"), st.integers(0, 10_000)),
            st.tuples(st.just("take"), st.integers(1, 8)),
        ),
        min_size=1, max_size=120,
    )

    @staticmethod
    def _queue_item(index):
        from repro.serve import QueueItem

        return QueueItem(index=index, request_id=f"q{index:07d}",
                         reporter=f"rep-{index % 7:05d}",
                         post_index=index, enqueued_at=float(index),
                         deadline=None)

    @given(capacity=st.integers(min_value=1, max_value=16), ops=_ops)
    @settings(max_examples=60, deadline=None)
    def test_queue_never_exceeds_capacity(self, capacity, ops):
        from repro.serve import BoundedQueue

        queue = BoundedQueue(capacity)
        offered = accepted = 0
        for op, value in ops:
            if op == "offer":
                offered += 1
                if queue.offer(self._queue_item(value)):
                    accepted += 1
            else:
                queue.take(value)
            assert 0 <= queue.depth <= capacity
        assert queue.max_depth <= capacity
        assert queue.offered == offered
        assert queue.refused == offered - accepted

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           profile=st.sampled_from(("steady", "burst", "spike")))
    @settings(max_examples=25, deadline=None)
    def test_admission_is_deterministic_in_seed_and_order(self, seed,
                                                          profile):
        from repro.serve import (
            AdmissionController,
            AdmissionPolicy,
            LoadSpec,
            generate_schedule,
        )
        from repro.services.base import SimClock

        spec = LoadSpec(profile=profile, requests=80, reporters=12,
                        seed=seed)
        schedule = generate_schedule(spec, n_posts=30)

        def _decide():
            clock = SimClock()
            control = AdmissionController(
                AdmissionPolicy(reporter_rate=0.1, reporter_burst=2.0),
                clock)
            decisions = []
            for arrival in schedule:
                clock.advance(max(0.0, arrival.at - clock.now))
                hint = control.admit_reporter(arrival.reporter)
                if hint is None:
                    control.record_accept()
                decisions.append(hint)
            return decisions, control.state_dict()

        first, first_state = _decide()
        again, again_state = _decide()
        assert first == again
        assert first_state == again_state

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           capacity=st.integers(min_value=1, max_value=12),
           batch=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_shed_plus_accepted_equals_submitted(self, seed, capacity,
                                                 batch):
        """A pure front-door replay: every arrival is either accepted
        into the bounded queue or shed with a structured rejection —
        no third outcome, at any capacity or drain cadence."""
        from repro.serve import (
            AdmissionController,
            AdmissionPolicy,
            BoundedQueue,
            LoadSpec,
            generate_schedule,
        )
        from repro.services.base import SimClock

        spec = LoadSpec(profile="burst", requests=100, reporters=10,
                        seed=seed)
        clock = SimClock()
        control = AdmissionController(
            AdmissionPolicy(reporter_rate=0.05, reporter_burst=1.0), clock)
        queue = BoundedQueue(capacity)
        for arrival in generate_schedule(spec, n_posts=30):
            clock.advance(max(0.0, arrival.at - clock.now))
            if arrival.index % (batch + 1) == batch:
                queue.take(batch)
            hint = control.admit_reporter(arrival.reporter)
            if hint is not None:
                control.reject(arrival.request_id, arrival.reporter,
                               "rate_limited", "over budget",
                               mode="healthy", retry_after=hint)
                continue
            if not queue.offer(self._queue_item(arrival.index)):
                control.reject(arrival.request_id, arrival.reporter,
                               "queue_full", "bounded queue at capacity",
                               mode="healthy")
                continue
            control.record_accept()
        assert control.accepted + control.rejected == spec.requests
        assert len(control.rejections) == control.rejected
        assert (sum(control.rejected_by_reason.values())
                == control.rejected)


class TestStreamSessionNoopProperty:
    def test_rerun_of_caught_up_session_charges_nothing(self):
        """`run()` on a session with no pending epochs is a no-op:
        identical fingerprint, zero new charged calls on any service."""
        from repro.stream import StreamSession
        from repro.world.scenario import ScenarioConfig

        session = StreamSession.create(
            ScenarioConfig(seed=13, n_campaigns=4), epochs=2)
        first = session.run().fingerprint()
        charged = {name: meter.snapshot()["used"]
                   for name, meter in session.services.meters().items()}

        second = session.run().fingerprint()
        recharged = {name: meter.snapshot()["used"]
                     for name, meter in session.services.meters().items()}
        assert second == first
        assert recharged == charged
