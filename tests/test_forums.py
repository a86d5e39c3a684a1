"""Tests for the forum services and their API semantics."""

import datetime as dt
import math
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.errors import QuotaExhausted, ServiceUnavailable, ValidationError
from repro.forums.base import COLLECTION_KEYWORDS, ForumService, Post
from repro.forums.base_meter import ForumMeter
from repro.forums.pastebin import (
    ANALYST_USER,
    PastebinService,
    format_paste,
    parse_paste,
)
from repro.forums.reddit import RedditService
from repro.forums.smishingeu import SHUTDOWN_DATE, SmishingEuService
from repro.forums.smishtank import SmishtankService
from repro.forums.twitter import (
    ACADEMIC_API_SHUTDOWN,
    REALTIME_START,
    TwitterService,
)
from repro.types import Forum


def _post(forum, post_id, when, body, **kwargs):
    return Post(
        post_id=post_id, forum=forum, author="user",
        created_at=when, body=body, **kwargs,
    )


T0 = dt.datetime(2022, 1, 1, 12, 0)


@dataclass
class _CountingPost(Post):
    """A post that counts reads of the fields a search examines."""

    reads = Counter()

    def __getattribute__(self, name):
        if name in ("created_at", "deleted"):
            _CountingPost.reads[
                object.__getattribute__(self, "post_id"), name] += 1
        return object.__getattribute__(self, name)


class TestForumBase:
    def make_twitter(self, n=5):
        service = TwitterService()
        for i in range(n):
            service.add_post(_post(
                Forum.TWITTER, f"t{i}", T0 + dt.timedelta(days=i),
                f"smishing report {i}",
            ))
        return service

    def test_add_and_len(self):
        assert len(self.make_twitter(3)) == 3

    def test_wrong_forum_rejected(self):
        service = TwitterService()
        with pytest.raises(ValidationError):
            service.add_post(_post(Forum.REDDIT, "r1", T0, "x"))

    def test_duplicate_id_rejected(self):
        service = self.make_twitter(1)
        with pytest.raises(ValidationError):
            service.add_post(_post(Forum.TWITTER, "t0", T0, "y"))

    def test_keyword_search_case_insensitive(self):
        service = self.make_twitter()
        page = service.search("SMISHING")
        assert len(page.posts) == 5

    def test_search_window(self):
        service = self.make_twitter()
        page = service.search(
            "smishing",
            since=T0 + dt.timedelta(days=1),
            until=T0 + dt.timedelta(days=3),
        )
        assert [p.post_id for p in page.posts] == ["t1", "t2"]

    def test_pagination(self):
        service = TwitterService()
        service.page_size = 3
        for i in range(8):
            service.add_post(_post(Forum.TWITTER, f"t{i}", T0, "sms scam"))
        first = service.search("sms scam")
        assert len(first.posts) == 3
        assert not first.exhausted
        rest = service.search_all("sms scam")
        assert len(rest) == 8

    def test_draining_a_window_examines_each_post_once(self):
        """Paging is linear: over n and 4n posts, every post inside the
        since/until window is examined at most once across the whole
        drain, posts outside it never, and no page reads more post
        timestamps than its two bisections would."""
        for n in (200, 800):
            service = TwitterService()
            service.page_size = 10
            service.add_posts(_CountingPost(
                post_id=f"t{i:04d}", forum=Forum.TWITTER, author="user",
                created_at=T0 + dt.timedelta(hours=i),
                body="sms scam" if i % 2 else "hello",
            ) for i in range(n))
            service.all_posts()  # sort once, outside the count
            since = T0 + dt.timedelta(hours=n // 4)
            until = T0 + dt.timedelta(hours=3 * n // 4)
            _CountingPost.reads.clear()
            pages = 0
            cursor = None
            while True:
                page = service.search("sms scam", since=since, until=until,
                                      cursor=cursor)
                pages += 1
                if page.exhausted:
                    break
                cursor = page.next_cursor
            examined = {post_id: count for (post_id, name), count
                        in _CountingPost.reads.items() if name == "deleted"}
            window = {f"t{i:04d}" for i in range(n // 4, 3 * n // 4)}
            assert set(examined) == window
            assert max(examined.values()) == 1
            timestamp_reads = sum(
                count for (_, name), count in _CountingPost.reads.items()
                if name == "created_at")
            assert pages == n // 40 + 1
            assert timestamp_reads <= pages * 2 * math.ceil(math.log2(n + 1))

    def test_deleted_posts_hidden(self):
        service = self.make_twitter()
        service.delete_post("t0")
        page = service.search("smishing")
        assert all(p.post_id != "t0" for p in page.posts)

    def test_deleted_visible_when_requested(self):
        service = self.make_twitter()
        service.delete_post("t0")
        page = service.search("smishing", include_deleted=True)
        assert any(p.post_id == "t0" for p in page.posts)

    def test_meter_counts_requests(self):
        service = self.make_twitter()
        before = service.meter.used
        service.search("smishing")
        assert service.meter.used == before + 1

    def test_meter_cap_enforced(self):
        service = TwitterService(meter=ForumMeter(service="t", cap=2))
        service.add_post(_post(Forum.TWITTER, "t0", T0, "smishing"))
        service.search("smishing")
        service.search("smishing")
        with pytest.raises(QuotaExhausted):
            service.search("smishing")

    def test_collection_keywords_match_paper(self):
        assert set(COLLECTION_KEYWORDS) == {
            "smishing", "phishing sms", "sms scam", "sms fraud"
        }


class TestTwitterShutdown:
    def test_archive_search_before_shutdown(self):
        service = TwitterService()
        service.add_post(_post(Forum.TWITTER, "t1", T0, "smishing"))
        service.query_time = REALTIME_START
        page = service.full_archive_search(
            "smishing", since=T0 - dt.timedelta(days=1),
            until=T0 + dt.timedelta(days=1),
        )
        assert len(page.posts) == 1

    def test_archive_search_after_shutdown_raises(self):
        service = TwitterService()
        service.query_time = ACADEMIC_API_SHUTDOWN
        with pytest.raises(ServiceUnavailable) as excinfo:
            service.full_archive_search("smishing", since=T0, until=T0)
        assert excinfo.value.permanent

    def test_realtime_sees_later_deleted_posts(self):
        service = TwitterService()
        service.add_post(_post(Forum.TWITTER, "t1", T0, "smishing"))
        service.delete_post("t1")
        service.query_time = REALTIME_START
        page = service.realtime_search(
            "smishing", since=T0 - dt.timedelta(days=1),
            until=T0 + dt.timedelta(days=1),
        )
        assert len(page.posts) == 1

    def test_fetch_original(self):
        service = TwitterService()
        original = _post(Forum.TWITTER, "t1", T0, "look at this")
        reply = _post(Forum.TWITTER, "t2", T0, "that's smishing",
                      in_reply_to="t1")
        service.add_posts([original, reply])
        assert service.fetch_original(reply).post_id == "t1"
        assert service.fetch_original(original) is None


class TestReddit:
    def test_subreddit_listing(self):
        service = RedditService()
        service.add_post(_post(Forum.REDDIT, "r1", T0, "sms scam",
                               subreddit="Scams"))
        service.add_post(_post(Forum.REDDIT, "r2", T0, "sms scam",
                               subreddit="phishing"))
        assert [p.post_id for p in service.posts_in_subreddit("Scams")] == ["r1"]

    def test_subreddit_counts(self):
        service = RedditService()
        for i in range(3):
            service.add_post(_post(Forum.REDDIT, f"r{i}", T0, "x",
                                   subreddit="Scams"))
        assert service.subreddit_counts() == {"Scams": 3}


class TestSmishingEu:
    def test_scrape_before_shutdown(self):
        service = SmishingEuService()
        service.add_post(_post(Forum.SMISHING_EU, "e1", T0, "report"))
        posts = service.scrape(dt.date(2023, 1, 2))
        assert len(posts) == 1

    def test_scrape_after_shutdown_raises(self):
        service = SmishingEuService()
        with pytest.raises(ServiceUnavailable):
            service.scrape(SHUTDOWN_DATE)

    def test_scrape_only_past_reports(self):
        service = SmishingEuService()
        service.add_post(_post(Forum.SMISHING_EU, "e1",
                               dt.datetime(2023, 5, 1), "later report"))
        assert service.scrape(dt.date(2023, 1, 2)) == []

    def test_weekly_dates_are_mondays(self):
        service = SmishingEuService()
        dates = service.weekly_scrape_dates(dt.date(2022, 11, 28),
                                            dt.date(2023, 12, 31))
        assert dates
        assert all(d.weekday() == 0 for d in dates)
        assert all(d < SHUTDOWN_DATE for d in dates)


class TestPastebin:
    def test_paste_round_trip(self):
        body = format_paste("+447700900123", dt.datetime(2022, 3, 1, 9, 30),
                            "Your parcel is held: evil.com/pay")
        parsed = parse_paste(body)
        assert parsed.sender == "+447700900123"
        assert parsed.received == "2022-03-01 09:30"
        assert "evil.com/pay" in parsed.message

    def test_parse_garbage_raises(self):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            parse_paste("whatever unstructured text")

    def test_pastes_by_user(self):
        service = PastebinService()
        service.add_post(_post(Forum.PASTEBIN, "p1", T0, "body",))
        analyst_post = Post(
            post_id="p2", forum=Forum.PASTEBIN, author=ANALYST_USER,
            created_at=T0, body="body",
        )
        service.add_post(analyst_post)
        assert [p.post_id for p in service.pastes_by_user(ANALYST_USER)] == ["p2"]


class TestSmishtank:
    def test_list_reports_window(self):
        service = SmishtankService()
        service.add_post(_post(Forum.SMISHTANK, "s1", T0, "report"))
        service.add_post(_post(Forum.SMISHTANK, "s2",
                               T0 + dt.timedelta(days=400), "report"))
        posts = service.list_reports(
            since=T0 - dt.timedelta(days=1),
            until=T0 + dt.timedelta(days=1),
        )
        assert [p.post_id for p in posts] == ["s1"]

    def test_list_reports_no_keyword_needed(self):
        service = SmishtankService()
        service.add_post(_post(Forum.SMISHTANK, "s1", T0,
                               "no keywords here at all"))
        assert len(service.list_reports()) == 1
