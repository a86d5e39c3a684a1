"""Shared fixtures: one small world and one pipeline run per session.

Building a world and running the full pipeline takes a couple of seconds;
tests share session-scoped instances and must treat them as read-only.
Tests that mutate state build their own objects.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict

import pytest
from hypothesis import settings

from repro.cli import main
from repro.core.pipeline import PipelineRun, run_pipeline
from repro.errors import SimulatedCrash
from repro.investigate import run_investigation
from repro.world.scenario import ScenarioConfig, World, build_world

#: ``pytest --hypothesis-profile=ci`` (scripts/ci.sh): the same example
#: budget as the default profile, drawn from a fixed seed so a property
#: failure (such as the brand-NER oracle test) reproduces run to run.
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture(scope="session")
def world() -> World:
    """A small but fully populated synthetic world (read-only)."""
    return build_world(ScenarioConfig(seed=7726, n_campaigns=60))


@pytest.fixture(scope="session")
def pipeline_run(world) -> PipelineRun:
    """One full collect→curate→enrich run over the shared world."""
    return run_pipeline(world)


@pytest.fixture(scope="session")
def enriched(pipeline_run):
    return pipeline_run.enriched


@pytest.fixture()
def rng() -> random.Random:
    """A fresh deterministic RNG per test."""
    return random.Random(1234)


@pytest.fixture(scope="session")
def durable_dirs(tmp_path_factory) -> Dict[str, Path]:
    """One killed, resumable directory of every durable kind, each past
    its first commit (read-only: copy one before tampering with it)."""
    root = tmp_path_factory.mktemp("durable")
    small = ["--seed", "7", "--campaigns", "5", "--quiet"]
    killed = [
        small + ["--faults", "flaky", "--checkpoint-dir", str(root / "batch"),
                 "--crash-at", "whois:3", "stats"],
        small + ["--crash-at", "whois:2", "watch", "--epochs", "2",
                 "--crash-epoch", "1", "--stream-dir", str(root / "stream")],
        small + ["serve", "--requests", "200", "--reporters", "40",
                 "--commit-every", "50", "--serve-dir", str(root / "serve"),
                 "--kill-at", "120"],
    ]
    for argv in killed:
        assert main(argv) == 75, argv
    with pytest.raises(SimulatedCrash):
        run_investigation(ScenarioConfig(seed=7, n_campaigns=12,
                                         apk_campaign_fraction=0.5),
                          sample=80, invest_dir=root / "investigate",
                          kill_at=1)
    return {kind: root / kind
            for kind in ("batch", "stream", "serve", "investigate")}
