"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload batch-480 --seed 7726 \
        --seconds 25 --trace 0

Run from the repository root. ``--seed`` fixes the inputs: iteration ``i``
of a run builds its world from :func:`world_seed` ``(seed, i)``, so a
run averages over distinct worlds and the same seed always covers the
same ones. ``--trace 0`` runs iterations until ``--seconds`` have passed
(at least one) and reports the end-to-end metrics: times as medians over
the iterations, throughputs and ``failed_ratio`` pooled over them.
``--trace 1`` runs world 0 once untraced and once traced, and reports the
per-layer metrics of the traced iteration. Either way, the last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.

Every iteration is checked: its accounting identities must hold, its
output digest must equal the one recorded in ``digests.json`` for that
workload, seed and world (when recorded), a traced iteration's digest
must equal the untraced one's, and a traced run must restore every
function it wrapped. An iteration that fails a check counts in
``failed``.

``--record-digest`` runs the ``--trace 0`` loop and stores each world's
digest in ``digests.json`` instead of printing metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Fewest timed setups per run (``setup_s`` is their median). A run has
#: at least one iteration; on a slow host a long workload stops after it,
#: which keeps the whole benchmark inside its time budget.
MIN_SETUPS = 3


def world_seed(seed: int, index: int) -> int:
    """The world seed of iteration ``index`` of a run with ``seed``."""
    return seed + 1_000_003 * index

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "records_per_s": "1/s",
    "requests_per_s": "1/s", "investigations_per_s": "1/s",
    "failed_ratio": "ratio", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_sim_s"):
        return "sim_s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", ".yield")):
        return "ratio"
    return "count"


class Iteration:
    """Timings and checked outcome of one setup + measured phase."""

    def __init__(self, setup_s, products, outcome, covered_s=None):
        self.setup_s = setup_s
        self.wall_s = products.wall_s
        self.fleet_s = products.fleet_s
        self.records = products.records
        self.requests = products.requests
        self.investigated = products.investigated
        self.outcome = outcome
        self.covered_s = covered_s


def _setup(workload, seed, workdir):
    gc.collect()
    start = time.perf_counter()
    context = workload.setup(seed, workdir)
    return context, time.perf_counter() - start


def run_iteration(workload, seed, scratch, probe=None) -> Iteration:
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if probe is not None:
            probe.install()
        try:
            context, setup_s = _setup(workload, seed, workdir)
            gc.collect()
            covered_before = probe.tracer.root_seconds if probe else 0.0
            products = workload.run(context)
            covered = (probe.tracer.root_seconds - covered_before
                       if probe else None)
        finally:
            if probe is not None:
                probe.restored = probe.uninstall()
        outcome = workload.check(products)
        return Iteration(setup_s, products, outcome, covered)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_only(workload, seed, scratch) -> float:
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        _context, setup_s = _setup(workload, seed, workdir)
        return setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _recorded_digests(workload: str, seed: int):
    if not DIGESTS.is_file():
        return []
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed),
                                                                 [])


def _judge(iterations, expected, extra_failures=()):
    """Count failed iterations and report every failure on stderr.

    ``expected[i]`` is the digest iteration ``i`` must produce; iterations
    past the end of ``expected`` are checked by their identities only.
    """
    failed = 0
    for index, iteration in enumerate(iterations):
        problems = list(iteration.outcome.failures)
        if (index < len(expected)
                and iteration.outcome.digest != expected[index]):
            problems.append(f"digest {iteration.outcome.digest} != "
                            f"expected {expected[index]}")
        if index == len(iterations) - 1:
            problems.extend(extra_failures)
        for problem in problems:
            print(f"check failed (iteration {index}): {problem}",
                  file=sys.stderr)
        failed += bool(problems)
    return failed


def end_to_end(workload, seed, seconds, scratch):
    iterations = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        iterations.append(run_iteration(
            workload, world_seed(seed, len(iterations)), scratch))
    setups = [iteration.setup_s for iteration in iterations]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_only(workload, world_seed(seed, len(setups)),
                                 scratch))
    wall = sum(it.wall_s for it in iterations)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "records_per_s": sum(it.records for it in iterations) / wall,
        "requests_per_s": sum(it.requests for it in iterations) / wall,
        "investigations_per_s": (
            sum(it.investigated for it in iterations)
            / sum(it.fleet_s for it in iterations)),
        "failed_ratio": (sum(it.outcome.failed for it in iterations)
                         / sum(it.outcome.failed_of for it in iterations)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return iterations, {name: {"value": value,
                               "unit": END_TO_END_UNITS[name]}
                        for name, value in metrics.items()}


def per_layer(workload, seed, scratch):
    from layers import LayerProbe, layer_metrics
    from tracer import restored_cleanly

    untraced = run_iteration(workload, world_seed(seed, 0), scratch)
    probe = LayerProbe()
    traced = run_iteration(workload, world_seed(seed, 0), scratch,
                           probe=probe)
    problems = []
    if traced.outcome.digest != untraced.outcome.digest:
        problems.append(f"traced digest {traced.outcome.digest} != "
                        f"untraced {untraced.outcome.digest}")
    if not restored_cleanly(probe.restored):
        problems.append("tracer left a wrapped function in place")
    if probe.tracer.open_spans:
        problems.append(f"{probe.tracer.open_spans} spans never closed")
    metrics = layer_metrics(
        probe, traced.outcome.counts, workload=workload.name,
        wall_s=traced.wall_s, covered_s=traced.covered_s,
        untraced_wall_s=untraced.wall_s)
    return [untraced, traced], problems, {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench-work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        if args.trace:
            iterations, problems, metrics = per_layer(workload, args.seed,
                                                      scratch)
        else:
            iterations, metrics = end_to_end(workload, args.seed,
                                             args.seconds, scratch)
            problems = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    digests = [iteration.outcome.digest for iteration in iterations]
    if args.record_digest and not args.trace:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table.setdefault(workload.name, {})[str(args.seed)] = digests
        DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True)
                           + "\n")
    recorded = _recorded_digests(workload.name, args.seed)
    if args.trace:  # both iterations ran world 0
        recorded = recorded[:1] * len(iterations)
    failed = _judge(iterations, recorded, problems)
    print(f"{workload.name} seed={args.seed} iterations={len(iterations)} "
          f"recorded_digests={min(len(recorded), len(iterations))} "
          f"digests={','.join(digest[:16] for digest in digests)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(iterations),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
