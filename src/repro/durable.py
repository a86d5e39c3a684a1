"""The durable-run kernel: one directory layout for every resumable run.

A paid call (HLR, WHOIS, VirusTotal, GPT-4o) must never be paid twice,
so every long-running surface — a journaled batch run, a ``watch``
stream, a ``serve`` intake, an ``investigate`` fleet — commits its
progress to a directory that ``repro resume DIR`` can finish::

    MANIFEST.json   kind, format, code fingerprint, scenario, faults,
                    execution policy, the argv that started the run, the
                    sha-bound ``state_file`` reference, plus the kind's
                    own fields (epoch plan, load spec, playbook, ...)
    state.pkl       the committed state (stream, serve, investigate)
    journal.jsonl   the batch write-ahead log and its ``*.pkl``
                    snapshots (:mod:`repro.checkpoint.journal`)

Every file is written the same way: write a temp file in the same
directory, fsync it, rename it over the target, fsync the directory. A
crash at any instant leaves the old file or the new one, never a torn
mixture. The state file is written before the manifest that names its
digest, so the manifest rename is the commit point.

These are plain functions; each subsystem keeps its own state shape and
calls :func:`atomic_write_pickle` / :func:`atomic_write_json` itself.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from .errors import (
    CheckpointError,
    CheckpointMismatch,
    ConfigurationError,
    SimulatedCrash,
)

MANIFEST_NAME = "MANIFEST.json"
STATE_NAME = "state.pkl"
#: Bumped on incompatible manifest layout changes.
FORMAT = 2
KINDS = ("batch", "stream", "serve", "investigate")

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + bytes).

    A directory written by different code must not be resumed: replay
    equivalence assumes the resumed process computes exactly what the
    killed one would have. Computed once per process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


# -- durable writes ------------------------------------------------------------


def fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(directory: Path) -> None:
    # Directory fsync makes a rename or a new file durable; not every
    # platform lets a directory be opened — best-effort there.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Durably replace ``path`` with ``payload`` (temp, fsync, rename,
    fsync the directory)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        fsync_file(handle)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_write_json(path: Path, payload: Any) -> None:
    """Durably replace ``path`` with ``payload`` rendered as JSON."""
    rendered = json.dumps(payload, indent=2, sort_keys=True, default=str)
    atomic_write_bytes(Path(path), (rendered + "\n").encode("utf-8"))


def atomic_write_pickle(path: Path, payload: Any) -> str:
    """Durably replace ``path`` with pickled ``payload``; returns the
    blob's SHA-256 so a manifest can bind it."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(Path(path), blob)
    return hashlib.sha256(blob).hexdigest()


def read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_pickle(path: Path, *, expected_sha256: str,
                kind: str = "durable") -> Any:
    """Load a pickle whose digest a manifest (or journal) recorded."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {kind} state file {path}: {exc}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != expected_sha256:
        raise CheckpointError(
            f"{kind} state file {path} does not match its recorded digest "
            f"(expected {expected_sha256[:12]}…, got {digest[:12]}…); the "
            f"{kind} directory {path.parent} is corrupt"
        )
    return pickle.loads(blob)


# -- the manifest --------------------------------------------------------------


def writable(path: Path) -> bool:
    """Is ``path`` (or its nearest existing ancestor) writable?"""
    probe = Path(path)
    while not probe.exists() and probe.parent != probe:
        probe = probe.parent
    return os.access(probe, os.W_OK)


def claim(directory: Path, *, create: bool = True) -> Path:
    """Check that a fresh run may start in ``directory`` (missing, or an
    empty writable directory), and create it unless ``create`` is off."""
    directory = Path(directory)
    if directory.exists() and not directory.is_dir():
        raise ConfigurationError(
            f"{directory} exists and is not a directory")
    if (directory / MANIFEST_NAME).is_file():
        raise ConfigurationError(
            f"{directory} already holds a durable run; finish it with "
            f"`repro resume {directory}` or choose an empty directory"
        )
    if directory.is_dir():
        existing = sorted(p.name for p in directory.iterdir())
        if existing:
            raise ConfigurationError(
                f"{directory} is not empty (found {', '.join(existing[:5])}"
                f"); refusing to mix a durable run into unrelated files"
            )
    if not writable(directory):
        raise ConfigurationError(f"{directory} is not writable")
    if create:
        directory.mkdir(parents=True, exist_ok=True)
    return directory


def build_manifest(kind: str, *, scenario: Optional[Dict[str, Any]] = None,
                   faults: Optional[Dict[str, Any]] = None,
                   execution: Optional[Dict[str, Any]] = None,
                   argv: Sequence[str] = (),
                   state_sha256: Optional[str] = None,
                   **fields: Any) -> Dict[str, Any]:
    """The manifest dict of one ``kind`` of run; ``fields`` are the
    kind's own entries."""
    return {
        **fields,
        "kind": kind,
        "format": FORMAT,
        "code": code_fingerprint(),
        "scenario": scenario,
        "faults": faults,
        "execution": execution,
        "argv": list(argv),
        "state_file": STATE_NAME if state_sha256 else None,
        "state_sha256": state_sha256,
    }


def read_manifest(directory: Path, kind: Optional[str] = None
                  ) -> Dict[str, Any]:
    """The manifest of a resumable directory, checked in full: present,
    readable, this format, a known kind (``kind`` when given), and
    written by this code."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise CheckpointError(
            f"no durable run at {directory}: {MANIFEST_NAME} is missing")
    try:
        manifest = read_json(path)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable manifest at {path}: {exc}")
    if not isinstance(manifest, dict):
        raise CheckpointError(f"malformed manifest at {path}")
    if manifest.get("format") != FORMAT:
        raise CheckpointError(
            f"unsupported manifest format {manifest.get('format')!r} at "
            f"{path} (this code writes format {FORMAT})"
        )
    found = manifest.get("kind")
    if found not in KINDS or (kind is not None and found != kind):
        raise CheckpointError(
            f"{directory} holds a {found!r} run, not "
            f"{kind if kind is not None else 'one of ' + ', '.join(KINDS)}"
        )
    if manifest.get("code") != code_fingerprint():
        raise CheckpointMismatch(
            f"refusing to resume: the {found} directory {directory} was "
            f"written by different code (code fingerprint "
            f"{str(manifest.get('code'))[:12]}…, this code "
            f"{code_fingerprint()[:12]}…)"
        )
    return manifest


def load_state(directory: Path, manifest: Dict[str, Any]) -> Any:
    """The committed state the manifest references, or None before the
    first commit."""
    if not manifest.get("state_file"):
        return None
    return read_pickle(Path(directory) / manifest["state_file"],
                       expected_sha256=manifest["state_sha256"],
                       kind=manifest["kind"])


def kill_point(label: str, index: int, at: Optional[int]) -> None:
    """The injected process death of the kill/resume harnesses: raise
    :class:`~repro.errors.SimulatedCrash` once ``index`` reaches ``at``."""
    if at is not None and index >= at:
        raise SimulatedCrash(f"{label}: injected kill at {index}",
                             service=label, at_call=index)


# -- rebuilding a run from its manifest ----------------------------------------


def scenario_to_dict(scenario) -> Dict[str, Any]:
    payload = dataclasses.asdict(scenario)
    payload["timeline_start"] = scenario.timeline_start.isoformat()
    payload["timeline_end"] = scenario.timeline_end.isoformat()
    return payload


def scenario_from_dict(payload: Dict[str, Any]):
    from .world.scenario import ScenarioConfig  # local: breaks import cycle

    try:
        data = dict(payload)
        data["timeline_start"] = dt.date.fromisoformat(data["timeline_start"])
        data["timeline_end"] = dt.date.fromisoformat(data["timeline_end"])
        return ScenarioConfig(**data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"manifest scenario is unusable: {exc}")


def faults_to_dict(plan) -> Dict[str, Any]:
    """The fault plan *minus crash points*: a killed run and its resume
    differ only in where the injected crash lands."""
    if plan is None:
        return {"profile": None, "seed": 0, "rules": "none"}
    survivable = plan.without_crash_points()
    return {"profile": survivable.profile, "seed": survivable.seed,
            "rules": survivable.describe()}


def plan_from_manifest(manifest: Dict[str, Any]):
    """The named fault plan the run was recorded under (None if none)."""
    from .faults import build_fault_plan  # local: breaks import cycle

    faults = manifest.get("faults") or {}
    if not faults.get("profile"):
        return None
    return build_fault_plan(faults["profile"], seed=int(faults["seed"]))


def execution_to_dict(policy) -> Dict[str, Any]:
    return dataclasses.asdict(policy)


def policy_from_manifest(manifest: Dict[str, Any]):
    from .exec import ExecutionPolicy  # local: breaks import cycle

    return ExecutionPolicy(**(manifest.get("execution") or {}))
