"""The durable run journal: manifest + JSONL write-ahead log + snapshots.

Layout of a ``--checkpoint-dir``::

    MANIFEST.json     the :mod:`repro.durable` manifest (kind ``batch``)
                      plus the pipeline-config fingerprint
    journal.jsonl     the WAL: one JSON record per line, fsync'd per
                      append — ``barrier`` (stage done, snapshot ref +
                      full state), ``lookup`` (one enrichment outcome +
                      changed-state delta), ``complete``
    collection.pkl    pickled CollectionResult (referenced by a barrier)
    curation.pkl      pickled (SmishingDataset, CurationStats)

Write-ahead discipline: a snapshot file is written and fsync'd *before*
the journal record that references it, so the record's presence in the
log is the commit point — a crash between the two leaves an orphaned
snapshot the next resume ignores, never a dangling reference.

Recovery reads the longest valid prefix: the scan stops at the first
partial line, malformed record, or barrier whose snapshot is missing or
checksum-mismatched, warns (:class:`CheckpointWarning`), and truncates
the file there so subsequent appends extend a consistent log. Dropping
a suffix is always safe — it is exactly equivalent to having crashed a
few writes earlier.

``kill_after_writes`` is the test harness's kill switch: the journal
raises :class:`~repro.errors.SimulatedCrash` immediately after its Nth
durable append, letting the differential harness park a crash at every
write boundary a real ``kill -9`` could land on.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..durable import (
    MANIFEST_NAME,
    atomic_write_bytes,
    atomic_write_json,
    build_manifest,
    claim,
    fsync_file,
    kill_point,
    read_manifest,
    read_pickle,
)
from .codec import canonical_json

JOURNAL_NAME = "journal.jsonl"

#: Record types a valid journal line may carry.
RECORD_TYPES = ("barrier", "lookup", "complete")


class CheckpointWarning(UserWarning):
    """A journal needed recovery (tail dropped) — resume is still exact."""


def _validate_record(record: Any) -> bool:
    if not isinstance(record, dict):
        return False
    kind = record.get("type")
    if kind not in RECORD_TYPES:
        return False
    if kind == "barrier":
        return all(key in record for key in ("stage", "file", "sha256",
                                             "state"))
    if kind == "lookup":
        return (all(key in record for key in ("service", "field", "subject",
                                              "outcome", "effects"))
                and record["outcome"] in ("value", "gap"))
    return True


class RunJournal:
    """Append-only, fsync'd journal for one checkpointed pipeline run."""

    def __init__(self, directory: Path, *,
                 kill_after_writes: Optional[int] = None):
        self.directory = Path(directory)
        self.kill_after_writes = kill_after_writes
        self.manifest: Optional[Dict[str, Any]] = None
        #: Records recovered from disk (resume mode); [] for a fresh run.
        self.records: List[Dict[str, Any]] = []
        #: Appends performed by *this* process (the kill counter).
        self.writes = 0
        #: Whether load-time recovery dropped a corrupt tail.
        self.recovered = False
        self._handle = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, directory, *,
               kill_after_writes: Optional[int] = None) -> "RunJournal":
        """Start a fresh journal in an empty (or new) directory."""
        return cls(claim(directory), kill_after_writes=kill_after_writes)

    @classmethod
    def load(cls, directory) -> "RunJournal":
        """Open an existing journal, recovering its longest valid prefix."""
        journal = cls(Path(directory))
        journal.manifest = read_manifest(directory, kind="batch")
        journal.records, valid_bytes, dropped = journal._scan()
        journal_path = journal.directory / JOURNAL_NAME
        if dropped:
            warnings.warn(
                f"run journal {journal_path} needed recovery ({dropped}); "
                f"resuming from the last valid record — equivalent to a "
                f"crash a few writes earlier, results are unaffected",
                CheckpointWarning,
                stacklevel=2,
            )
            with open(journal_path, "r+b") as handle:
                handle.truncate(valid_bytes)
                fsync_file(handle)
            journal.recovered = True
        return journal

    def _scan(self) -> Tuple[List[Dict[str, Any]], int, str]:
        """The longest valid record prefix, its byte length, and why the
        scan stopped early ('' when the whole file is valid)."""
        journal_path = self.directory / JOURNAL_NAME
        records: List[Dict[str, Any]] = []
        valid_bytes = 0
        if not journal_path.exists():
            return records, valid_bytes, ""
        with open(journal_path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    return records, valid_bytes, "partial final record"
                try:
                    record = json.loads(line)
                except ValueError:
                    return records, valid_bytes, "malformed record"
                if not _validate_record(record):
                    return records, valid_bytes, "unrecognised record"
                if record["type"] == "barrier":
                    snapshot = self.directory / record["file"]
                    if not snapshot.is_file():
                        return (records, valid_bytes,
                                f"missing snapshot {record['file']}")
                    digest = hashlib.sha256(
                        snapshot.read_bytes()).hexdigest()
                    if digest != record["sha256"]:
                        return (records, valid_bytes,
                                f"corrupt snapshot {record['file']}")
                records.append(record)
                valid_bytes += len(line)
        return records, valid_bytes, ""

    # -- writes ---------------------------------------------------------------

    def write_manifest(self, fields: Dict[str, Any]) -> None:
        """Durably (re)write the ``batch`` manifest carrying ``fields``."""
        manifest = build_manifest("batch", **fields)
        atomic_write_json(self.directory / MANIFEST_NAME, manifest)
        self.manifest = manifest

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record; the harness's kill switch fires
        *after* the write completes (a real crash between fsync and the
        next instruction)."""
        if self._handle is None:
            self._handle = open(self.directory / JOURNAL_NAME, "ab")
        self._handle.write(canonical_json(record).encode("utf-8") + b"\n")
        fsync_file(self._handle)
        self.writes += 1
        kill_point("journal", self.writes, self.kill_after_writes)

    def write_snapshot(self, name: str, payload: Any) -> Dict[str, Any]:
        """Durably write one pickled stage snapshot; returns the
        ``{file, sha256, bytes}`` reference its barrier record embeds."""
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(self.directory / name, raw)
        return {"file": name, "sha256": hashlib.sha256(raw).hexdigest(),
                "bytes": len(raw)}

    def load_snapshot(self, record: Dict[str, Any]) -> Any:
        return read_pickle(self.directory / record["file"],
                           expected_sha256=record["sha256"], kind="batch")

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
