"""Evidence packages: structured findings plus a chain of custody.

Each campaign an investigation fleet touches gets one
:class:`EvidencePackage`: a list of structured JSON findings (one per
investigated URL, plus one per payload scan) and a chain-of-custody
manifest recording every playbook step — its simulated timestamp, what
it observed, and whether it charged a metered service. The package body
is content-hashed (SHA-256 over canonical JSON), the hash lives in the
package's manifest, and :func:`verify_package` re-derives it — so a
tampered or torn evidence file is detected, never silently trusted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..durable import atomic_write_json

#: Bumped when the package layout changes incompatibly.
EVIDENCE_FORMAT_VERSION = 1

#: Campaign bucket for URLs that never resolved to a known asset.
UNATTRIBUTED = "(unattributed)"


@dataclass(frozen=True)
class CustodyEntry:
    """One link in a package's chain of custody."""

    sequence: int
    record_id: str
    step: str
    detail: str
    sim_time: float
    charged_service: str = ""  # empty when the step was a pure probe

    def to_dict(self) -> Dict[str, object]:
        return {
            "sequence": self.sequence,
            "record_id": self.record_id,
            "step": self.step,
            "detail": self.detail,
            "sim_time": self.sim_time,
            "charged_service": self.charged_service,
        }


@dataclass
class EvidencePackage:
    """Findings and custody for one campaign's investigations."""

    campaign_id: str
    findings: List[Dict[str, object]] = field(default_factory=list)
    custody: List[CustodyEntry] = field(default_factory=list)

    def add_finding(self, finding: Dict[str, object]) -> None:
        self.findings.append(finding)

    def add_custody(self, *, record_id: str, step: str, detail: str,
                    sim_time: float, charged_service: str = "") -> None:
        self.custody.append(CustodyEntry(
            sequence=len(self.custody),
            record_id=record_id,
            step=step,
            detail=detail,
            sim_time=sim_time,
            charged_service=charged_service,
        ))

    # -- integrity ------------------------------------------------------------

    def body_dict(self) -> Dict[str, object]:
        """The hashed body: everything except the manifest itself."""
        return {
            "format_version": EVIDENCE_FORMAT_VERSION,
            "campaign_id": self.campaign_id,
            "findings": self.findings,
            "custody": [entry.to_dict() for entry in self.custody],
        }

    def content_sha256(self) -> str:
        blob = json.dumps(self.body_dict(), sort_keys=True,
                          separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def manifest(self) -> Dict[str, object]:
        """The integrity header written alongside the body."""
        charged = sum(1 for entry in self.custody if entry.charged_service)
        return {
            "format_version": EVIDENCE_FORMAT_VERSION,
            "campaign_id": self.campaign_id,
            "findings": len(self.findings),
            "custody_entries": len(self.custody),
            "charged_steps": charged,
            "content_sha256": self.content_sha256(),
        }

    def to_dict(self) -> Dict[str, object]:
        return {"manifest": self.manifest(), "body": self.body_dict()}


def verify_package(package: EvidencePackage,
                   manifest: Optional[Dict[str, object]] = None) -> bool:
    """Re-derive the content hash and compare against the manifest."""
    manifest = manifest if manifest is not None else package.manifest()
    return (
        manifest.get("format_version") == EVIDENCE_FORMAT_VERSION
        and manifest.get("campaign_id") == package.campaign_id
        and manifest.get("findings") == len(package.findings)
        and manifest.get("custody_entries") == len(package.custody)
        and manifest.get("content_sha256") == package.content_sha256()
    )


def verify_package_dict(data: Dict[str, object]) -> bool:
    """Verify a package previously serialised with ``to_dict``."""
    manifest = data.get("manifest")
    body = data.get("body")
    if not isinstance(manifest, dict) or not isinstance(body, dict):
        return False
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"),
                      default=str)
    return (manifest.get("content_sha256")
            == hashlib.sha256(blob.encode("utf-8")).hexdigest())


def _package_file_name(campaign_id: str) -> str:
    slug = "".join(ch if ch.isalnum() else "-" for ch in campaign_id)
    return f"evidence-{slug}.json"


def write_packages(directory: Path,
                   packages: List[EvidencePackage]) -> Path:
    """Write every package (atomically) plus a top-level manifest.

    Returns the path of the fleet-level ``EVIDENCE.json`` manifest, which
    lists each package file with its content hash — the entry point for
    offline verification.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = []
    for package in packages:
        name = _package_file_name(package.campaign_id)
        atomic_write_json(directory / name, package.to_dict())
        index.append({
            "file": name,
            "campaign_id": package.campaign_id,
            "content_sha256": package.manifest()["content_sha256"],
        })
    manifest_path = directory / "EVIDENCE.json"
    atomic_write_json(manifest_path, {
        "format_version": EVIDENCE_FORMAT_VERSION,
        "packages": index,
    })
    return manifest_path
