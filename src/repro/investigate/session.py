"""Durable investigation sessions: kill a fleet, resume without re-charging.

The charged half of a fleet run — one VirusTotal file submission per
unique payload hash — is the only part worth journaling: probes are pure
and free to recompute. A session directory is a :mod:`repro.durable`
directory of kind ``investigate``:

* ``MANIFEST.json`` — scenario, playbook, sample, fault profile, and
  (once the first commit lands) the digest of the state file. Written
  atomically before any charged work, so a kill at any instant leaves a
  resumable directory.
* ``state.pkl`` — the completed scan results (hash, verdict, simulated
  completion time) plus the restorable-state registry (clock,
  VirusTotal meter, circuit breaker, fault-proxy counter).

Resume rebuilds the world and pipeline from the manifest's scenario
(deterministic), re-runs the free probe phase, restores the registry to
the crash-time instant, and continues scanning from the cursor — so the
total charges across crash + resume equal an uninterrupted run's.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..checkpoint.state import (
    BREAKER_PREFIX,
    CLOCK_KEY,
    METER_PREFIX,
    PROXY_PREFIX,
    StateRegistry,
)
from ..durable import (
    MANIFEST_NAME,
    STATE_NAME,
    atomic_write_json,
    atomic_write_pickle,
    build_manifest,
    claim,
    load_state,
    read_manifest,
)
from ..services.euphony import FamilyVerdict

#: One completed charged scan: ``(sha256, verdict-or-None, sim_time)``.
#: ``verdict`` of None records a scan gap (the service never answered).
ScanResult = Tuple[str, Optional[FamilyVerdict], float]


class InvestigationSession:
    """Create/commit/load the durable state of one fleet's charged phase."""

    def __init__(
        self,
        directory: Path,
        *,
        scenario: Dict[str, Any],
        playbook: str,
        sample: Optional[int],
        commit_every: int = 1,
        fault_profile: Optional[str] = None,
        fault_seed: int = 0,
        execution: Optional[Dict[str, Any]] = None,
        argv: Sequence[str] = (),
    ):
        self.directory = Path(directory)
        self.scenario = scenario
        self.playbook = playbook
        self.sample = sample
        self.commit_every = max(1, int(commit_every))
        self.fault_profile = fault_profile or "none"
        self.fault_seed = int(fault_seed)
        self.execution = execution
        self.argv = list(argv)
        self.resuming = False
        #: Committed charged work, restored on load.
        self.scan_results: List[ScanResult] = []
        self._registry_state: Dict[str, Dict[str, Any]] = {}
        self._commits = 0

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, directory: Path, **fields: Any) -> "InvestigationSession":
        """Start a session in a missing or empty directory; ``fields``
        are the constructor's keywords."""
        session = cls(claim(directory), **fields)
        # Persist before any charged work: a kill during the very first
        # scan must still leave a loadable session behind.
        session._persist_manifest(state_sha256=None)
        return session

    @classmethod
    def load(cls, directory: Path) -> "InvestigationSession":
        manifest = read_manifest(directory, kind="investigate")
        faults = manifest["faults"]
        session = cls(
            directory,
            scenario=manifest["scenario"],
            playbook=manifest["playbook"],
            sample=manifest["sample"],
            commit_every=manifest["commit_every"],
            fault_profile=faults["profile"],
            fault_seed=faults["seed"],
            execution=manifest["execution"],
            argv=manifest["argv"],
        )
        session.resuming = True
        payload = load_state(directory, manifest)
        if payload is not None:
            session.scan_results = list(payload["scan_results"])
            session._registry_state = dict(payload["registry"])
        return session

    # -- state ----------------------------------------------------------------

    @property
    def scan_cursor(self) -> int:
        """How many sorted payload hashes are already committed."""
        return len(self.scan_results)

    def restore(self, registry: Mapping[str, Any]) -> None:
        """Put every restorable object back to the crash-time instant.

        ``registry`` maps state keys to live objects (clock, meter,
        breaker, proxy); see :class:`~repro.checkpoint.StateRegistry`
        for which unknown keys are dropped and which are refused.
        """
        StateRegistry(registry).restore(self._registry_state)

    def maybe_commit(self, scan_results: List[ScanResult],
                     registry: Mapping[str, Any]) -> None:
        """Commit when the configured granularity says so."""
        if len(scan_results) % self.commit_every == 0:
            self.commit(scan_results, registry)

    def commit(self, scan_results: List[ScanResult],
               registry: Mapping[str, Any]) -> None:
        """Durably record completed scans plus restorable state."""
        payload = {
            "scan_results": list(scan_results),
            "registry": StateRegistry(registry).capture(),
        }
        digest = atomic_write_pickle(self.directory / STATE_NAME, payload)
        self._persist_manifest(state_sha256=digest)
        self._commits += 1

    @property
    def commits(self) -> int:
        return self._commits

    def _persist_manifest(self, *, state_sha256: Optional[str]) -> None:
        atomic_write_json(self.directory / MANIFEST_NAME, build_manifest(
            "investigate",
            scenario=self.scenario,
            faults={"profile": self.fault_profile, "seed": self.fault_seed},
            execution=self.execution,
            argv=self.argv,
            state_sha256=state_sha256,
            playbook=self.playbook,
            sample=self.sample,
            commit_every=self.commit_every,
        ))


def registry_keys(*, proxied: bool) -> Tuple[str, ...]:
    """The state keys an investigation fleet registers."""
    keys = [
        CLOCK_KEY,
        METER_PREFIX + "virustotal",
        BREAKER_PREFIX + "virustotal",
    ]
    if proxied:
        keys.append(PROXY_PREFIX + "virustotal")
    return tuple(keys)
