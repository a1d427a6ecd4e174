"""The crash-consistent run journal: a write-ahead log of job state.

Every farm run appends its unit state transitions to one JSONL file.  A
unit is one job, or one shard when :class:`~repro.farm.scheduler.StreamFarm`
runs a sharded manifest; ``digest`` and ``id`` name the unit::

    run_start   -> a scheduler (re)started over this manifest
    cached      -> a unit replayed from the result store or a committed
                   shard file (terminal)
    dispatched  -> a unit handed to a worker (records attempt + pid)
    strike      -> the worker serving a unit was reclaimed (died / hung /
                   over deadline / committed a torn result)
    retry       -> a struck unit requeued with a backoff delay
    done        -> a worker result accepted (terminal)
    poison      -> a unit quarantined after striking out (terminal)
    lost        -> retries exhausted below the poison threshold (terminal)
    interrupted -> an in-flight unit abandoned by a clean drain
    run_end     -> the scheduler finished normally

Each line is flushed **and fsync'd** before the transition it describes
takes effect, which is what makes the scheduler itself a restartable
unit: SIGKILL it mid-run and the journal still tells the resume run
which units were in flight, how many attempts each had consumed, and —
crucially — how many workers each unit has killed, so a poison unit's
strike count survives scheduler death and the unit is quarantined after
K strikes *total*, not K strikes per scheduler lifetime.  A sharded run
journals about two records per shard, so one fsync each costs nothing
worth batching.

The reader side tolerates exactly the damage a SIGKILL can cause: a
torn final line (the write that was in flight when the process died)
is skipped, never fatal.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

# Events that end a job's life within one run segment.
TERMINAL_EVENTS = ("cached", "done", "poison", "lost")


class RunJournal:
    """Append-only JSONL journal for one run directory; every record is
    fsync'd before :meth:`record` returns (the write-ahead discipline)."""

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "a")

    def record(self, event: str, **fields) -> None:
        line = json.dumps({"event": event, **fields}, sort_keys=True)
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_events(path: str) -> Iterator[Dict]:
    """Yield journal events, skipping any torn (half-written) lines."""
    try:
        handle = open(path)
    except FileNotFoundError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                # The write the dying scheduler never finished.
                continue
            if isinstance(event, dict) and "event" in event:
                yield event


@dataclass
class JobLedger:
    """Everything the journal knows about one job digest."""

    attempts: int = 0            # dispatches, summed across run segments
    strikes: int = 0             # workers this job has killed, ever
    terminal: Optional[str] = None   # last terminal event, if any
    in_flight: bool = False      # dispatched with no later resolution


@dataclass
class JournalState:
    """Replay of a journal file: per-digest ledgers plus run accounting."""

    jobs: Dict[str, JobLedger] = field(default_factory=dict)
    run_starts: int = 0
    clean_run_ends: int = 0

    def ledger(self, digest: str) -> JobLedger:
        return self.jobs.setdefault(digest, JobLedger())

    def strikes(self, digest: str) -> int:
        ledger = self.jobs.get(digest)
        return ledger.strikes if ledger else 0

    def in_flight_digests(self) -> List[str]:
        return sorted(d for d, ledger in self.jobs.items()
                      if ledger.in_flight)


def replay(path: str) -> JournalState:
    """Rebuild job state from a journal, tolerating a torn tail.

    A new ``run_start`` marks every still-in-flight job as abandoned
    (its worker died with the previous scheduler); strike counts and
    terminal states persist across segments — that persistence is the
    poison-quarantine guarantee.
    """
    state = JournalState()
    for event in iter_events(path):
        kind = event["event"]
        if kind == "run_start":
            state.run_starts += 1
            for ledger in state.jobs.values():
                ledger.in_flight = False
            continue
        if kind == "run_end":
            state.clean_run_ends += 1
            continue
        digest = event.get("digest")
        if digest is None:
            continue
        ledger = state.ledger(digest)
        if kind == "dispatched":
            ledger.attempts += 1
            ledger.in_flight = True
        elif kind == "strike":
            ledger.strikes += 1
            ledger.in_flight = False
        elif kind == "interrupted":
            ledger.in_flight = False
        elif kind in TERMINAL_EVENTS:
            ledger.terminal = kind
            ledger.in_flight = False
    return state


def verify_journal(path: str) -> List[str]:
    """Check the recovery invariants over a (possibly multi-run) journal.

    Returns human-readable violations; empty means the journal describes
    a legal history:

    * within one run segment, a digest resolves at most once
      (``done``/``cached``/``poison``/``lost`` are mutually terminal);
    * ``done``/``strike``/``interrupted`` only ever follow a
      ``dispatched`` for that digest in the same segment;
    * ``poison`` is recorded at most once per digest across the whole
      file — quarantine is a fleet-wide one-time classification.
    """
    violations: List[str] = []
    terminal_this_run: Dict[str, str] = {}
    dispatched_this_run: Dict[str, bool] = {}
    poison_counts: Dict[str, int] = {}
    for event in iter_events(path):
        kind = event["event"]
        if kind == "run_start":
            terminal_this_run = {}
            dispatched_this_run = {}
            continue
        digest = event.get("digest")
        if digest is None:
            continue
        if digest in terminal_this_run and kind in TERMINAL_EVENTS:
            violations.append(
                f"{digest[:12]}: double terminal "
                f"({terminal_this_run[digest]} then {kind})")
        if kind == "dispatched":
            dispatched_this_run[digest] = True
        elif kind in ("done", "strike", "interrupted") and \
                not dispatched_this_run.get(digest):
            violations.append(
                f"{digest[:12]}: {kind} without a dispatch this run")
        if kind in TERMINAL_EVENTS:
            terminal_this_run[digest] = kind
        if kind == "poison":
            poison_counts[digest] = poison_counts.get(digest, 0) + 1
    for digest, count in sorted(poison_counts.items()):
        if count > 1:
            violations.append(
                f"{digest[:12]}: poisoned {count} times (must be once)")
    return violations
