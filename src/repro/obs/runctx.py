"""Run-scoped identity: one context per analysis run, everywhere.

Telemetry used to be per-process confetti — spans, counters, the search
journal, store records and ``BENCH_*.json`` artifacts each landed in
their own file with no shared identity, so a slow or wrong answer could
not be reconstructed after the fact.  A :class:`RunContext` gives every
analysis run one correlated identity:

* a **run ID** (sortable timestamp + random suffix),
* the **code version** (git SHA) and the **environment knobs**
  (every ``REPRO_*`` variable) in effect,
* the **effective config** (subcommand, argv, workers, store root,
  trace path),
* the **input signatures** of every program the run touched
  (:meth:`note_input` — content hashes, so two runs over the same
  kernels are comparable even across rebuilds), and
* free-form **extras** (:meth:`annotate` — e.g. the batch runner's
  timeout attributions).

The context is module-global (same single-load discipline as
:mod:`repro.obs.core`) and is *propagated into every pool worker*:
:func:`worker_state` produces a small picklable dict that
``obs.core._init_worker`` restores on the other side, so heartbeats and
counters emitted by workers carry the parent's run ID.  At the end of
the run :mod:`repro.obs.ledger` seals the context plus the observer's
totals into one content-addressed ledger record.
"""

from __future__ import annotations

import os
import secrets
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Environment-variable prefixes snapshotted into every run record.
ENV_PREFIXES = ("REPRO_", "BENCH_")


def new_run_id(now: float | None = None) -> str:
    """Sortable run identifier: UTC timestamp plus a random suffix."""
    stamp = time.strftime(
        "%Y%m%d-%H%M%S", time.gmtime(time.time() if now is None else now)
    )
    return f"{stamp}-{secrets.token_hex(3)}"


def git_commit() -> str | None:
    """Short git SHA of the working tree, or ``None`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=5,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def env_knobs() -> dict[str, str]:
    """Every ``REPRO_*``/``BENCH_*`` variable currently set."""
    return {
        name: value
        for name, value in sorted(os.environ.items())
        if name.startswith(ENV_PREFIXES)
    }


@dataclass
class RunContext:
    """Identity and accumulated facts of one analysis run."""

    run_id: str
    command: str
    argv: tuple[str, ...] = ()
    config: dict[str, Any] = field(default_factory=dict)
    env: dict[str, str] = field(default_factory=env_knobs)
    git: str | None = field(default_factory=git_commit)
    live_dir: str | None = None
    started_unix: float = field(default_factory=lambda: round(time.time(), 3))
    inputs: dict[str, str] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)
    _t0: float = field(default_factory=time.perf_counter, repr=False)
    _cpu0: float = field(default_factory=time.process_time, repr=False)

    def note_input(self, name: str, signature: str) -> None:
        """Record one analyzed program's content signature."""
        self.inputs.setdefault(str(name), str(signature))

    def annotate(self, key: str, value: Any) -> None:
        """Append ``value`` under ``extras[key]`` (a list per key)."""
        self.extras.setdefault(key, []).append(value)

    def wall_s(self) -> float:
        return time.perf_counter() - self._t0

    def cpu_s(self) -> float:
        return time.process_time() - self._cpu0

    @property
    def live_path(self) -> Path | None:
        """Heartbeat file of this run (see :mod:`repro.obs.flight`)."""
        if self.live_dir is None:
            return None
        return Path(self.live_dir) / f"{self.run_id}.jsonl"


# ----------------------------------------------------------------------
# module-level switch — same discipline as obs.core._observer
# ----------------------------------------------------------------------
_current: RunContext | None = None


def begin_run(
    command: str,
    argv: tuple[str, ...] | list[str] = (),
    config: dict[str, Any] | None = None,
    live_dir: str | Path | None = None,
    run_id: str | None = None,
) -> RunContext:
    """Open a run context (replacing any active one)."""
    global _current
    _current = RunContext(
        run_id=run_id or new_run_id(),
        command=command,
        argv=tuple(argv),
        config=dict(config or {}),
        live_dir=None if live_dir is None else str(live_dir),
    )
    return _current


def end_run() -> RunContext | None:
    """Close and return the active run context."""
    global _current
    ctx, _current = _current, None
    return ctx


def current() -> RunContext | None:
    """The active run context, or ``None`` — the hot-path guard value."""
    return _current


def current_run_id() -> str | None:
    ctx = _current
    return None if ctx is None else ctx.run_id


def note_input(name: str, signature: str) -> None:
    """Record an input signature on the active run (no-op when idle)."""
    ctx = _current
    if ctx is not None:
        ctx.note_input(name, signature)


def annotate(key: str, value: Any) -> None:
    """Append to the active run's extras (no-op when idle)."""
    ctx = _current
    if ctx is not None:
        ctx.annotate(key, value)


# ----------------------------------------------------------------------
# worker propagation
# ----------------------------------------------------------------------

def worker_state() -> dict[str, Any] | None:
    """Picklable slice of the active context for pool initializers.

    ``obs.core._init_worker`` passes it to :func:`restore_worker` in the
    child, so worker-side heartbeats and observers carry the parent's
    run ID and write to the parent's live file.
    """
    ctx = _current
    if ctx is None:
        return None
    return {
        "run_id": ctx.run_id,
        "command": ctx.command,
        "live_dir": ctx.live_dir,
    }


def restore_worker(state: dict[str, Any] | None) -> None:
    """Adopt the parent's run identity inside a pool worker."""
    global _current
    if state is None:
        _current = None
        return
    _current = RunContext(
        run_id=str(state["run_id"]),
        command=str(state.get("command", "?")),
        live_dir=state.get("live_dir"),
        # Workers never re-derive git/env — identity comes from the
        # parent; keep the child cheap and deterministic.
        env={},
        git=None,
    )
