"""Structured journal of one transformation search.

Where :mod:`repro.obs` answers "how much" (counters, span timings), the
journal answers "why": every candidate the search considered, with the
stage that produced it, the legality check that rejected it, the
branch-and-bound box that was pruned, and the exact/estimated scores of
the survivors.  ``repro explain`` renders it as a ranked candidate table
and reconciles the per-reason tallies against the observer's counters.

Same zero-overhead discipline as :mod:`repro.obs`: a module-level
``_journal`` that is ``None`` unless recording, hot loops hoist
``jr = journal.active()`` once and guard each record with
``if jr is not None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator


@dataclass(frozen=True)
class CandidateRecord:
    """One journal entry: a candidate (or pruned region) and its fate.

    ``candidate`` is the transformation's row tuple, a partial row tuple
    for candidates rejected before completion, a branch-and-bound box
    for prunes, or ``None`` for the native order.
    """

    stage: str  # "seed" | "enumerate" | "evaluate" | "bb" | "prune" | "cascade" | "hierarchy"
    candidate: Any
    status: str  # "candidate" | "rejected" | "cache_hit" | "computed" | "pruned"
    reason: str | None = None
    estimate: Fraction | int | None = None
    exact: int | None = None


class SearchJournal:
    """Append-only record of every candidate a search touched.

    ``run_id`` carries the run identity of the run that recorded the
    journal (see :mod:`repro.obs.runctx`), so a rendered candidate table
    can be correlated with the run's ledger record.
    """

    __slots__ = ("records", "run_id")

    def __init__(self, run_id: str | None = None) -> None:
        self.records: list[CandidateRecord] = []
        self.run_id = run_id

    def record(
        self,
        stage: str,
        candidate: Any,
        status: str,
        reason: str | None = None,
        estimate: Fraction | int | None = None,
        exact: int | None = None,
    ) -> None:
        self.records.append(
            CandidateRecord(stage, candidate, status, reason, estimate, exact)
        )

    def __len__(self) -> int:
        return len(self.records)

    def by_stage(self, stage: str) -> list[CandidateRecord]:
        return [r for r in self.records if r.stage == stage]

    def by_status(self, status: str) -> list[CandidateRecord]:
        return [r for r in self.records if r.status == status]

    def rejection_reasons(self) -> dict[str, int]:
        """Tally of rejection/prune reasons (first ``:``-delimited word)."""
        reasons: dict[str, int] = {}
        for r in self.records:
            if r.status in ("rejected", "pruned") and r.reason:
                key = r.reason.split(":", 1)[0]
                reasons[key] = reasons.get(key, 0) + 1
        return reasons

    def ranked(self) -> list[CandidateRecord]:
        """Evaluated candidates, best (smallest exact MWS) first.

        Joins each ``evaluate`` record with the estimate its ``enumerate``
        or ``seed`` record carried, keyed by candidate rows.
        """
        estimates: dict[Any, Fraction | int | None] = {}
        for r in self.records:
            if r.stage in ("seed", "enumerate") and r.status == "candidate":
                estimates.setdefault(r.candidate, r.estimate)
        out = []
        for r in self.by_stage("evaluate"):
            if r.exact is None:
                continue
            est = r.estimate if r.estimate is not None else estimates.get(r.candidate)
            out.append(
                CandidateRecord(
                    r.stage, r.candidate, r.status, r.reason, est, r.exact
                )
            )
        out.sort(key=lambda r: (r.exact, str(r.candidate)))
        return out

    def counts(self) -> dict[str, int]:
        """Totals the reconciliation in ``repro explain`` checks.

        ``pruned`` counts only branch-and-bound box prunes (stage
        ``"prune"``); the evaluation cascade's candidate prunes carry
        stage ``"cascade"`` and are tallied separately, so both can be
        reconciled against their own counters.
        """
        return {
            "examined": len(self.by_stage("enumerate")),
            "seeded": len(self.by_stage("seed")),
            "rejected": len(self.by_status("rejected")),
            "cache_hits": len(self.by_status("cache_hit")),
            "cache_misses": len(self.by_status("computed")),
            "pruned": len(self.by_stage("prune")),
            "cascade_pruned": len(self.by_stage("cascade")),
            "bb_evaluated": len(self.by_stage("bb")),
            "hierarchy": len(self.by_stage("hierarchy")),
            "hierarchy_pruned": len(
                [
                    r
                    for r in self.by_stage("hierarchy")
                    if r.status == "pruned"
                ]
            ),
        }

    def __iter__(self) -> Iterator[CandidateRecord]:
        return iter(self.records)


_journal: SearchJournal | None = None


def active() -> SearchJournal | None:
    """The recording journal, or None — the hot-loop guard value."""
    return _journal


def enabled() -> bool:
    return _journal is not None


def enable() -> SearchJournal:
    """Start recording into a fresh journal (replaces any active one).

    The journal adopts the active run context's ID, if any, so its rows
    are attributable to the run that produced them.
    """
    global _journal
    from repro.obs import runctx

    _journal = SearchJournal(run_id=runctx.current_run_id())
    return _journal


def disable() -> SearchJournal | None:
    """Stop recording; returns the journal for inspection."""
    global _journal
    journal, _journal = _journal, None
    return journal
