"""Rendering for the search journal (``repro explain``).

Ranked candidate table, rejection-reason tally, and the reconciliation
of journal tallies against the observer's counters — the cross-check
that the journal really saw everything the search counted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:
    from repro.transform.journal import SearchJournal

#: (display label, SearchJournal.counts() key, obs counter name).  Every
#: row must agree for the journal to be a faithful record of the search.
RECONCILIATIONS: tuple[tuple[str, str, str], ...] = (
    ("examined", "examined", "search.candidates.examined"),
    ("cache hits", "cache_hits", "search.cache.hits"),
    ("cache misses", "cache_misses", "search.cache.misses"),
    ("bb prunes", "pruned", "search.bb.pruned"),
    ("bb evaluated", "bb_evaluated", "search.bb.evaluated"),
    ("cascade prunes", "cascade_pruned", "search.cascade.pruned"),
    ("hierarchy prunes", "hierarchy_pruned", "search.hierarchy.pruned"),
)


def reconcile(
    journal: SearchJournal, counters: Mapping[str, int]
) -> list[tuple[str, int, int]]:
    """``(label, journal count, counter value)`` for every check."""
    counts = journal.counts()
    return [
        (label, counts[jkey], int(counters.get(ckey, 0)))
        for label, jkey, ckey in RECONCILIATIONS
    ]


def _fmt_candidate(candidate: Any) -> str:
    if candidate is None:
        return "(native order)"
    return str(candidate)


def render_candidate_table(journal: SearchJournal) -> str:
    """Evaluated candidates best-first, then estimate-only survivors,
    then the rejection tally."""
    lines = []
    ranked = journal.ranked()
    if ranked:
        header = f"{'rank':>4}  {'candidate T (rows)':<34} {'estimate':>10} {'exact':>6}  via"
        lines.append(header)
        lines.append("-" * len(header))
        for rank, rec in enumerate(ranked, start=1):
            est = "-" if rec.estimate is None else str(rec.estimate)
            lines.append(
                f"{rank:>4}  {_fmt_candidate(rec.candidate):<34} "
                f"{est:>10} {rec.exact:>6}  {rec.status}"
            )
    evaluated = {r.candidate for r in journal.by_stage("evaluate")}
    unverified = [
        r
        for r in journal.records
        if r.stage in ("seed", "enumerate")
        and r.status == "candidate"
        and r.candidate not in evaluated
    ]
    if unverified:
        if lines:
            lines.append("")
        lines.append(f"{len(unverified)} candidate(s) ranked out before exact scoring:")
        shown = sorted(
            unverified,
            key=lambda r: (r.estimate is None, r.estimate, str(r.candidate)),
        )[:10]
        for rec in shown:
            est = "-" if rec.estimate is None else str(rec.estimate)
            lines.append(f"      {_fmt_candidate(rec.candidate):<34} est={est}")
        if len(unverified) > len(shown):
            lines.append(f"      ... and {len(unverified) - len(shown)} more")
    reasons = journal.rejection_reasons()
    if reasons:
        if lines:
            lines.append("")
        lines.append("rejections:")
        for reason, count in sorted(reasons.items()):
            lines.append(f"  {reason:<12} {count:>6}")
    return "\n".join(lines) if lines else "(empty journal)"


def render_reconciliation(
    journal: SearchJournal, counters: Mapping[str, int]
) -> tuple[str, bool]:
    """Reconciliation table and whether every row agreed."""
    rows = reconcile(journal, counters)
    ok = True
    lines = ["journal/counter reconciliation:"]
    for label, jcount, ccount in rows:
        match = jcount == ccount
        ok = ok and match
        verdict = "OK" if match else "MISMATCH"
        lines.append(
            f"  {label:<14} journal={jcount:<8} counter={ccount:<8} {verdict}"
        )
    return "\n".join(lines), ok
