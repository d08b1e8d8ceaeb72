"""Element lifetime statistics.

Section 1 frames the optimization as shortening "the time between the
first and last accesses to a given array location"; these helpers expose
that distribution directly, for reports, examples and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window.fast import lifetime_table


@dataclass(frozen=True)
class LifetimeStats:
    """Summary of per-element lifetimes (in iterations) for one array."""

    array: str
    touched_elements: int
    max_lifetime: int
    mean_lifetime: float
    single_use_elements: int

    @property
    def reused_elements(self) -> int:
        return self.touched_elements - self.single_use_elements


def lifetime_stats(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> LifetimeStats:
    """Compute lifetime statistics under the given execution order.

    A transformation that reduces MWS shows up here as a collapse of
    ``max_lifetime`` and ``mean_lifetime`` — the same reuse happens much
    closer together in time.
    """
    table = lifetime_table(program, array, transformation)
    spans = table.last - table.first
    return LifetimeStats(
        array=array,
        touched_elements=spans.shape[0],
        max_lifetime=int(spans.max()),
        mean_lifetime=int(spans.sum()) / spans.shape[0],
        single_use_elements=int((spans == 0).sum()),
    )
