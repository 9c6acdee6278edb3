"""Table 1: E/T ratios across machine sizes.

The ratio of the experimental boundary (E) to the theoretical upper bound (T)
for m = 2, 3, 4 on 16, 36 and 64 PEs. The paper's findings: E/T barely
depends on the PE count, grows with m, and exceeds 1/2 for most cases.

The grid is a campaign (``table1-quick``/``table1-full``);
:meth:`Table1Result.from_report` renders it from the stored report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..campaign.report import CampaignReport


@dataclass(frozen=True)
class Table1Result:
    """The E/T grid: ``ratios[(m, n_pes)]`` (missing = no divergence found)."""

    ratios: dict[tuple[int, int], float]
    m_values: tuple[int, ...]
    pe_counts: tuple[int, ...]

    def row(self, m: int) -> list[float | None]:
        """One table row: E/T of ``m`` across the PE counts."""
        return [self.ratios.get((m, p)) for p in self.pe_counts]

    def spread_across_pes(self, m: int) -> float:
        """Max - min of a row (the paper: rows are nearly constant)."""
        values = [v for v in self.row(m) if v is not None]
        return max(values) - min(values) if len(values) > 1 else 0.0

    @classmethod
    def from_report(cls, report: CampaignReport) -> Table1Result:
        """The fitted E/T of every (m, P) pair of a boundary campaign."""
        groups = report.boundary_groups
        return cls(
            ratios={key: fit.ratio for key, fit in report.fits().items()},
            m_values=tuple(sorted({group.m for group in groups})),
            pe_counts=tuple(sorted({group.n_pes for group in groups})),
        )
