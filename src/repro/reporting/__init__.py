"""Reporting helpers: ASCII tables, CSV series, experiment summaries."""

from .flight import flight_report, profile_table
from .phases import phase_breakdown, phase_shares
from .report import balancer_comparison_report, comparison_report, series_preview
from .series import write_csv
from .tables import format_table

__all__ = [
    "balancer_comparison_report",
    "comparison_report",
    "flight_report",
    "format_table",
    "phase_breakdown",
    "phase_shares",
    "profile_table",
    "series_preview",
    "write_csv",
]
