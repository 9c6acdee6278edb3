"""Reporting helpers: ASCII tables, CSV series, experiment summaries."""

from .flight import flight_report
from .loadmap import imbalance_summary, load_map
from .phases import phase_breakdown, phase_shares
from .report import balancer_comparison_report, comparison_report, series_preview
from .series import write_csv
from .tables import format_table

__all__ = [
    "balancer_comparison_report",
    "comparison_report",
    "flight_report",
    "format_table",
    "imbalance_summary",
    "load_map",
    "phase_breakdown",
    "phase_shares",
    "series_preview",
    "write_csv",
]
