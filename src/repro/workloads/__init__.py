"""Workload generators: the named presets and the concentration driver."""

from .concentration import ConcentrationSchedule
from .presets import PRESETS, Preset, get_preset

__all__ = [
    "PRESETS",
    "ConcentrationSchedule",
    "Preset",
    "get_preset",
]
