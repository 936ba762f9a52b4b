"""Measurement layer: session/download records, CDFs and summaries."""

from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.columnar import ColumnarCollector
from repro.metrics.records import (
    DownloadRecord,
    SessionRecord,
    TerminationReason,
    TrafficClass,
)
from repro.metrics.summary import SimulationSummary, summarize

__all__ = [
    "ColumnarCollector",
    "DownloadRecord",
    "EmpiricalCDF",
    "SessionRecord",
    "SimulationSummary",
    "TerminationReason",
    "TrafficClass",
    "summarize",
]
