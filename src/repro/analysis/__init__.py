"""Post-run analysis: breakdown aggregation, fault impact, OST timelines.

Tools a user pointed at a finished run reaches for:

* :mod:`repro.analysis.breakdown` — turn per-rank time breakdowns into
  the paper's Figure-2-style series and wall diagnostics;
* :mod:`repro.analysis.faults` — probe every fault class at its
  representative severity and compare per-protocol damage (wall loss,
  blast radius, retry cost);
* :mod:`repro.analysis.timeline` — OST load, utilization curves and
  burstiness from a recorded trace.
"""

from repro.analysis.breakdown import BreakdownSeries, wall_diagnosis
from repro.analysis.faults import (FaultImpact, FaultImpactReport,
                                   fault_impact)
from repro.analysis.timeline import (OstLoadSummary, burstiness, ost_load,
                                     utilization_curve)

__all__ = [
    "BreakdownSeries",
    "wall_diagnosis",
    "FaultImpact",
    "FaultImpactReport",
    "fault_impact",
    "OstLoadSummary",
    "ost_load",
    "utilization_curve",
    "burstiness",
]
