"""Critical lock analysis — the paper's contribution.

Pipeline (mirrors the paper's analysis module, Fig. 3), one sequential
pass over the trace's numpy columns (:mod:`repro.core.columnar`):

1. waker resolution: for every blocking wait, the thread and event that
   ended it (lock releaser / last barrier arriver / condition signaller
   / exiting joinee; rules in :mod:`repro.core.wakers`);
2. per-thread timelines of execution, waits and lock-hold intervals
   (:mod:`repro.core.model`);
3. the backward walk of paper Fig. 2, producing the critical path
   (:mod:`repro.core.critical_path`);
4. TYPE 1 (on-critical-path) and TYPE 2 (classical per-thread) lock
   statistics (paper Table 2; :mod:`repro.core.metrics`);
5. :mod:`repro.core.report` renders them; :mod:`repro.core.dag` provides
   an independent longest-path cross-check and powers
   :mod:`repro.core.whatif` speedup predictions.

Use :func:`repro.core.analyzer.analyze` for the whole pipeline.  The
per-event reference implementation of steps 1–4 lives in
:mod:`repro.check.refengine`, where the oracle holds the two to
bit-identical output (see ``docs/algorithm.md``).
"""

from importlib import import_module

# A submodule named like its own function is imported here: a later first
# import of it would rebind the package attribute to the module.  The
# rest load on first access (PEP 562), so ``repro analyze`` does not
# import the whole toolbox.
from repro.core.forecast import ScalabilityForecast, forecast
from repro.core.replay_whatif import (
    LockDelta,
    ProtocolForecast,
    forecast_matrix,
    replay_identity,
    replay_whatif,
)

#: public name -> defining submodule
_SOURCE = {
    name: f"repro.core.{module}"
    for module, names in {
        "analyzer": "AnalysisResult analyze",
        "columnar": "ColumnarTimelines ColumnarWakers backward_walk_columnar "
        "build_timelines_columnar resolve_wakers_columnar",
        "attribution": "LockAttribution attribute_lock",
        "blame": "BlameReport compute_blame",
        "compare": "ComparisonReport compare_analyses",
        "critical_path": "CriticalPath",
        "dag": "EventGraph build_event_graph",
        "estimate": "EstimatedReport LockEstimate estimate_report",
        "eyerman": "CriticalSectionModel eyerman_speedup fit_model",
        "lockorder": "LockOrderGraph build_lock_order",
        "online": "OnlineAnalyzer",
        "planner": "OptimizationPlan plan_optimizations",
        "metrics": "LockMetrics ThreadStats",
        "model": "CPPiece HoldInterval ThreadTimeline Wait WaitKind",
        "phases": "PhaseReport split_phases",
        "report": "AnalysisReport",
        "whatif": "WhatIfResult predict_shrink",
        "windows": "WindowedCriticality windowed_criticality",
    }.items()
    for name in names.split()
}

__all__ = [
    *_SOURCE,
    "LockDelta",
    "ProtocolForecast",
    "ScalabilityForecast",
    "forecast",
    "forecast_matrix",
    "replay_identity",
    "replay_whatif",
]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_SOURCE[name]), name)
