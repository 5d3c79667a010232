"""Critical lock analysis — SC 2012 reproduction.

A library for diagnosing critical section bottlenecks in multithreaded
applications by identifying the locks on the execution's *critical path*
(critical locks) and quantifying them with contention probability and hot
critical section size, per Chen & Stenström, "Critical Lock Analysis"
(SC 2012).

Top-level convenience imports::

    from repro import Program, analyze

    prog = Program(name="demo")
    ...
    result = prog.run()
    report = analyze(result.trace)
    print(report.report.render())
"""

from importlib import import_module

__version__ = "1.0.0"

#: public name -> defining module, imported on first access (PEP 562) so
#: ``import repro.cli`` does not pay for the simulator or the replay.
_SOURCE = {
    "Program": "repro.sim", "reconstruct": "repro.replay",
    **dict.fromkeys(("analyze", "AnalysisResult"), "repro.core.analyzer"),
    **dict.fromkeys(("Trace", "TraceBuilder", "read_trace", "write_trace"), "repro.trace"),
}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_SOURCE[name]), name)
