"""The columnar validator against the per-event reference, and malformed
traces against the default ``analyze``, on a fixed set of inputs.

The oracle runs the same two invariants (``validator-equiv``,
``malformed-rejected``) on every fuzzed seed; this file pins them on
traces the tier-1 suite uses and on a fixed, seeded set of single-row
mutants, so a regression shows up without ``repro check``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from tests.conftest import build_two_thread_handoff
from tests.golden.test_golden_reports import CASES

from repro.check import check_trace
from repro.check.generator import generate_spec
from repro.check.interp import run_spec
from repro.check.mutate import MUTATIONS, single_row_mutants
from repro.check.refvalidate import reference_trace_problems
from repro.core.analyzer import analyze
from repro.core.whatif import predict_no_contention, predict_shrink
from repro.errors import TraceValidationError
from repro.trace.validate import trace_problems
from repro.workloads import get_workload

#: Fuzzed programs whose traces are mutated, and mutants per trace.
SEEDS = range(6)
PER_TRACE = 16
#: How many of the fixed mutants the reference flags (pinned; a change
#: here means the mutant generator or the reference changed).
FLAGGED = 83


@pytest.fixture(scope="module")
def mutants():
    """``(mutant, reference problems)`` for the fixed mutant set."""
    out = []
    for seed in SEEDS:
        trace = run_spec(generate_spec(seed)).trace
        out += [
            (m, reference_trace_problems(m.trace))
            for m in single_row_mutants(trace, PER_TRACE, seed=seed)
        ]
    return out


def _golden_trace(case):
    workload, params, nthreads, seed = CASES[case]
    return get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_two_thread_handoff()[0],
        *[lambda case=case: _golden_trace(case) for case in CASES],
        *[lambda seed=seed: run_spec(generate_spec(seed)).trace for seed in SEEDS],
    ],
    ids=["handoff", *CASES, *[f"fuzz{s}" for s in SEEDS]],
)
def test_valid_traces_pass_both_validators(make):
    trace = make()
    assert reference_trace_problems(trace) == []
    assert trace_problems(trace) == []


def test_mutant_set_is_pinned(mutants):
    assert len(mutants) == len(SEEDS) * PER_TRACE
    flagged = Counter(m.kind for m, ref in mutants if ref)
    assert set(flagged) == set(MUTATIONS)
    assert sum(flagged.values()) == FLAGGED


def test_columnar_matches_reference_on_mutants(mutants):
    for m, ref in mutants:
        assert trace_problems(m.trace) == ref, m.label


def test_flagged_mutants_are_rejected_by_default(mutants):
    """Every mutant the reference flags must raise from the default
    ``analyze``; none may come back with a report."""
    for m, ref in mutants:
        if not ref:
            continue
        with pytest.raises(TraceValidationError) as exc_info:
            analyze(m.trace)
        assert exc_info.value.problems == ref, m.label


def test_flagged_mutants_are_rejected_by_the_dag_whatif(mutants):
    """Without a prebuilt graph the DAG what-ifs validate like
    ``analyze``: no shrink or no-contention answer for a malformed
    trace."""
    for m, ref in mutants:
        if not ref:
            continue
        lock = m.trace.locks[0].obj
        for predict in (
            lambda: predict_shrink(m.trace, lock, 0.5),
            lambda: predict_no_contention(m.trace, lock),
        ):
            with pytest.raises(TraceValidationError) as exc_info:
                predict()
            assert exc_info.value.problems == ref, m.label


def test_oracle_flags_a_diverging_validator(monkeypatch):
    trace = run_spec(generate_spec(0)).trace
    assert check_trace(trace) == []
    monkeypatch.setattr("repro.check.oracle.trace_problems", lambda t: [])
    ids = {d.invariant for d in check_trace(trace)}
    assert "validator-equiv" in ids


def test_oracle_flags_skipped_validation(monkeypatch):
    trace = run_spec(generate_spec(0)).trace
    monkeypatch.setattr("repro.core.analyzer.validate_trace", lambda t: None)
    ids = {d.invariant for d in check_trace(trace)}
    assert "malformed-rejected" in ids


def test_oracle_flags_an_unvalidated_whatif(monkeypatch):
    from repro.core.dag import build_event_graph

    trace = run_spec(generate_spec(0)).trace
    monkeypatch.setattr("repro.core.whatif._validated_graph", build_event_graph)
    details = [d.detail for d in check_trace(trace) if d.invariant == "malformed-rejected"]
    assert details and all("predict_shrink" in d for d in details)
