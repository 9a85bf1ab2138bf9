"""Acceptance gate: every criterion gets its own pytest line.

The suite runs twice at the reference configuration, serial and with two
workers. Criteria are asserted on the serial run; the two rendered
reports must then agree byte for byte, which closes the loop that
criterion 11 can only open from inside a single run.

This module is the slow part of the test suite (a few minutes): it
simulates 2 x 200k diffusion paths twice plus the compound Poisson
batches. Deselect with `-k "not acceptance"` during development.
"""

import pytest

from passagelab import acceptance
from passagelab.acceptance import _CRITERIA, run_acceptance
from passagelab.errors import UnderSampleError


@pytest.fixture(scope="module")
def reports():
    serial = run_acceptance(workers=1)
    pooled = run_acceptance(workers=2)
    return serial, pooled


_IDS = [f"{num:02d}-{name.replace(' ', '-')}" for num, name, _ in _CRITERIA]


@pytest.mark.parametrize("index", range(len(_CRITERIA)), ids=_IDS)
def test_criterion(reports, index):
    result = reports[0].results[index]
    assert result.passed, result.line()


def test_overall_verdict(reports):
    serial, _ = reports
    assert serial.passed
    assert serial.render().rstrip().endswith("overall PASS (11/11 criteria)")


def test_reports_identical_across_worker_counts(reports):
    serial, pooled = reports
    assert serial.render().encode() == pooled.render().encode()


def test_raising_criterion_reports_only_its_error(monkeypatch):
    def boom(shared):
        raise UnderSampleError("too few")

    monkeypatch.setattr(acceptance, "_CRITERIA", [(3, "boom", boom)])
    # a zero budget that a raising criterion must not be judged against
    monkeypatch.setitem(acceptance._BUDGETS, 3, 0.0)
    (result,) = run_acceptance().results
    assert not result.passed
    assert result.details == [("error", "UnderSampleError: too few")]
    assert result.budget is None


def test_report_layout(reports):
    text = reports[0].render()
    lines = text.splitlines()
    assert lines[0] == "passagelab acceptance report"
    assert sum(ln.startswith("[") for ln in lines) == len(_CRITERIA)
    # timings are deliberately not part of the canonical text
    assert "elapsed" not in text
    assert text.endswith("\n")
