"""Scheme defects that a verify line catches today.

Each row patches one defect into the stepper, runs the oleinik suite at
seed 7 on a grid of dx = 1/128 (the default's half resolution, where every
row still gives its verdict), and asserts that the named line FAILs.  The
control row applies no defect and passes every line.

    defect                                  failing line
    dt scaled to an effective CFL of 1.035  an oleinik margin
    the Dirichlet rate credited x1.2        energy dissipation
"""

import pytest

import nwavelab.solver as solver
from nwavelab.config import load_config
from nwavelab.suites import run_suite

_OVERRIDES = ["grid.dx=0.0078125"]


def _overstep(monkeypatch):
    dt_budget = solver._Stepper.dt_budget
    monkeypatch.setattr(solver._Stepper, "dt_budget",
                        lambda self, m, mu: dt_budget(self, m, mu) * (1.035 / self.p.cfl))


def _overcredit(monkeypatch):
    rate = solver._Stepper.rate
    monkeypatch.setattr(solver._Stepper, "rate", lambda self, *a, **k: 1.2 * rate(self, *a, **k))


def _failed(monkeypatch, defect) -> list:
    if defect is not None:
        defect(monkeypatch)
    reports = run_suite("oleinik", load_config(overrides=_OVERRIDES, seed=7))
    assert reports
    return [r.name for r in reports if not r.passed]


def test_every_line_passes_with_no_defect(monkeypatch):
    assert _failed(monkeypatch, None) == []


@pytest.mark.parametrize("defect, line", [
    pytest.param(_overstep, "oleinik margin at t=", id="cfl-1.035"),
    pytest.param(_overcredit, "energy dissipation", id="dissipation-x1.2"),
])
def test_a_defect_fails_its_line(monkeypatch, defect, line):
    assert any(name.startswith(line) for name in _failed(monkeypatch, defect))
