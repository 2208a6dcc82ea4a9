import os
import threading

import numpy as np
import pytest

from nwavelab.config import ConfigError, load_config
from nwavelab.io import read_verdicts_json
from nwavelab.suites import SUITE_NAMES, run_suite


def test_unknown_suite_raises_config_error():
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suite("nope", load_config())


def test_suite_names_stable():
    assert SUITE_NAMES == (
        "oleinik",
        "decay",
        "contraction",
        "comparison",
        "entropy",
        "tails",
        "nonlocal_comparison",
        "kernel_bound",
    )


def test_nonlocal_comparison_suite_passes_and_writes(tmp_path):
    out = str(tmp_path / "nc")
    reports = run_suite("nonlocal_comparison", load_config(), out_dir=out)
    assert all(r.passed for r in reports)
    back = read_verdicts_json(os.path.join(out, "nonlocal_comparison_verdicts.json"))
    assert [r.name for r in back] == [r.name for r in reports]
    assert any("1000 cases" in r.name for r in back)


def test_oleinik_suite_rejects_sign_changing_datum():
    cfg = load_config(overrides=["datum.kind=two_boxes_signed"])
    with pytest.raises(ConfigError) as exc:
        run_suite("oleinik", cfg)
    assert exc.value.origin == "datum.kind"


def test_suite_seed_determinism(tmp_path):
    cfg_a = load_config(seed=5)
    cfg_b = load_config(seed=5)
    ra = run_suite("nonlocal_comparison", cfg_a)
    rb = run_suite("nonlocal_comparison", cfg_b)
    va = [r.values for r in ra]
    vb = [r.values for r in rb]
    assert va == vb


def _small_decay(monkeypatch):
    import nwavelab.suites as suites

    monkeypatch.setattr(suites, "_DECAY_GRIDS",
                        {q: suites._DECAY_GRIDS[q] for q in (1.5, 1.75)})
    monkeypatch.setattr(suites, "_DECAY_TIMES", suites._DECAY_TIMES[:9])
    reports = run_suite("decay", load_config())
    return [(r.name, r.verdict, r.values) for r in reports]


def test_decay_suite_starts_no_thread(monkeypatch):
    # Its steps hold the GIL for most of their time, so pool threads would
    # only queue on it; the q runs go one after another.
    def no_thread(self):
        raise AssertionError("the decay suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    first = _small_decay(monkeypatch)
    assert [name for name, _, _ in first] == [
        name
        for q in (1.5, 1.75)
        for name in (f"decay exponent p=1 q={q:g}", f"decay exponent p=2 q={q:g}",
                     f"decay exponent p=inf q={q:g}", "energy dissipation")
    ]
    # dict equality compares the floats exactly: bit-identical values
    assert _small_decay(monkeypatch) == first


def test_nan_measurement_fails_its_check(monkeypatch):
    import nwavelab.suites as suites

    real = suites.l1_modulus
    calls = []

    def one_nan(u, h):
        calls.append(h)
        return np.nan if len(calls) == 3 else real(u, h)

    monkeypatch.setattr(suites, "l1_modulus", one_nan)
    reports = {r.name: r for r in run_suite("tails", load_config())}
    modulus = reports["shift modulus non-expansion"]
    assert not modulus.passed
    assert np.isnan(modulus.values["worst_growth"])
    assert reports["tail growth bound"].passed
