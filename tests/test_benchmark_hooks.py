"""The benchmark tracer still finds every name its declared metrics hook.

perfbench/tracer.py reaches into nwavelab by dotted name, private helpers
included.  A renamed or deleted one makes its metrics read absent.
perfbench/test_smoke.py sees that too, but it lies outside the package's
test paths and runs every workload; this check takes well under a second.
"""

import importlib.util
import json
import os

import pytest

import nwavelab  # noqa: F401  (imports every module the tracer hooks)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (os.path.exists(TRACER) and os.path.exists(SPEC)),
                    reason="no benchmark harness in this tree")
def test_every_declared_per_layer_metric_resolves():
    tracer = _load_tracer()
    with open(SPEC, encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    t = tracer.Tracer()
    t.install()
    try:
        t.root(lambda: None)
    finally:
        t.uninstall()
    metrics, _detail, absent = tracer.layer_metrics(t, untraced_wall=1.0)
    assert absent == []
    assert declared <= set(metrics)
