"""The traced benchmark run patches curvesearch names that still exist."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_patches_resolve(monkeypatch):
    # layers.install looks up every attribute it wraps (PointCounter.
    # monomial_table, CurvePipeline.quick_genus, irred.find_simple_point, ...),
    # so a renamed or removed one fails here rather than in a --trace 1 run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
