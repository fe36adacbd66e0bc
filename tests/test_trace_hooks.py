"""The benchmark harness uses curvesearch names that still exist."""

import sys
from pathlib import Path

from curvesearch import search
from curvesearch.count import JointCounter
from curvesearch.gf2m import build_field
from curvesearch.polyrep import parse_poly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_patches_resolve(monkeypatch):
    # layers.install looks up every attribute it wraps (PointCounter.
    # monomial_table, CurvePipeline.quick_genus, irred.find_simple_point, ...),
    # so a renamed or removed one fails here rather than in a --trace 1 run.
    # The count hooks also read counter attributes (q, n_points) after each
    # call, so one table build and one count run under the tracer, and the
    # certificate hook reads its result, so one certificate runs too.  Only
    # a joint counter's members have tables, so the counter is one of those.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patches)
        with tracer.span("search", "root"):
            joint = JointCounter([build_field(3)])
            counter = joint.counters[8]
            counter.monomial_table(2)
            f = parse_poly("x^3 + y^2*z + y*z^2")
            search.certify_absolute(f, {8: counter.count(f)})
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert tracer.counters["count.table_bytes"] == counter.monomial_table(2).nbytes > 0
    assert tracer.counters["count.points_evaluated"] == counter.n_points == 73
    assert tracer.counters["irred.outcome.yes"] == 1


def test_benchmark_search_read_back(monkeypatch, tmp_path):
    # The search workloads read their catalog back through read_catalog
    # (lenient_tail=True) and finalize_catalog, names that the search itself
    # no longer calls; the tiny-search workload keeps that path running.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    tiny = workloads.WORKLOADS["tiny-search"]
    out = workloads.run_search_workload(tiny, tmp_path)
    assert out["failed"] == 0, out["problems"]
    assert out["catalog"] == workloads.load_reference(tiny)
