"""The traced run: which functions get spans, and the per-layer metrics.

Layers are named after the curvesearch modules.  Every patched name is one
that a caller actually looks up at call time: module-level functions are
patched in the module that calls them (`search.certify_absolute`, not
`irred.certify_absolute`), methods on their class.  Scalar inner functions
(FieldTable.mul, hom_divmod) get no span; the only counter-only wrappers
are on partials and evaluate.

The traced run is single-process (jobs=1), so every span lands in this
process's tracer.
"""

from __future__ import annotations

import statistics
import weakref
from pathlib import Path

import workloads
from tracer import Span, Tracer

FIELD_ORDERS = workloads.ALL_FIELDS
LAYERS = ("gf2m", "orbit", "count", "singular", "irred", "bounds", "search",
          "corpus")

# name -> unit; every name is printed for every workload (0 where the layer
# does no work on that workload).  `better` is "higher" for the names in
# HIGHER_IS_BETTER, else "lower".
METRICS: dict[str, str] = {
    "gf2m.build_field_calls": "count",
    "gf2m.build_field_s": "s",
    "gf2m.mul_arr_calls": "count",
    "gf2m.mul_arr_elems": "count",
    "gf2m.mul_arr_s": "s",
    "polyrep.partials_calls": "count",
    "polyrep.evaluate_calls": "count",
    "orbit.run_range_calls": "count",
    "orbit.run_range_s": "s",
    "orbit.masks_scanned": "count",
    "orbit.orbits_emitted": "count",
    "orbit.trivial_frac": "ratio",
    "orbit.pack_state_s": "s",
    "orbit.pack_state_bytes": "bytes",
    "orbit.table_bytes": "bytes",
    "orbit.orbit_of_calls": "count",
    "orbit.orbit_of_s": "s",
    "count.count_calls": "count",
    "count.count_s": "s",
    **{f"count.count_s.q{q}": "s" for q in FIELD_ORDERS},
    "count.calls_per_orbit": "ratio",
    "count.points_evaluated": "count",
    "count.xor_rows": "count",
    "count.bytes_moved_computed": "bytes",
    "count.table_builds": "count",
    "count.table_build_s": "s",
    "count.table_bytes": "bytes",
    "singular.analyze_point_calls": "count",
    "singular.analyze_point_s": "s",
    "singular.blowup_calls": "count",
    "singular.blowup_s": "s",
    "singular.factor_form_calls": "count",
    "singular.factor_form_s": "s",
    "irred.certify_calls": "count",
    "irred.certify_s": "s",
    "irred.certify_p50_ms": "ms",
    "irred.certify_tail_ms": "ms",
    "irred.certify_tail_pct": "%",
    "irred.simple_point_calls": "count",
    "irred.simple_point_s": "s",
    "irred.outcome.yes": "count",
    "irred.outcome.unknown": "count",
    "irred.outcome.reducible": "count",
    "irred.unknown_frac": "ratio",
    "bounds.genus_interval_calls": "count",
    "bounds.genus_interval_s": "s",
    "bounds.smooth_model_range_s": "s",
    "search.count_all_calls": "count",
    "search.analyze_calls": "count",
    "search.analyze_s": "s",
    "search.analyze_self_s": "s",
    "search.quick_genus_s": "s",
    "search.meets_threshold_s": "s",
    "search.kept_frac": "ratio",
    "search.drop.threshold": "count",
    "search.drop.inconsistent": "count",
    "search.drop.reducible": "count",
    "search.catalog_io_s": "s",
    "search.par_eff": "ratio",
    "corpus.verify_calls": "count",
    "corpus.verify_s": "s",
    "corpus.check_self_s": "s",
    "corpus.verify_p50_ms": "ms",
    "corpus.verify_tail_ms": "ms",
    "corpus.verify_tail_pct": "%",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.cpu_ratio": "ratio",
}
HIGHER_IS_BETTER = {"search.kept_frac", "search.par_eff", "irred.outcome.yes"}


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with at least `beyond`
    samples above it; (0, 0) when there are too few samples."""
    n = len(values)
    if n <= beyond:
        return 0.0, 0.0
    return 100.0 * (n - beyond) / n, sorted(values)[n - beyond - 1]


def install(tracer: Tracer) -> None:
    from curvesearch import corpus, count, gf2m, irred, orbit, search, singular
    from curvesearch.polyrep import partials

    def popcount(x: int) -> int:
        return bin(x).count("1")

    def count_hook(t: Tracer, span: Span | None, args: tuple, result) -> None:
        counter, f = args[0], args[1]
        t.add(f"count.count_s.q{counter.q}", span.duration)
        t.add("count.points_evaluated", counter.n_points)
        w = popcount(f.bits)
        t.add("count.xor_rows", w - 1)
        moved = 2 * counter.n_points * (w + 1)  # w row reads, one accumulator
        if f.degree > 1 and result.total:
            for p in partials(f):
                if p.bits:
                    pw = popcount(p.bits)
                    t.add("count.xor_rows", pw - 1)
                    moved += 2 * result.total * (pw + 1)
        t.add("count.bytes_moved_computed", moved)

    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def table_hook(t: Tracer, span: Span | None, args: tuple, result) -> None:
        counter, d = args[0], args[1]
        degrees = seen.setdefault(counter, set())
        if result is not None and d not in degrees:
            degrees.add(d)
            t.add("count.table_builds")
            t.add("count.table_build_s", span.duration)
            t.add("count.table_bytes", result.nbytes)

    def mul_arr_hook(t: Tracer, span: Span | None, args: tuple, result) -> None:
        t.add("gf2m.mul_arr_elems", len(result))

    def run_range_hook(t: Tracer, span: Span | None, args: tuple, result) -> None:
        engine = args[0]
        t.add("orbit.orbits_emitted", len(result))
        t.add("orbit.trivial", sum(info.trivially_reducible for info in result))
        t.counters["orbit.table_bytes"] = engine.table.nbytes
        t.counters["orbit.masks_scanned"] = engine.position - 1

    def pack_hook(t: Tracer, span: Span | None, args: tuple, result) -> None:
        t.add("orbit.pack_state_bytes", len(result[1]))

    def certify_hook(t: Tracer, span: Span | None, args: tuple, result) -> None:
        t.add(f"irred.outcome.{result.absolute}")

    W = tracer.wrap
    W(gf2m.FieldTable, "mul_arr", "gf2m", "gf2m.mul_arr", hook=mul_arr_hook)
    W(search, "build_field", "gf2m", "gf2m.build_field")
    W(count, "partials", "polyrep", "polyrep.partials", span=False)
    W(irred, "partials", "polyrep", "polyrep.partials", span=False)
    W(irred, "evaluate", "polyrep", "polyrep.evaluate", span=False)
    W(orbit.SieveEngine, "run_range", "orbit", "orbit.run_range", hook=run_range_hook)
    W(orbit.SieveEngine, "pack_state", "orbit", "orbit.pack_state", hook=pack_hook)
    W(search, "orbit_of", "orbit", "orbit.orbit_of")
    W(count.PointCounter, "count", "count", "count.count", hook=count_hook)
    W(count.PointCounter, "monomial_table", "count", "count.monomial_table",
      hook=table_hook)
    W(search, "analyze_singular_point", "singular", "singular.analyze_point")
    W(search, "blowup_points_estimate", "singular", "singular.blowup")
    W(singular, "factor_binary_form", "singular", "singular.factor_form")
    W(search, "certify_absolute", "irred", "irred.certify", hook=certify_hook)
    W(irred, "find_simple_point", "irred", "irred.simple_point")
    W(search, "genus_interval", "bounds", "bounds.genus_interval")
    W(search, "smooth_model_range", "bounds", "bounds.smooth_model_range")
    W(search.CurvePipeline, "count_all", "search", "search.count_all")
    W(search.CurvePipeline, "analyze", "search", "search.analyze")
    W(search.CurvePipeline, "quick_genus", "search", "search.quick_genus")
    W(search.CurvePipeline, "meets_threshold", "search", "search.meets_threshold")
    W(search, "read_catalog", "search", "search.read_catalog")
    W(search, "write_catalog", "search", "search.write_catalog")
    W(corpus, "verify", "corpus", "corpus.verify")


def traced_run(w: workloads.Workload, seed: int, tmp: Path) -> dict:
    """One single-process run of the workload's entry call under the tracer.

    The entry call itself is the root span, so the spans' self times add up
    to its duration; `untraced_s` is the part of the timed region outside
    the root span (the timer's own bookkeeping).
    """
    from curvesearch import corpus, search

    tracer = Tracer()
    install(tracer)
    try:
        if w.kind == "search":
            tracer.wrap(search, "run_search", "search", "search.run_search", root=True)
            out = workloads.run_search_workload(w, tmp, jobs=1)
        elif w.kind == "corpus":
            tracer.wrap(corpus, "check_entry", "corpus", "corpus.check_entry",
                        root=True)
            out = workloads.run_corpus_workload(w, seed)
        else:
            out = workloads.run_sieve_workload(
                w, around=lambda: tracer.span("orbit", "orbit.sieve"))
    finally:
        tracer.uninstall()
    out["spans"] = len(tracer.spans)
    out["metrics"] = _summarize(tracer, out)
    out.pop("catalog", None)
    return out


def _summarize(tracer: Tracer, out: dict) -> dict[str, float]:
    c = tracer.counters
    m: dict[str, float] = {name: 0.0 for name in METRICS}

    def calls(name: str) -> float:
        return c.get(f"{name}.calls", 0.0)

    m["gf2m.build_field_calls"] = calls("gf2m.build_field")
    m["gf2m.build_field_s"] = tracer.total_s("gf2m.build_field")
    m["gf2m.mul_arr_calls"] = calls("gf2m.mul_arr")
    m["gf2m.mul_arr_elems"] = c.get("gf2m.mul_arr_elems", 0.0)
    m["gf2m.mul_arr_s"] = tracer.total_s("gf2m.mul_arr")
    m["polyrep.partials_calls"] = calls("polyrep.partials")
    m["polyrep.evaluate_calls"] = calls("polyrep.evaluate")

    m["orbit.run_range_calls"] = calls("orbit.run_range")
    m["orbit.run_range_s"] = tracer.total_s("orbit.run_range")
    m["orbit.masks_scanned"] = c.get("orbit.masks_scanned", 0.0)
    m["orbit.orbits_emitted"] = c.get("orbit.orbits_emitted", 0.0)
    if m["orbit.orbits_emitted"]:
        m["orbit.trivial_frac"] = c.get("orbit.trivial", 0.0) / m["orbit.orbits_emitted"]
    m["orbit.pack_state_s"] = tracer.total_s("orbit.pack_state")
    m["orbit.pack_state_bytes"] = c.get("orbit.pack_state_bytes", 0.0)
    m["orbit.table_bytes"] = c.get("orbit.table_bytes", 0.0)
    m["orbit.orbit_of_calls"] = calls("orbit.orbit_of")
    m["orbit.orbit_of_s"] = tracer.total_s("orbit.orbit_of")

    m["count.count_calls"] = calls("count.count")
    m["count.count_s"] = tracer.total_s("count.count")
    for q in FIELD_ORDERS:
        m[f"count.count_s.q{q}"] = c.get(f"count.count_s.q{q}", 0.0)
    for key in ("points_evaluated", "xor_rows", "bytes_moved_computed",
                "table_builds", "table_build_s", "table_bytes"):
        m[f"count.{key}"] = c.get(f"count.{key}", 0.0)

    m["singular.analyze_point_calls"] = calls("singular.analyze_point")
    m["singular.analyze_point_s"] = tracer.total_s("singular.analyze_point")
    m["singular.blowup_calls"] = calls("singular.blowup")
    m["singular.blowup_s"] = tracer.total_s("singular.blowup")
    m["singular.factor_form_calls"] = calls("singular.factor_form")
    m["singular.factor_form_s"] = tracer.total_s("singular.factor_form")

    certify_ms = [1e3 * s.duration for s in tracer.by_name("irred.certify")]
    m["irred.certify_calls"] = float(len(certify_ms))
    m["irred.certify_s"] = sum(certify_ms) / 1e3
    m["irred.certify_p50_ms"] = statistics.median(certify_ms) if certify_ms else 0.0
    m["irred.certify_tail_pct"], m["irred.certify_tail_ms"] = tail(certify_ms)
    m["irred.simple_point_calls"] = calls("irred.simple_point")
    m["irred.simple_point_s"] = tracer.total_s("irred.simple_point")
    for outcome in ("yes", "unknown", "reducible"):
        m[f"irred.outcome.{outcome}"] = c.get(f"irred.outcome.{outcome}", 0.0)
    if certify_ms:
        m["irred.unknown_frac"] = m["irred.outcome.unknown"] / len(certify_ms)

    m["bounds.genus_interval_calls"] = calls("bounds.genus_interval")
    m["bounds.genus_interval_s"] = tracer.total_s("bounds.genus_interval")
    m["bounds.smooth_model_range_s"] = tracer.total_s("bounds.smooth_model_range")

    m["search.count_all_calls"] = calls("search.count_all")
    m["search.analyze_calls"] = calls("search.analyze")
    m["search.analyze_s"] = tracer.total_s("search.analyze")
    m["search.analyze_self_s"] = tracer.self_by_name("search.analyze")
    m["search.quick_genus_s"] = tracer.total_s("search.quick_genus")
    m["search.meets_threshold_s"] = tracer.total_s("search.meets_threshold")
    m["search.catalog_io_s"] = (tracer.total_s("search.read_catalog")
                                + tracer.total_s("search.write_catalog"))
    stats = out.get("stats")
    if stats:
        if stats["counted"]:
            m["search.kept_frac"] = stats["kept"] / stats["counted"]
            m["count.calls_per_orbit"] = m["count.count_calls"] / (
                stats["counted"] * out["n_fields"])
        m["search.drop.threshold"] = stats["dropped_threshold"]
        m["search.drop.inconsistent"] = stats["dropped_inconsistent"]
        m["search.drop.reducible"] = stats["dropped_reducible"]

    m["corpus.verify_calls"] = calls("corpus.verify")
    m["corpus.verify_s"] = tracer.total_s("corpus.verify")
    m["corpus.check_self_s"] = tracer.self_by_name("corpus.check_entry")

    by_layer = tracer.self_by_layer()
    traced = sum(by_layer.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
        m[f"{layer}.self_frac"] = by_layer.get(layer, 0.0) / traced if traced else 0.0
    m["trace.wall_s"] = out["wall_s"]
    m["trace.untraced_s"] = out["wall_s"] - traced
    return m
