"""Workload definitions: the entry call each repetition times, and its checks.

Everything here runs inside one child process per repetition (see
child.py), so module-level caches of curvesearch (build_field,
_find_factor_mask, _byte_luts, monomials) start cold every time.
curvesearch is imported inside the functions, never at module level, so
that run.py can read the workload table without importing numpy.

A workload's `run` returns a dict with the entry call's wall time, its
work count, and the outcome of its checks: `attempted` and `failed` count
checked outputs, and `problems` lists the first few failures in words.
"""

from __future__ import annotations

import gzip
import json
import random
import resource
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
ALL_FIELDS = tuple(1 << m for m in range(3, 12))  # F_8 .. F_2048


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "search" | "corpus" | "sieve"
    params: dict = field(default_factory=dict)
    reference: str | None = None  # file under reference/
    setup_samples: int = 2
    reps: int = 1  # fewest repetitions of the entry call in a --trace 0 run


WORKLOADS: dict[str, Workload] = {}


def _cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Clock:
    """Wall and CPU time of a block; CPU counts self plus waited-for children
    (a pool's workers count once the pool has been joined)."""

    def __enter__(self) -> "Clock":
        self._cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = (_cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
                      - self._cpu0)


def _add(w: Workload) -> None:
    WORKLOADS[w.name] = w


# Count-heavy: the degree-5 search over all nine fields at the wide margin
# of acceptance criterion 5; F_2048 counts dominate.
_add(Workload("d5-nine", "search", dict(
    degree=5, fields=ALL_FIELDS, keep_margin=80, jobs=2,
    range_bits=11, stop_after_ranges=19,
), reference="d5-nine.jsonl.gz"))

# Certification-heavy: the opening of the paper's degree-6 nine-field run
# at the default margin; certify_absolute dominates.
_add(Workload("d6-nine", "search", dict(
    degree=6, fields=ALL_FIELDS, keep_margin=15, jobs=2,
    range_bits=10, stop_after_ranges=2049,
), reference="d6-nine.jsonl.gz"))

# Per-curve verification: full monomial tables for one curve each, and a
# heavy certification tail.  A fixed subset of the shipped corpus, in an
# order shuffled by the seed.  Single-threaded Python like this slows by up
# to 40% for tens of seconds when other tenants load the host, so one ~12 s
# repetition spread 11-25% between ten runs; the median of three, ~35 s of
# measuring, spread 9%.
_add(Workload("corpus", "corpus", dict(
    max_q=512, skip=("f64-g8-3", "f128-g8", "f256-g9-2"),
), setup_samples=6, reps=3))

# Sieve and checkpoint packing over the 2^28-mask degree-6 space.  Run by
# hand only: it is not in BENCHMARK.json (see README.md).
_add(Workload("d6-sieve", "sieve", dict(
    degree=6, span_bits=20, ranges=2,
), reference="d6-sieve.json", setup_samples=6))

# Tiny variants for the harness self-tests (not part of BENCHMARK.json).
_add(Workload("tiny-search", "search", dict(
    degree=3, fields=(8, 16), keep_margin=15, jobs=1,
    range_bits=6, stop_after_ranges=None,
), reference="tiny-search.jsonl.gz", setup_samples=1))
_add(Workload("tiny-corpus", "corpus", dict(max_q=16, limit=3), setup_samples=1,
              reps=2))
_add(Workload("tiny-sieve", "sieve", dict(degree=4, span_bits=10, ranges=None),
              setup_samples=1))


# -- set-up ---------------------------------------------------------------------


def setup(w: Workload) -> None:
    """The construction the entry call does before its first curve or mask."""
    if w.kind == "search":
        from curvesearch.bounds import load_lauter
        from curvesearch.orbit import SieveEngine
        from curvesearch.search import CurvePipeline

        d = w.params["degree"]
        pipe = CurvePipeline(w.params["fields"], load_lauter())
        for counter in pipe.counters.values():
            counter.monomial_table(d)
            if d > 1:
                counter.monomial_table(d - 1)
        SieveEngine(d)
    elif w.kind == "corpus":
        from curvesearch.corpus import load_corpus

        load_corpus()
    else:
        from curvesearch.orbit import SieveEngine, enumerate_gl3

        SieveEngine(w.params["degree"])
        enumerate_gl3()


# -- search -----------------------------------------------------------------------


def run_search_workload(w: Workload, tmp: Path, *, jobs: int | None = None,
                        reference: list[str] | None = None) -> dict:
    from curvesearch import search

    out_path = str(tmp / f"{w.name}.jsonl")
    params = dict(w.params, jobs=jobs or w.params["jobs"])
    cfg = search.SearchConfig(out_path=out_path, **params)
    stats = search.SearchStats()
    attempted, failed = 1, 0  # the entry call itself ends normally
    problems: list[str] = []
    with warnings.catch_warnings(record=True) as caught, Clock() as clock:
        warnings.simplefilter("always")
        try:
            search.run_search(cfg, stats=stats)
        except InterruptedError:
            pass  # the stop_after_ranges hook: the workload's normal end
        except Exception as exc:
            failed += 1
            problems.append(_raised("run_search", exc))
    lines: list[str] = []
    try:
        records = search.read_catalog(out_path, lenient_tail=True)
        lines = [rec.to_json() for rec in search.finalize_catalog(records)]
        if reference is None:
            reference = load_reference(w)
        n, bad, found = compare_catalogs(lines, reference)
        attempted, failed, problems = attempted + n + 1, failed + bad, problems + found
        if stats.kept != len(lines):
            failed += 1
            problems.append(f"stats.kept={stats.kept} but the catalog has "
                            f"{len(lines)} records")
    except Exception as exc:  # a check that raises is a failed check
        attempted, failed = attempted + 1, failed + 1
        problems.append(_raised("catalog check", exc))
    return dict(
        wall_s=clock.wall_s, cpu_s=clock.cpu_s, items=stats.counted,
        attempted=attempted, failed=failed, problems=problems[:5],
        stats=vars(stats), jobs=cfg.jobs, n_fields=len(cfg.fields),
        warnings=len(caught), catalog=lines,
    )


def _raised(what: str, exc: Exception) -> str:
    return f"{what} raised {type(exc).__name__}: {exc}"


def load_reference(w: Workload) -> list[str]:
    if w.reference is None:
        raise ValueError(f"workload {w.name} has no pinned reference")
    text = gzip.decompress((REFERENCE / w.reference).read_bytes()).decode()
    return [ln for ln in text.splitlines() if ln.strip()]


def compare_catalogs(got: list[str], ref: list[str]) -> tuple[int, int, list[str]]:
    """Record-by-record comparison against a pinned catalog.

    Returns (attempted, failed, problems); one check per mask in either
    catalog.  The one allowed difference is irreducibility "unknown" in the
    reference becoming "yes" with a certificate field k, with the
    irreducibility-unknown flag dropped; everything else must be equal.
    """
    problems: list[str] = []

    def by_mask(lines: list[str], label: str) -> dict[str, dict]:
        out = {}
        for n, ln in enumerate(lines):
            try:
                obj = json.loads(ln)
                out[obj["mask"]] = obj
            except (ValueError, KeyError, TypeError):
                out[f"<{label} line {n}>"] = {}
                problems.append(f"{label} line {n} does not parse")
        return out

    g = by_mask(got, "catalog")
    r = by_mask(ref, "reference")
    failed = len(problems)
    for mask in sorted(set(g) | set(r)):
        if mask.startswith("<"):
            continue
        if mask not in g:
            failed += 1
            problems.append(f"{mask}: missing from catalog")
        elif mask not in r:
            failed += 1
            problems.append(f"{mask}: not in reference")
        elif not _records_agree(g[mask], r[mask]):
            failed += 1
            problems.append(f"{mask}: record differs from reference")
    return len(set(g) | set(r)), failed, problems


def _records_agree(got: dict, ref: dict) -> bool:
    if got == ref:
        return True
    gi, ri = got.get("irreducibility", {}), ref.get("irreducibility", {})
    if not (ri.get("absolute") == "unknown" and gi.get("absolute") == "yes"
            and isinstance(gi.get("k"), int)):
        return False
    ref_flags = [f for f in ref.get("flags", []) if f != "irreducibility-unknown"]
    return ({**got, "irreducibility": None, "flags": None}
            == {**ref, "irreducibility": None, "flags": None}
            and got.get("flags") == ref_flags)


# -- corpus --------------------------------------------------------------------------


def corpus_entries(w: Workload, seed: int):
    from curvesearch.corpus import load_corpus

    skip = w.params.get("skip", ())
    entries = [e for e in load_corpus()
               if e.q <= w.params["max_q"] and e.id not in skip]
    entries = entries[: w.params.get("limit", len(entries))]
    random.Random(seed).shuffle(entries)
    return entries


def run_corpus_workload(w: Workload, seed: int, *, check=None) -> dict:
    from curvesearch import corpus

    check = check or corpus.check_entry
    entries = corpus_entries(w, seed)
    latencies: list[float] = []
    failed = 0
    problems: list[str] = []
    with Clock() as clock:
        for entry in entries:
            t = time.perf_counter()
            try:
                res = check(entry)
                ok, why = res.passed, "; ".join(res.failures)
            except Exception as exc:  # a check that raises is a failed check
                ok, why = False, _raised("check_entry", exc)
            latencies.append(time.perf_counter() - t)
            if not ok:
                failed += 1
                problems.append(f"{entry.id}: {why}")
    return dict(
        wall_s=clock.wall_s, cpu_s=clock.cpu_s, items=len(entries),
        attempted=len(entries), failed=failed, problems=problems[:5],
        latencies_s=latencies, order=[e.id for e in entries],
    )


# -- sieve ------------------------------------------------------------------------------


def run_sieve_workload(w: Workload, around=nullcontext) -> dict:
    """The scan, timed; `around()` is entered inside the timer (the traced
    run passes its root span)."""
    from curvesearch.orbit import SieveEngine

    p = w.params
    engine = SieveEngine(p["degree"])
    span = 1 << p["span_bits"]
    total = trivial = size_sum = 0
    ranges = 0
    samples = []
    with Clock() as clock, around():
        while not engine.done and (p["ranges"] is None or ranges < p["ranges"]):
            infos = engine.run_range(span)
            engine.pack_state()
            ranges += 1
            total += len(infos)
            for info in infos:
                trivial += info.trivially_reducible
                size_sum += info.orbit_size
            samples.extend(infos[:: max(1, len(infos) // 16)][:16])
    scanned = engine.position - 1
    try:
        attempted, failed, problems = check_sieve(
            w, engine, scanned, total, trivial, size_sum, samples)
    except Exception as exc:  # a check that raises is a failed check
        attempted, failed, problems = 1, 1, [_raised("sieve check", exc)]
    return dict(
        wall_s=clock.wall_s, cpu_s=clock.cpu_s, items=scanned,
        attempted=attempted, failed=failed, problems=problems[:5],
        orbits=total, trivial=trivial, size_sum=size_sum, ranges=ranges,
    )


def check_sieve(w, engine, scanned, total, trivial, size_sum, samples):
    """Counts against the pinned reference (or, for a full scan, against
    the partition identity), plus orbit_of on a fixed sample of emitted
    representatives: each must be its orbit's minimum with the stated size."""
    from curvesearch.orbit import orbit_of

    checks: list[tuple[bool, str]] = []
    if w.reference is not None:
        ref = json.loads((REFERENCE / w.reference).read_text())
        got = dict(masks_scanned=scanned, orbits=total, trivial=trivial,
                   size_sum=size_sum)
        for key, want in ref.items():
            checks.append((got.get(key) == want,
                           f"{key}: expected {want}, got {got.get(key)}"))
    if engine.done:
        checks.append((size_sum == engine.space,
                       f"orbit sizes sum to {size_sum}, expected {engine.space}"))
    for info in samples:
        orbit = orbit_of(info.rep)
        checks.append((
            len(orbit) == info.orbit_size and min(p.bits for p in orbit) == info.rep_bits,
            f"{info.rep.mask_id}: orbit_of disagrees with the sieve",
        ))
    problems = [why for ok, why in checks if not ok]
    return len(checks), len(problems), problems


def pin(w: Workload, seed: int, tmp: Path) -> dict:
    """Run a workload unchecked and write its outputs as the reference."""
    path = REFERENCE / w.reference
    path.parent.mkdir(exist_ok=True)
    if w.kind == "search":
        out = run_search_workload(w, tmp, reference=[])
        text = "".join(ln + "\n" for ln in out["catalog"])
        path.write_bytes(gzip.compress(text.encode(), mtime=0))
    else:
        out = run_sieve_workload(replace(w, reference=None))
        ref = {k: out[k] for k in ("orbits", "trivial", "size_sum")}
        path.write_text(json.dumps(dict(masks_scanned=out["items"], **ref),
                                   indent=1) + "\n")
    return out


def run(w: Workload, seed: int, tmp: Path) -> dict:
    if w.kind == "search":
        return run_search_workload(w, tmp)
    if w.kind == "corpus":
        return run_corpus_workload(w, seed)
    return run_sieve_workload(w)
