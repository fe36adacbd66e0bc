"""Pipeline, checkpointing, parallel invariance, CLI surfaces."""

import hashlib
import json
import multiprocessing
import os
import random
import signal
import struct
import threading
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from itertools import product

import oracles
import pytest
from oracles import conjugate_cubic_norm, mul_masks, search_records

from curvesearch import cli, search, singular
from curvesearch.bounds import GenusInconsistency, load_lauter
from curvesearch.cli import main
from curvesearch.corpus import load_corpus
from curvesearch.count import JointCounter, PointCounter, count_points
from curvesearch.gf2m import build_field
from curvesearch.orbit import SieveEngine, orbit_of
from curvesearch.polyrep import (
    PolyMask,
    full_mask,
    is_trivially_reducible,
    parse_mask_id,
    parse_poly,
)
from curvesearch.search import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ConfigError,
    CurvePipeline,
    CurveRecord,
    SearchConfig,
    SearchStats,
    WorkerLost,
    read_catalog,
    report,
    run_search,
    verify,
    write_catalog,
)


def test_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(degree=7, fields=(8,))
    with pytest.raises(ConfigError):
        SearchConfig(degree=4, fields=())
    with pytest.raises(ConfigError):
        SearchConfig(degree=4, fields=(7,))
    with pytest.raises(ConfigError):
        SearchConfig(degree=4, fields=(8, 8))
    cfg = SearchConfig(degree=6, fields=(8, 1024))
    assert cfg.long_run


def test_config_rejects_negative_range_bits_and_stop():
    # Neither may reach the driver: a negative span is no shift count, and a
    # stop below one range cannot be honoured.
    for bad in (dict(range_bits=-1), dict(stop_after_ranges=0),
                dict(stop_after_ranges=-1)):
        with pytest.raises(ConfigError):
            SearchConfig(degree=4, fields=(64,), **bad)
    SearchConfig(degree=4, fields=(64,), range_bits=0, stop_after_ranges=1)


def test_threshold_outside_checkpoint_field_rejected(tmp_path, capsys):
    # A checkpoint stores the margin as a signed 32-bit integer: a margin
    # outside it is refused before any sieving, with exit 2 and no
    # traceback, and the extremes inside it round-trip through a checkpoint.
    ck, out = tmp_path / "ck.bin", tmp_path / "cat.jsonl"
    for bad in (1 << 31, 3_000_000_000, -(1 << 31) - 1):
        assert main(["search", "--degree", "2", "--fields", "8",
                     "--threshold", str(bad), "--checkpoint", str(ck),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "keep_margin" in err and "Traceback" not in err
        assert not ck.exists()
    for margin in ((1 << 31) - 1, -(1 << 31) + 1):
        cfg = SearchConfig(degree=2, fields=(8,), keep_margin=margin,
                           checkpoint_path=str(ck), out_path=str(out))
        assert run_search(cfg) == b""
        # The load checks the stored margin against cfg's; 2^6 ends the scan.
        assert search._checkpoint_load(str(ck), cfg, load_lauter()) == (1 << 6, 0, 0)
        ck.unlink()


def test_degree4_f64_finds_the_two_record_quartics():
    stats = SearchStats()
    records = search_records(SearchConfig(degree=4, fields=(64,)), stats=stats)
    hits = [r for r in records if r.counts[64].smooth == 113 and r.genus == (3, 3)]
    assert len(hits) == 2
    for rec in hits:
        assert rec.absolute == "yes"
        assert rec.n_range[64] == (113, 113)
    assert stats.orbits_seen == 279
    assert stats.orbits_seen == stats.orbits_trivial + stats.counted


def test_workers_get_only_countable_orbits(monkeypatch):
    # The parent tallies trivially reducible orbits itself and dispatches no
    # empty batch, so most of the 32 ranges send nothing.
    batches = []
    real_process = search._process_orbits

    def process(batch, pipe, margin):
        batches.append(batch)
        return real_process(batch, pipe, margin)

    monkeypatch.setattr(search, "_process_orbits", process)
    stats = SearchStats()
    run_search(SearchConfig(degree=4, fields=(64,), jobs=1, range_bits=10),
               stats=stats)
    assert batches and all(0 < len(b) <= 64 for b in batches)
    assert not any(info.trivially_reducible for b in batches for info in b)
    assert sum(len(b) for b in batches) == stats.counted
    assert stats.orbits_seen == stats.orbits_trivial + stats.counted == 279
    assert stats.orbits_trivial == 66


def test_pipelined_stop_and_resume_match_serial_run(tmp_path, monkeypatch):
    # Two workers, with the parent sieving one range ahead, stopped by the
    # hook and resumed: the catalog equals a serial run's byte for byte, the
    # stop sieves no range past the third, and the checkpoint holds the
    # state after the ranges written, not after the lookahead.
    base = dict(degree=4, fields=(8, 64), range_bits=10)
    serial, piped, ck = (tmp_path / n for n in ("serial.jsonl", "piped.jsonl", "ck.bin"))
    assert run_search(SearchConfig(out_path=str(serial), jobs=1, **base)) == b""
    position = 1 + 3 * (1 << 10)

    sieved = 0
    real_range = SieveEngine.run_range

    def run_range(self, span):
        nonlocal sieved
        sieved += 1
        return real_range(self, span)

    monkeypatch.setattr(SieveEngine, "run_range", run_range)
    cfg = SearchConfig(out_path=str(piped), jobs=2, checkpoint_path=str(ck), **base)
    with pytest.raises(InterruptedError):
        run_search(replace(cfg, stop_after_ranges=3))
    assert sieved == 3
    pos_off = len(CHECKPOINT_MAGIC) + struct.calcsize("<BBi2H32s")
    assert struct.unpack_from("<Q", ck.read_bytes(), pos_off)[0] == position
    below = [ln for ln in serial.read_bytes().splitlines(keepends=True)
             if CurveRecord.from_json(ln).mask < position]
    assert below and piped.read_bytes() == b"".join(below)
    assert run_search(cfg) == b""
    assert piped.read_bytes() == serial.read_bytes()


def test_each_orbit_counted_once(monkeypatch):
    # One joint pass over all the search fields per counted orbit, and no
    # per-field count over a search field, the certificate's included.
    passes = calls = 0
    fields = (8, 64)
    real_pass = JointCounter.count_all
    real_count = PointCounter.count

    def joint_pass(self, f):
        nonlocal passes
        passes += 1
        assert tuple(self.counters) == fields
        return real_pass(self, f)

    def counting(self, f):
        nonlocal calls
        calls += self.q in fields
        return real_count(self, f)

    monkeypatch.setattr(JointCounter, "count_all", joint_pass)
    monkeypatch.setattr(PointCounter, "count", counting)
    stats = SearchStats()
    assert run_search(SearchConfig(degree=4, fields=fields, jobs=1), stats=stats)
    assert stats.counted
    assert passes == stats.counted
    assert calls == 0


def test_f2_singular_points_analysed_once_per_curve(monkeypatch):
    # Every listed singular point is analysed by one path.  A point with
    # {0,1} coordinates is the same F_2-point, with the same cone, in every
    # field, and the degree the analysis receives is 1 exactly there: its
    # analysis in each field reads its chart's cone cache, so the squaring
    # chain over F_2 runs once per distinct cone of each chart and degree,
    # and its cone is never expanded in a scan field.  Every other singular
    # point is analysed once per Frobenius orbit in each field it was found
    # in, by one expansion and one chain, over F_{2^k} and F_q, and its
    # conjugates copy that entry.  The blowup estimate, a lookup, is read
    # at every listed point.  An F_2 point's substitution runs once per
    # curve, however many fields list the point.
    point_calls = expected = per_field = blowups = orbits = 0
    expansions, chains, f2_chains, f2_points, substituted = 0, 0, [], [], []
    analysing = None  # the point under analysis: (f, p, field, k)
    real_point = search.analyze_singular_point
    real_blowup = search.blowup_points_estimate
    real_analyze = search.CurvePipeline.analyze
    real_expansion = singular.local_expansion
    real_chain = singular._direction_counts
    real_cone = singular.tangent_cone_at
    real_substitute = singular.substitute

    def point(f, p, field, k):
        nonlocal point_calls, analysing
        point_calls += 1
        assert (k == 1) == (max(p) <= 1)
        if k == 1:
            f2_points.append((f, p))
        analysing = f, p, field, k
        try:
            return real_point(f, p, field, k)
        finally:
            analysing = None

    def expansion(f, p, field):
        nonlocal expansions
        assert analysing[:3] == (f, p, field) and analysing[3] >= 2
        expansions += 1
        return real_expansion(f, p, field)

    def chain(form, field, ms):
        nonlocal chains
        f, p, scan, k = analysing
        if k == 1:
            assert field.m == 1 and tuple(ms) == tuple(range(1, 12))
            f2_chains.append((f.degree, p.index(1), form))
        else:
            assert field is scan and ms == (k, scan.m)
            chains += 1
        return real_chain(form, field, ms)

    def substitute(f, m):
        substituted.append((f, analysing[1]))
        return real_substitute(f, m)

    def blowup(s, field):
        nonlocal blowups
        blowups += 1
        return real_blowup(s, field)

    def analyze(self, f, orbit_size, counts, gi):
        nonlocal expected, per_field, orbits
        for q, pc in counts.items():
            field = self.counters[q].field
            n = len({frozenset(tuple(oracles.frobenius(field, c, j) for c in p)
                               for j in range(field.m))
                     for p in pc.singular_points if max(p) > 1})
            expected += n + sum(max(p) <= 1 for p in pc.singular_points)
            orbits += n
            per_field += len(pc.singular_points)
        return real_analyze(self, f, orbit_size, counts, gi)

    singular._f2_chart.cache_clear()  # every chart's cone cache starts empty
    singular._f2_cone.cache_clear()
    monkeypatch.setattr(search, "analyze_singular_point", point)
    monkeypatch.setattr(search, "blowup_points_estimate", blowup)
    monkeypatch.setattr(search.CurvePipeline, "analyze", analyze)
    monkeypatch.setattr(singular, "local_expansion", expansion)
    monkeypatch.setattr(singular, "_direction_counts", chain)
    monkeypatch.setattr(singular, "substitute", substitute)
    assert run_search(SearchConfig(degree=4, fields=(8, 16, 64), jobs=1))
    monkeypatch.undo()
    assert point_calls == expected < per_field
    assert expansions == chains == orbits > 0
    assert blowups == per_field
    f2 = build_field(1)
    cones = {(f.degree, p.index(1), real_cone(f, p, f2)) for f, p in f2_points}
    assert len(f2_points) > len(cones) > 1
    assert sorted(f2_chains) == sorted(cones)
    assert len(f2_points) > len(substituted) == len(set(substituted)) > 0
    assert set(substituted) == set(f2_points)


def test_conjugate_analyses_equal_direct_ones():
    # Oracle for the one analysis per orbit: in seeded degree-5 and degree-6
    # curves with singular points of degrees 2-4 over several fields, every
    # point's record entry (multiplicity, cone, cone type, ordinariness) is
    # what a direct analysis at that point gives.
    fields = (8, 16, 64, 256)
    pipe = CurvePipeline(fields, load_lauter())
    rng = random.Random(5)
    seen = set()
    for d in (5, 6):
        for _ in range(300):
            f = PolyMask(d, rng.randint(1, full_mask(d)))
            if is_trivially_reducible(f):
                continue
            counts = pipe.count_all(f)
            if all(k == 1 for pc in counts.values() for k in pc.singular_degrees):
                continue
            try:
                rec = pipe.analyze(f, 1, counts, pipe.quick_genus(d, counts))
            except GenusInconsistency:
                continue
            for s in rec.singular:
                direct = singular.analyze_singular_point(
                    f, s.point, pipe.counters[s.q].field, s.k)
                assert s == direct, (f, s)
                seen.add((s.q, s.k))
    assert {(8, 3), (16, 2), (16, 4), (64, 2), (64, 3), (256, 2), (256, 4)} <= seen


def test_singular_points_counted_exactly_across_fields():
    # Two F_2-irreducible cubics, one singular at an F_2-point, that meet in
    # conjugate orbits of degrees 4 and 5: F_16 sees the first orbit, F_32
    # the second, and no counted field sees both.  The two fields share only
    # P^2(F_2), so the singular set is the union of the brute-force scans,
    # 1 + 4 + 5 points; one field's non-F_2 points give only 1 + 5.
    f = mul_masks(parse_mask_id("d3:0x00000343"), parse_mask_id("d3:0x000000c1"))
    brute = {q: oracles.naive_count(f, build_field(q.bit_length() - 1))
             for q in (16, 32)}
    assert sorted(brute[16].singular_degrees) == [1, 4, 4, 4, 4]
    assert sorted(brute[32].singular_degrees) == [1, 5, 5, 5, 5, 5]
    f2 = [p for p in brute[16].singular_points if max(p) <= 1]
    assert f2 == [p for p in brute[32].singular_points if max(p) <= 1]
    union = [(q, p) for q, pc in brute.items() for p in pc.singular_points
             if q == 16 or max(p) > 1]
    counts = CurvePipeline((16, 32), load_lauter(None)).count_all(f)
    assert sorted(search.distinct_singular_points(counts)) == sorted(union)
    assert len(union) == 10


def test_tables_only_where_counting_repeats(monkeypatch):
    # Single-curve calls evaluate the curve's own monomials; the search
    # builds one joint table, of its degree, once, before counting (the
    # partials are read off it).
    events = []
    real_build = JointCounter._build_table
    real_count = PointCounter.count
    real_pass = JointCounter.count_all

    def build(self, d):
        events.append(("build", tuple(self.counters), d))
        return real_build(self, d)

    def counting(self, f):
        events.append(("count", self.q, f.degree))
        return real_count(self, f)

    def joint_pass(self, f):
        events.append(("count", tuple(self.counters), f.degree))
        return real_pass(self, f)

    monkeypatch.setattr(JointCounter, "_build_table", build)
    monkeypatch.setattr(PointCounter, "count", counting)
    monkeypatch.setattr(JointCounter, "count_all", joint_pass)
    f = parse_poly("x^5 + y^5 + z^5")
    assert verify(f, 64).counts[64].smooth == count_points(f, build_field(6)).smooth
    assert ("count", 64, 5) in events
    assert not [e for e in events if e[0] == "build"]

    # The certificate counts the fields the search does not cover (F_16,
    # F_32, F_256, ...) one curve at a time, without tables.
    events.clear()
    fields = (64, 128)
    assert run_search(SearchConfig(degree=4, fields=fields, jobs=1))
    first_count = next(i for i, e in enumerate(events) if e[0] == "count")
    builds = [e for e in events if e[0] == "build"]
    assert builds == [("build", fields, 4)]
    assert events[:first_count] == builds
    assert events[first_count] == ("count", fields, 4)


def test_production_decides_without_scans(monkeypatch):
    # F_2 witnesses come from the normal forms, absolute irreducibility from
    # smooth-point counts and cone types from gcd root counts: the search and
    # `verify` run no trial division and no direction scan, both of which
    # stay as test oracles.  Over the nine fields, the certificate reads its
    # smooth points from the search's counts and counts nothing itself.
    sweeps, scans, witnesses = [], 0, []
    certifying, certificate_counts = False, 0
    real_sweep = oracles._sweep
    real_scan = singular.factor_binary_form
    real_certify = search.certify_absolute
    real_count = PointCounter.count

    def sweep(f, degrees, k):
        sweeps.append(k)
        return real_sweep(f, degrees, k)

    def scan(*args):
        nonlocal scans
        scans += 1
        return real_scan(*args)

    def counting(self, f):
        nonlocal certificate_counts
        certificate_counts += certifying
        return real_count(self, f)

    def certify(f, counts):
        nonlocal certifying
        certifying = True
        try:
            status = real_certify(f, counts)
        finally:
            certifying = False
        witnesses.append(status.witness)
        return status

    monkeypatch.setattr(oracles, "_sweep", sweep)
    monkeypatch.setattr(singular, "factor_binary_form", scan)
    monkeypatch.setattr(PointCounter, "count", counting)
    monkeypatch.setattr(search, "certify_absolute", certify)
    pipe = search.CurvePipeline(search.SUPPORTED_FIELDS, load_lauter())
    pipe.joint.monomial_table(5)  # as `run_search` builds it
    engine = SieveEngine(5)
    engine.run_range(1 << 15)  # trivially reducible masks only
    records, stats = search._process_orbits(engine.run_range(1 << 11), pipe, 80)
    assert stats.counted > 200 and len(records) > 200
    assert certificate_counts == 0
    assert {"u v", "u^2+u v+v^2", "u v^2", "(u+v)(u^2+u v+v^2)"} <= {
        s.cone_type for r in records for s in r.singular}
    for entry in load_corpus():
        assert verify(entry.poly, entry.q).absolute == "yes", entry.id
    prod = mul_masks(PolyMask(1, 0b011), parse_poly("x^5 + x*y^3*z + y^4*z + z^5"))
    want = str(real_sweep(prod, range(1, 4), 1))  # trial division's witness
    assert verify(prod, 8).witness == want == "F_{2^1}: x + y"
    rec = verify(conjugate_cubic_norm(), 8)  # reducible over F_4 only
    assert (rec.absolute, rec.witness) == ("reducible", None)
    assert [w for w in witnesses if w is not None] == [parse_poly("x + y")]
    assert sweeps == [] and scans == 0


@pytest.mark.parametrize("q", [8, 16])
def test_only_certified_curves_are_analysed(monkeypatch, q):
    # Over one field at margin 80 `analyze` meets curves that are not
    # absolutely irreducible.  It certifies each orbit it is given once, and
    # a record is analysed exactly when the certificate says "yes": no other
    # record carries a singular entry, a bound or a flag.
    verdicts, records = [], []
    real_certify, real_analyze = search.certify_absolute, CurvePipeline.analyze

    def certify(f, counts):
        verdicts.append((f, real_certify(f, counts)))
        return verdicts[-1][1]

    def analyze(self, *args):
        records.append(real_analyze(self, *args))
        return records[-1]

    monkeypatch.setattr(search, "certify_absolute", certify)
    monkeypatch.setattr(CurvePipeline, "analyze", analyze)
    stats = SearchStats()
    catalog = run_search(SearchConfig(degree=4, fields=(q,), keep_margin=80),
                         stats=stats)
    assert len(verdicts) == len(records) == stats.kept + stats.dropped_reducible
    assert stats.dropped_reducible > 0
    assert catalog.decode() == "".join(
        r.to_json() + "\n" for r in records if r.absolute == "yes")
    for rec, (f, status) in zip(records, verdicts):
        assert (rec.mask, rec.absolute) == (f.bits, status.absolute)
        if status.absolute == "yes":
            assert set(rec.n_range) == {q} and rec.theorem1_ok in (None, True)
            continue
        assert (rec.singular, rec.n_range, rec.flags, rec.theorem1_ok,
                rec.genus) == ((), {}, (), None, (0, 3))


def test_verify_gives_one_record_to_curves_not_absolutely_irreducible(monkeypatch):
    # A product with an F_2 factor and the norm of a conjugate pair of
    # cubics reach `analyze`; the cubic of the [crossed] corpus entry in
    # test_corpus.py, divisible by x + z, crosses its genus interval first.  Each gets the one record of
    # a curve that is not absolutely irreducible: counts, orbit size, the
    # singular points seen and the certificate, genus [0, p_a], and no N
    # range, singular entry or flag.  Each `verify` certifies once.
    calls = 0
    real_certify = search.certify_absolute

    def certify(f, counts):
        nonlocal calls
        calls += 1
        return real_certify(f, counts)

    monkeypatch.setattr(search, "certify_absolute", certify)
    prod = mul_masks(PolyMask(1, 0b011), parse_poly("x^5 + x*y^3*z + y^4*z + z^5"))
    crossed = parse_poly("x^2*z + x*y^2 + x*y*z + y^2*z + y*z^2 + z^3")
    cases = [(prod, "F_{2^1}: x + y"), (conjugate_cubic_norm(), None),
             (crossed, "F_{2^1}: x + z")]
    for n, (f, witness) in enumerate(cases, 1):
        rec = verify(f, 8)
        assert calls == n
        pc = count_points(f, build_field(3))
        assert rec.counts[8][:4] == pc[:4]
        assert rec == CurveRecord(
            degree=f.degree, mask=f.bits, orbit_size=len(orbit_of(f)),
            counts=rec.counts, singular=(), r_distinct=len(pc.singular_points),
            genus=(0, (f.degree - 1) * (f.degree - 2) // 2), n_range={},
            absolute="reducible", certificate_field=None, witness=witness,
            flags=(), theorem1_ok=None)
    assert verify("x^5 + y^5 + z^5", 16).absolute == "yes" and calls == 4


def test_degree2_default_catalog_is_empty():
    assert run_search(SearchConfig(degree=2, fields=(64,))) == b""


def test_emitted_records_are_certified_and_consistent():
    records = search_records(SearchConfig(degree=3, fields=(8, 64)))
    assert records
    for rec in records:
        assert rec.absolute == "yes"
        assert rec.genus.lo <= rec.genus.hi
        assert set(rec.counts) == {8, 64}
        assert rec.theorem1_ok in (None, True)
        for q, pc in rec.counts.items():
            assert pc.total == pc.smooth + len(pc.singular_points)
            n_lo, n_hi = rec.n_range[q]
            assert pc.smooth <= n_lo <= n_hi


def test_catalog_round_trip(tmp_path):
    out = tmp_path / "catalog.jsonl"
    cfg = SearchConfig(degree=4, fields=(64,))
    # A file-backed run returns no bytes: the file is the catalog.
    assert run_search(replace(cfg, out_path=str(out))) == b""
    text = out.read_bytes()
    loaded = read_catalog(str(out))
    assert loaded and text == "".join(r.to_json() + "\n" for r in loaded).encode()
    # An in-memory run returns exactly the file's bytes, and both are the
    # same at any `jobs`.
    for jobs in (1, 2):
        assert run_search(replace(cfg, jobs=jobs, out_path=str(out))) == b""
        assert out.read_bytes() == text
        assert run_search(replace(cfg, jobs=jobs)) == text
    # canonical order
    masks = [(r.degree, r.mask) for r in loaded]
    assert masks == sorted(masks)


def test_pooled_parent_writes_bytes_only(tmp_path, monkeypatch):
    # Workers send each batch as its catalog lines: the parent of a pooled
    # run, file-backed or in memory, neither encodes nor parses a record,
    # and no record crosses the pool.  Forked workers inherit the patches.
    parent = os.getpid()
    real_to_json = CurveRecord.to_json
    real_from_json = CurveRecord.from_json

    def to_json(self):
        assert os.getpid() != parent, "the parent encoded a record"
        return real_to_json(self)

    def from_json(line):
        assert os.getpid() != parent, "the parent parsed a record"
        return real_from_json(line)

    def no_pickle(self, protocol):
        raise AssertionError("a record was pickled")

    monkeypatch.setattr(CurveRecord, "to_json", to_json)
    monkeypatch.setattr(CurveRecord, "from_json", staticmethod(from_json))
    monkeypatch.setattr(CurveRecord, "__reduce_ex__", no_pickle)
    out = tmp_path / "cat.jsonl"
    filed, in_memory = SearchStats(), SearchStats()
    cfg = SearchConfig(degree=4, fields=(8, 64), jobs=2, range_bits=10)
    assert run_search(replace(cfg, out_path=str(out)), stats=filed) == b""
    catalog = run_search(cfg, stats=in_memory)
    monkeypatch.undo()
    assert catalog == out.read_bytes()
    assert filed == in_memory and filed.kept == len(read_catalog(str(out))) > 0


def test_parent_writes_each_batch_as_it_arrives(tmp_path, monkeypatch):
    # The parent writes and merges a range's batches one by one, in order,
    # as the workers return them, not once the whole range is counted.  At
    # degree 5 over F_8 in ranges of 2^11 masks, the first 16 ranges hold
    # no countable orbit and the 17th holds 248, four batches: the worker
    # that counts the last one waits for the parent to merge the first.
    engine = SieveEngine(5)
    for _ in range(16):
        assert not any(not i.trivially_reducible for i in engine.run_range(1 << 11))
    countable = [i for i in engine.run_range(1 << 11) if not i.trivially_reducible]
    assert len(countable) == 248
    last = countable[192].rep_bits
    marker = tmp_path / "merged"
    parent = os.getpid()
    real_encode, real_merge = search._encode_orbits, search._merge_stats

    def encode(batch, pipe, margin):
        if batch[0].rep_bits == last:
            deadline = time.monotonic() + 10
            while not marker.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError("the parent held the range's first batch")
                time.sleep(0.01)
        return real_encode(batch, pipe, margin)

    def merge(total, part):
        assert os.getpid() == parent
        marker.touch()
        real_merge(total, part)

    cfg = SearchConfig(degree=5, fields=(8,), range_bits=11, stop_after_ranges=17)
    serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
    with pytest.raises(InterruptedError):
        run_search(replace(cfg, out_path=str(serial)))
    monkeypatch.setattr(search, "_encode_orbits", encode)
    monkeypatch.setattr(search, "_merge_stats", merge)
    with pytest.raises(InterruptedError):
        run_search(replace(cfg, jobs=2, out_path=str(pooled)))
    assert marker.exists() and pooled.read_bytes() == serial.read_bytes()


class _Deadline:
    """Raise TimeoutError in the main thread after `seconds`, so that a wait
    that never ends fails the test instead of hanging the suite."""

    def __init__(self, seconds: int):
        self.seconds = seconds

    def __enter__(self):
        def expire(signum, frame):
            raise TimeoutError(f"still waiting after {self.seconds} s")
        self.previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.seconds)

    def __exit__(self, *exc):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


@pytest.mark.parametrize("jobs", [2, 4])
def test_dead_worker_fails_the_search_and_the_same_command_resumes(
        tmp_path, monkeypatch, capsys, jobs):
    # A worker that exits on its second batch takes that batch with it and
    # breaks the pool: the search raises WorkerLost within seconds, with no
    # child process left, and the same configuration resumes from its
    # checkpoint to the bytes of an uninterrupted run.  The CLI prints one
    # error line and exits with 4.  At jobs=4 there are more workers than
    # cores.
    full, out, ck, died, pids = (tmp_path / n for n in (
        "full.jsonl", "out.jsonl", "ck.bin", "died", "pids"))
    cfg = SearchConfig(degree=4, fields=(8, 64), range_bits=10, jobs=jobs,
                       out_path=str(out), checkpoint_path=str(ck))
    assert run_search(replace(cfg, out_path=str(full), checkpoint_path=None)) == b""
    real_encode = search._encode_orbits
    calls, die_at = 0, 2  # calls per process: each worker forks with its own

    def encode(batch, pipe, margin):
        nonlocal calls
        calls += 1
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if calls == die_at:
            try:  # only the first worker to get here dies
                os.close(os.open(died, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return real_encode(batch, pipe, margin)

    monkeypatch.setattr(search, "_encode_orbits", encode)
    start = time.monotonic()
    with _Deadline(60), pytest.raises(WorkerLost):
        run_search(cfg)
    assert time.monotonic() - start < 15
    assert died.exists() and ck.exists()
    assert multiprocessing.active_children() == []
    for pid in set(pids.read_text().split()):
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)
    monkeypatch.undo()
    assert run_search(cfg) == b""
    assert out.read_bytes() == full.read_bytes()

    for path in (out, ck, died):
        path.unlink()
    argv = ["search", "--degree", "4", "--fields", "8,64", "--jobs", str(jobs),
            "--checkpoint", str(ck), "--out", str(out)]
    capsys.readouterr()
    monkeypatch.setattr(search, "_encode_orbits", encode)
    die_at = 1  # one range of four batches: a worker may get only one
    with _Deadline(60):
        assert main(argv) == cli.EXIT_WORKER == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    assert main(argv) == 0
    assert out.read_bytes() == full.read_bytes()


def test_idle_worker_death_fails_the_search(tmp_path, monkeypatch, capsys):
    # A worker killed while it waits for work, between two ranges, fails the
    # search just as a death mid-batch does: WorkerLost within seconds, with
    # no child process left, and the same configuration resumes from its
    # checkpoint to the bytes of an uninterrupted run.  At degree 4 over F_8
    # and F_64 in ranges of 2^10 masks, the third range holds two batches and
    # the fourth none, so once the third is checkpointed no batch is out.
    # The third range's last batch sleeps in the worker that is then killed,
    # so the other worker was waiting on the queue first.
    engine = SieveEngine(4)
    engine.skip_line_divisible()
    ranges = [[i for i in engine.run_range(n) if not i.trivially_reducible]
              for n in (1, 1 << 10, 1 << 10, 1 << 10, 1 << 10)]
    assert [len(r) for r in ranges] == [0, 113, 65, 0, 18]
    last, idle_from = ranges[2][64].rep_bits, 1 + 3 * (1 << 10)
    full, out, ck, pid = (tmp_path / n for n in ("full.jsonl", "out.jsonl",
                                                   "ck.bin", "pid"))
    cfg = SearchConfig(degree=4, fields=(8, 64), range_bits=10, jobs=2,
                       out_path=str(out), checkpoint_path=str(ck))
    assert run_search(replace(cfg, out_path=str(full), checkpoint_path=None)) == b""
    real_encode, real_save = search._encode_orbits, search._checkpoint_save

    def encode(batch, pipe, margin):
        if batch[0].rep_bits == last:
            time.sleep(0.5)
            pid.write_text(str(os.getpid()))
        return real_encode(batch, pipe, margin)

    def save(path, cfg, bounds, position, *rest):
        real_save(path, cfg, bounds, position, *rest)
        if position == idle_from:
            os.kill(int(pid.read_text()), signal.SIGKILL)

    def kill_when_idle():
        monkeypatch.setattr(search, "_encode_orbits", encode)
        monkeypatch.setattr(search, "_checkpoint_save", save)

    kill_when_idle()
    start = time.monotonic()
    with _Deadline(60), pytest.raises(WorkerLost):
        run_search(cfg)
    assert time.monotonic() - start < 15
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    assert run_search(cfg) == b""
    assert out.read_bytes() == full.read_bytes()

    for path in (out, ck, pid):
        path.unlink()
    argv = ["search", "--degree", "4", "--fields", "8,64", "--jobs", "2",
            "--checkpoint", str(ck), "--out", str(out)]
    capsys.readouterr()
    kill_when_idle()
    monkeypatch.setattr(cli, "SearchConfig", partial(SearchConfig, range_bits=10))
    with _Deadline(60):
        assert main(argv) == cli.EXIT_WORKER == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    assert main(argv) == 0
    assert out.read_bytes() == full.read_bytes()


def test_parallel_catalog_identity(tmp_path):
    base = run_search(SearchConfig(degree=4, fields=(8, 64), jobs=1))
    assert base and run_search(SearchConfig(degree=4, fields=(8, 64), jobs=4)) == base


# sha256 of catalog bytes that every change must keep, unless it says in
# CHANGES.md which catalogs it changes and why, and pins them again.
PINNED_OUTPUTS = {
    # the degree-4 search over the nine fields at the default margin
    "d4-nine": (186,
                "34000f14afe33da4c726a82d8589cb2a8dd4345cc3f0bb557a2764208b6b38b5"),
    # degree 5 over the nine fields at margin 80, the first 19 ranges of 2^11
    "d5-nine": (651,
                "cef403f4189823d8face2a0bf147dbcc9179c63d49c73771fe0324c0eea64d1f"),
    # `verify` of every corpus curve over its own field, one line each
    "corpus-verify": (83,
                      "1993bacd34a71decd2d31618461638c6e38ac13f05148f7b2d3737541fd5f18e"),
    # degree 6 over the nine fields at margin 15, the first 2,049 ranges of
    # 2^10: the x-region, counted and not scanned, and one range past it
    "d6-nine": (216,
                "51d28b093293b1c9d05087f3ec4bc61a4c0f54b5a925bd160ab859586a00cd60"),
}


def test_outputs_match_their_pins(tmp_path):
    nine = search.SUPPORTED_FIELDS
    out, out6 = tmp_path / "d5.jsonl", tmp_path / "d6.jsonl"
    with pytest.raises(InterruptedError):
        run_search(SearchConfig(degree=5, fields=nine, keep_margin=80, range_bits=11,
                                stop_after_ranges=19, out_path=str(out)))
    stats6 = SearchStats()
    with pytest.warns(UserWarning, match="long run"), pytest.raises(InterruptedError):
        run_search(SearchConfig(degree=6, fields=nine, range_bits=10,
                                stop_after_ranges=2049, out_path=str(out6)),
                   stats=stats6)
    outputs = {
        "d4-nine": run_search(SearchConfig(degree=4, fields=nine)),
        "d5-nine": out.read_bytes(),
        "corpus-verify": "".join(verify(e.poly, e.q).to_json() + "\n"
                                 for e in load_corpus()).encode(),
        "d6-nine": out6.read_bytes(),
    }
    got = {name: (text.count(b"\n"), hashlib.sha256(text).hexdigest())
           for name, text in outputs.items()}
    assert got == PINNED_OUTPUTS
    assert stats6 == SearchStats(orbits_seen=85_253, orbits_trivial=85_002,
                                 counted=251, kept=216, dropped_threshold=17,
                                 dropped_reducible=0, dropped_inconsistent=18)


def test_run_search_is_reentrant():
    # Concurrent searches keep their own pipeline and margin.
    configs = [SearchConfig(degree=4, fields=(64,), keep_margin=m)
               for m in (15, 80)]
    serial = [run_search(cfg) for cfg in configs]
    assert serial[0] != serial[1]
    results: list = [None, None]

    def run(i: int) -> None:
        results[i] = run_search(configs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
        assert not t.is_alive()
    assert results == serial


def _watch_parent(monkeypatch) -> list:
    """Patch the search so that its parent records, in order, each pool it
    forks ("fork") and each sieve range it runs, as (the range's first
    mask, whether the joint counter then holds its degree-4 table).  Under
    fork an executor starts all its workers at once, at its first submit."""
    events, joints = [], []
    real_table = JointCounter.monomial_table
    real_range = SieveEngine.run_range
    real_launch = ProcessPoolExecutor._launch_processes

    def monomial_table(self, d):
        joints.append(self)
        return real_table(self, d)

    def run_range(self, span):
        events.append((self.position,
                       bool(joints) and joints[-1]._tables.get(4) is not None))
        return real_range(self, span)

    def launch(self):
        events.append("fork")
        real_launch(self)

    monkeypatch.setattr(JointCounter, "monomial_table", monomial_table)
    monkeypatch.setattr(SieveEngine, "run_range", run_range)
    monkeypatch.setattr(ProcessPoolExecutor, "_launch_processes", launch)
    return events


@pytest.mark.parametrize("jobs", [1, 2])
def test_parent_drops_its_table_once_forked(monkeypatch, jobs):
    # With workers the parent only sieves: once its pool has forked, its
    # joint counter holds no monomial table, while the workers count with
    # the pages they forked with.  With jobs=1 the parent counts, and keeps
    # its table.  The first range's scan starts at x_end, 2^10.
    cfg = SearchConfig(degree=4, fields=(8, 64), range_bits=12)
    serial = run_search(cfg)
    events = _watch_parent(monkeypatch)
    assert run_search(replace(cfg, jobs=jobs)) == serial
    ranges = [(max(1 + k * (1 << 12), 1 << 10), jobs == 1) for k in range(8)]
    assert events == (["fork"] if jobs > 1 else []) + ranges


def test_resume_forks_before_the_replay(tmp_path, monkeypatch):
    # A resume builds the table and forks its pool before it sieves again up
    # to the checkpoint, so the workers never map the claimed-bit pages the
    # replay writes, and the parent replays without the table.  The replay
    # past x_end starts there, at 2^10.
    full, out, ck = (tmp_path / n for n in ("full.jsonl", "out.jsonl", "ck.bin"))
    cfg = SearchConfig(degree=4, fields=(8, 64), range_bits=10, jobs=2,
                       out_path=str(out), checkpoint_path=str(ck))
    assert run_search(replace(cfg, out_path=str(full), checkpoint_path=None)) == b""
    with pytest.raises(InterruptedError):
        run_search(replace(cfg, stop_after_ranges=3))
    events = _watch_parent(monkeypatch)
    assert run_search(replace(cfg, range_bits=11)) == b""
    position = 1 + 3 * (1 << 10)
    replay = [(1 << 10, False), (1 + (1 << 11), False)]
    rest = [(p, False) for p in range(position, 1 << 15, 1 << 11)]
    assert events == ["fork"] + replay + rest
    assert out.read_bytes() == full.read_bytes()


def test_resume_without_catalog_file_refused(tmp_path, capsys):
    # Only the catalog file holds the records below a checkpoint's scan
    # position, so a checkpoint without one is refused at start-up with exit
    # code 2: no checkpoint is written, and an existing one is left as it
    # is.  Degree 3 over F_8 and F_16 keeps all six of its records below
    # mask 321, and the resume with the file rebuilds the whole catalog.
    ck, out = tmp_path / "ck.bin", tmp_path / "cat.jsonl"
    cfg = SearchConfig(degree=3, fields=(8, 16), range_bits=6,
                       checkpoint_path=str(ck), out_path=str(out))
    with pytest.raises(ConfigError, match="checkpoint needs a catalog file"):
        replace(cfg, out_path=None)
    argv = ["search", "--degree", "3", "--fields", "8,16", "--checkpoint", str(ck)]
    assert main(argv) == 2
    assert "checkpoint needs a catalog file" in capsys.readouterr().err
    assert not ck.exists()
    with pytest.raises(InterruptedError):
        run_search(replace(cfg, stop_after_ranges=5))
    blob = ck.read_bytes()
    assert search._checkpoint_load(str(ck), cfg, load_lauter())[:2] == (321, 6)
    assert main(argv) == 2
    assert ck.read_bytes() == blob
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == run_search(replace(cfg, checkpoint_path=None,
                                                  out_path=None))


def test_checkpoint_resume_identity(tmp_path):
    full = run_search(SearchConfig(degree=4, fields=(64,), range_bits=12))
    out_a = tmp_path / "full.jsonl"
    assert run_search(
        SearchConfig(degree=4, fields=(64,), range_bits=12, out_path=str(out_a))
    ) == b""

    out_b = tmp_path / "resumed.jsonl"
    ck = tmp_path / "ck.bin"
    cfg = SearchConfig(
        degree=4, fields=(64,), range_bits=12, out_path=str(out_b),
        checkpoint_path=str(ck), stop_after_ranges=3,
    )
    with pytest.raises(InterruptedError):
        run_search(cfg)
    assert ck.exists()
    cfg2 = SearchConfig(
        degree=4, fields=(64,), range_bits=12, out_path=str(out_b),
        checkpoint_path=str(ck),
    )
    assert run_search(cfg2) == b""
    # byte-identical files, equal to the in-memory run, in canonical order
    assert out_a.read_bytes() == out_b.read_bytes() == full
    masks = [(r.degree, r.mask) for r in read_catalog(str(out_b))]
    assert masks == sorted(masks)


@pytest.mark.parametrize("bits_before, stop, bits_after", [(10, 3, 12), (12, 1, 10)])
def test_resume_under_another_range_size(tmp_path, monkeypatch, bits_before, stop,
                                         bits_after):
    # The checkpoint holds no range size: a run interrupted at one and
    # resumed at another replays the sieve from x_end to the position and
    # writes the same catalog, and the resumed run's stats count only orbits
    # from the position on.
    full, out, ck = (tmp_path / n for n in ("full.jsonl", "out.jsonl", "ck.bin"))
    base = dict(degree=4, fields=(64,))
    assert run_search(SearchConfig(out_path=str(full), **base)) == b""
    cfg = SearchConfig(out_path=str(out), checkpoint_path=str(ck), **base)
    with pytest.raises(InterruptedError):
        run_search(replace(cfg, range_bits=bits_before, stop_after_ranges=stop))
    position = 1 + stop * (1 << bits_before)
    starts = []
    real_range = SieveEngine.run_range

    def run_range(self, span):
        starts.append(self.position)
        return real_range(self, span)

    monkeypatch.setattr(SieveEngine, "run_range", run_range)
    stats = SearchStats()
    assert run_search(replace(cfg, range_bits=bits_after), stats=stats) == b""
    assert starts[0] == 1 << 10 and position in starts
    assert out.read_bytes() == full.read_bytes()
    later = [i for i in oracles.sieve_all(4) if i.rep_bits >= position]
    assert 0 < stats.orbits_seen == len(later)


@pytest.mark.parametrize("degree, fields, range_bits, stop", [
    (3, (8, 16), 4, None),  # a fresh run, from mask 1
    (3, (8, 16), 4, 1),  # a resume at 17, inside the x-region [1, 64)
    (4, (64,), 10, 3),  # a resume at 3073, past x_end 2^10
])
def test_each_start_matches_the_exhaustive_scan(tmp_path, degree, fields, range_bits,
                                                stop):
    # A fresh run and a resume past x_end count the x-region's orbits and
    # scan from x_end; a resume inside it replays and scans from mask 1.  In
    # each case the catalog is that of every orbit the sieve emits from mask
    # 1 on, byte for byte, and the run's stats count exactly the orbits from
    # its start position on.
    out, ck = tmp_path / "out.jsonl", tmp_path / "ck.bin"
    cfg = SearchConfig(degree=degree, fields=fields, range_bits=range_bits,
                       out_path=str(out), checkpoint_path=str(ck))
    position = 1
    if stop is not None:
        with pytest.raises(InterruptedError):
            run_search(replace(cfg, stop_after_ranges=stop))
        position = 1 + stop * (1 << range_bits)
    stats = SearchStats()
    assert run_search(cfg, stats=stats) == b""
    infos = oracles.sieve_all(degree)
    countable = [i for i in infos if not i.trivially_reducible]
    pipe = CurvePipeline(fields, load_lauter())
    text, kept, _ = search._encode_orbits(countable, pipe, cfg.keep_margin)
    assert out.read_bytes() == text and kept > 0
    later = [i for i in infos if i.rep_bits >= position]
    assert later and stats.orbits_seen == len(later)
    assert stats.orbits_trivial == sum(i.trivially_reducible for i in later)
    assert stats.counted == len(later) - stats.orbits_trivial
    assert stats.kept == sum(CurveRecord.from_json(ln).mask >= position
                             for ln in text.splitlines())


@pytest.mark.parametrize("range_bits, stop, stale", [
    (10, 3, True), (12, 1, True),
    (12, 3, False),  # one record past the checkpoint, torn
])
def test_resume_cuts_stale_records_and_torn_tail(tmp_path, monkeypatch, range_bits,
                                                 stop, stale):
    # A kill after a range's records were written but before its checkpoint
    # was saved leaves records at or past the checkpoint's scan position, and
    # a kill during a write leaves a torn last line.  The resumed file must
    # equal an uninterrupted run's, byte for byte.  The resume reads the
    # counted lines' bytes and CRC, 162 to 184 lines here, and parses only
    # the line after them.
    def forbidden(*args, **kwargs):
        raise AssertionError("a file-backed run re-read or rewrote its catalog")

    for name in ("read_catalog", "write_catalog", "finalize_catalog"):
        monkeypatch.setattr(search, name, forbidden)
    parsed = 0
    real_from_json = CurveRecord.from_json

    def from_json(line):
        nonlocal parsed
        parsed += 1
        return real_from_json(line)

    def run(argv, **hooks) -> int:
        monkeypatch.setattr(cli, "SearchConfig",
                            partial(SearchConfig, range_bits=range_bits, **hooks))
        return main(["search", "--degree", "4", "--fields", "8,64"] + argv)

    full, out, ck = (tmp_path / n for n in ("full.jsonl", "out.jsonl", "ck.bin"))
    assert run(["--out", str(full)]) == 0
    # The testing hook's InterruptedError is an OSError: exit code 2.
    assert run(["--out", str(out), "--checkpoint", str(ck)],
               stop_after_ranges=stop) == 2
    position = 1 + stop * (1 << range_bits)
    lines = full.read_bytes().splitlines(keepends=True)
    later = [ln for ln in lines
             if int(json.loads(ln)["mask"].split(":")[1], 16) >= position]
    assert len(later) >= 1 + stale
    assert out.read_bytes() == b"".join(lines[:-len(later)])
    assert len(lines) - len(later) >= 100
    torn = later[stale]
    with open(out, "ab") as fh:
        fh.write(b"".join(later[:stale]) + torn[: len(torn) // 2])
    monkeypatch.setattr(CurveRecord, "from_json", staticmethod(from_json))
    assert run(["--out", str(out), "--checkpoint", str(ck)]) == 0
    assert parsed == stale
    assert out.read_bytes() == full.read_bytes()
    # The finished checkpoint keeps the whole file and appends nothing.
    assert run(["--out", str(out), "--checkpoint", str(ck)]) == 0
    assert out.read_bytes() == full.read_bytes()
    assert parsed == stale


def test_resume_refuses_catalog_the_checkpoint_did_not_write(tmp_path, capsys):
    # Degree 3 over F_8 interrupted at scan position 113 leaves three records,
    # all below it.  An emptied file, one with a record removed, one with a
    # digit changed, and one with a record repeated after the counted lines
    # are each refused with exit code 3 and left as they were.
    out, ck = tmp_path / "out.jsonl", tmp_path / "ck.bin"
    with pytest.raises(InterruptedError):
        run_search(SearchConfig(degree=3, fields=(8,), range_bits=4,
                                checkpoint_path=str(ck), out_path=str(out),
                                stop_after_ranges=7))
    good = out.read_bytes()
    lines = good.splitlines(keepends=True)
    assert len(lines) == 3
    digit = good.index(b'"total": ') + len(b'"total": ')
    changed = good[:digit] + bytes([good[digit] ^ 1]) + good[digit + 1:]
    args = ["search", "--degree", "3", "--fields", "8", "--checkpoint", str(ck),
            "--out", str(out)]
    for damaged in (b"", b"".join(lines[:2]), lines[0] + lines[2], changed,
                    good + lines[2]):
        out.write_bytes(damaged)
        assert main(args) == 3
        assert "checkpoint" in capsys.readouterr().err
        assert out.read_bytes() == damaged
    out.write_bytes(good)
    assert main(args) == 0
    assert out.read_bytes() == run_search(SearchConfig(degree=3, fields=(8,)))


def test_checkpoint_config_mismatch_and_corruption(tmp_path):
    ck, out = tmp_path / "ck.bin", tmp_path / "cat.jsonl"
    cfg = SearchConfig(
        degree=4, fields=(64,), range_bits=12, checkpoint_path=str(ck),
        out_path=str(out), stop_after_ranges=1,
    )
    with pytest.raises(InterruptedError):
        run_search(cfg)

    other = replace(cfg, fields=(8,), stop_after_ranges=None)
    with pytest.raises(CheckpointError, match="config"):
        run_search(other)

    blob = ck.read_bytes()
    ck.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(CheckpointError, match="magic"):
        run_search(replace(cfg, stop_after_ranges=None))

    ck.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        run_search(replace(cfg, stop_after_ranges=None))

    assert len(blob) == len(CHECKPOINT_MAGIC) + struct.calcsize("<BBiH32sQQII")
    for cut in range(len(blob)):
        ck.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            run_search(replace(cfg, stop_after_ranges=None))


def test_checkpoint_position_validated(tmp_path):
    # A position outside the scan is refused even under a valid CRC-32.
    ck, out = tmp_path / "ck.bin", tmp_path / "cat.jsonl"
    cfg = SearchConfig(degree=3, fields=(8,), range_bits=4,
                       checkpoint_path=str(ck), out_path=str(out),
                       stop_after_ranges=1)
    with pytest.raises(InterruptedError):
        run_search(cfg)
    blob = ck.read_bytes()
    pos_off = len(CHECKPOINT_MAGIC) + struct.calcsize("<BBiH32s")
    resume = replace(cfg, stop_after_ranges=None)
    for position in (0, 10**6):
        forged = blob[:pos_off] + struct.pack("<Q", position) + blob[pos_off + 8:-4]
        ck.write_bytes(forged + struct.pack("<I", zlib.crc32(forged)))
        with pytest.raises(CheckpointError, match="position"):
            run_search(resume)


def test_checkpoint_keyed_to_lauter_table(tmp_path, capsys):
    ck, out = tmp_path / "ck.bin", tmp_path / "cat.jsonl"
    with pytest.raises(InterruptedError):
        run_search(SearchConfig(degree=3, fields=(8,), range_bits=4,
                                checkpoint_path=str(ck), out_path=str(out),
                                stop_after_ranges=1))
    blob = ck.read_bytes()
    args = ["search", "--degree", "3", "--fields", "8", "--checkpoint", str(ck),
            "--out", str(out)]

    empty = tmp_path / "empty.txt"
    empty.write_text("# no entries\n")
    assert main(args + ["--lauter", str(empty)]) == 3
    assert "Lauter" in capsys.readouterr().err

    for old_magic in (b"CSCHKPT1", b"CSCHKPT2", b"CSCHKPT3"):
        ck.write_bytes(old_magic + blob[len(CHECKPOINT_MAGIC):])
        assert main(args) == 3
        assert old_magic.decode() in capsys.readouterr().err

    # The digest covers the loaded entries, not the file: the shipped table
    # copied with extra comments resumes.
    shipped = tmp_path / "lauter.txt"
    shipped.write_text("# copy\n" + "".join(
        f"{q} {g} {b}\n" for (q, g), b in load_lauter().lauter.items()))
    ck.write_bytes(blob)
    assert main(args + ["--lauter", str(shipped)]) == 0


def test_verify_reference_examples():
    rec = verify("x^5 + y^5 + z^5", 16)
    assert rec.counts[16].smooth == 65
    assert rec.genus == (6, 6)
    assert rec.absolute == "yes"

    rec = verify("x^2*y^4 + y^6 + x^5*z + x^2*y^3*z + x^3*y*z^2 + x*y^3*z^2"
                 " + y^4*z^2 + x^3*z^3 + x^2*y*z^3 + x*z^5", 512)
    assert rec.counts[512].smooth == 813

    with pytest.raises(ConfigError):
        verify("x^6", 8)  # trivially reducible
    with pytest.raises(ConfigError):
        verify("x^5 + y^5 + z^5", 7)
    with pytest.raises(ConfigError, match="degree must be 1..6, got 0"):
        verify("x^0", 8)


def _orbit_size_by_products(f: PolyMask) -> int:
    """|O(f)| from every invertible 3x3 matrix over F_2, each substituted by
    products of linear forms."""
    return len({oracles.substitute_by_products(f, m).bits
                for m in product(range(8), repeat=3) if oracles.mat_det(m)})


def test_verify_orbit_size_against_brute_force():
    # `verify` reads |O(f)| as 168 over f's stabilizer.  Every mask of
    # degree <= 3 that it accepts, a seeded sample of degrees 4-6 (not only
    # orbit minima), and curves that variable permutations fix: Fermat
    # curves and the Klein quartic x^3 y + y^3 z + z^3 x and its sextic kin.
    masks = [PolyMask(d, b) for d in (1, 2, 3) for b in range(1, full_mask(d) + 1)]
    rng = random.Random(33)
    masks += [PolyMask(d, rng.randint(1, full_mask(d)))
              for d in (4, 5, 6) for _ in range(15)]
    symmetric = [parse_poly(p) for p in ("x^3 + y^3 + z^3", "x^5 + y^5 + z^5",
                                         "x^3*y + y^3*z + z^3*x",
                                         "x^5*y + y^5*z + z^5*x")]
    masks += symmetric
    checked = [f for f in masks if not is_trivially_reducible(f)]
    assert any(f.bits != min(g.bits for g in orbit_of(f)) for f in checked)
    for f in checked:
        assert verify(f, 2).orbit_size == _orbit_size_by_products(f), f.mask_id
    assert [verify(f, 2).orbit_size for f in symmetric] == [28, 28, 56, 56]


def test_verify_accepts_mask_ids():
    f = parse_poly("x^5 + y^5 + z^5")
    rec = verify(f.mask_id, 16)
    assert rec.counts[16].smooth == 65


def test_record_json_round_trip():
    rec = verify("x^3*y^2 + y^5 + x^3*y*z + y^3*z^2 + z^5", 1024)
    line = rec.to_json()
    back = CurveRecord.from_json(line)
    assert back.to_json() == line
    obj = json.loads(line)
    assert obj["counts"]["1024"]["smooth"] == 1343
    assert obj["n_range"]["1024"] == [1345, 1345]
    assert obj["singular"][0]["cone_type"] == "u v"


def test_record_lines_match_the_json_dumps_oracle(monkeypatch):
    # `to_json` formats its line directly; the oracle builds a dict of dicts
    # and writes it with `json.dumps`.  They agree byte for byte on every
    # record of a degree <= 4 nine-field search and on hand-built records
    # with null, true and false, a witness, both flag kinds and empty
    # singular lists, and each line read back writes itself again.
    records = []
    real = search._process_orbits

    def keep(batch, pipe, margin):
        out = real(batch, pipe, margin)
        records.extend(out[0])
        return out

    monkeypatch.setattr(search, "_process_orbits", keep)
    fields = tuple(1 << m for m in range(3, 12))
    text = b"".join(run_search(SearchConfig(degree=d, fields=fields, keep_margin=80))
                    for d in (1, 2, 3, 4))
    assert text == "".join(oracles.record_to_json(r) + "\n" for r in records).encode()
    assert len(records) > 100

    base = next(r for r in records if r.singular and r.witness is None)
    empty = {q: pc._replace(singular_points=(), singular_degrees=())
             for q, pc in base.counts.items()}
    flags = ("nonordinary-singularity q=8 point=(1:0:0)", "genus-ambiguous")
    variants = [
        replace(base, singular=(), counts=empty, theorem1_ok=None),
        replace(base, theorem1_ok=True, flags=flags),
        replace(base, theorem1_ok=False, flags=flags[1:]),
        replace(base, absolute="reducible", certificate_field=None,
                witness="F_{2^1}: x + y", flags=(), n_range={}),
        replace(base, absolute="unknown", certificate_field=None, witness=None,
                flags=('a "quoted" \\ flag \u00e9',)),
    ]
    for rec in records + variants:
        line = rec.to_json()
        assert line == oracles.record_to_json(rec)
        assert CurveRecord.from_json(line).to_json() == line


def test_report_contents():
    records = search_records(SearchConfig(degree=4, fields=(64,)))
    table = load_lauter()
    text = report(records, table)
    lines = text.splitlines()
    assert lines[0].lstrip().startswith("q")
    row64 = next(ln for ln in lines if ln.lstrip().startswith("64"))
    assert "113" in row64  # best 3 and bound 3 coincide
    assert "ambiguous genus" in text
    assert "[n, k-2, n-k]" in text  # genus-3 code parameter annotation
    with pytest.raises(ValueError):
        report([], table)
    with pytest.raises(ValueError, match="empty catalog"):
        report(iter(()), table)


def test_report_lists_the_first_ambiguous_records():
    # `report` holds 20 appendix lines however many genus-ambiguous records
    # it folds, and prints them in (degree, mask) order after their number.
    base = verify("x^5 + y^5 + z^5", 16)
    base = replace(base, genus=search.GenusInterval(2, 6))
    masks = list(range(1, 10_001))
    random.Random(3).shuffle(masks)
    text = report(replace(base, mask=m) for m in masks)
    head = ("ambiguous genus (interval not pinned; best values not tallied): "
            "10000 records, the first 20 by (degree, mask):")
    lines = text.splitlines()
    assert lines[lines.index(head) + 1:] == [  # no record pins a genus
        f"  {PolyMask(5, m).mask_id} genus [2, 6] q=16: N>=65" for m in range(1, 21)]


def test_report_streams_a_catalog(tmp_path, capsys):
    # `report` folds a one-shot generator as it folds a list, and the CLI
    # reads the catalog through `iter_catalog` one line at a time.
    out = tmp_path / "cat.jsonl"
    assert run_search(SearchConfig(degree=4, fields=(8, 64), out_path=str(out))) == b""
    records = read_catalog(str(out))
    table = load_lauter()
    text = report(records, table)
    assert report((rec for rec in records), table) == text
    assert report(search.iter_catalog(str(out)), table) == text
    assert "ambiguous genus" in text
    capsys.readouterr()
    assert main(["report", "--catalog", str(out)]) == 0
    assert capsys.readouterr().out == text + "\n"
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:3]) + "{}\n" + "".join(lines[3:]))
    assert main(["report", "--catalog", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "line 4: malformed catalog record" in captured.err


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "cat.jsonl"
    rc = main([
        "search", "--degree", "4", "--fields", "64", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()

    rc = main(["report", "--catalog", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "bound" in captured.out

    rc = main(["verify", "--poly", "x^5 + y^5 + z^5", "--field", "16"])
    assert rc == 0
    captured = capsys.readouterr()
    assert '"smooth": 65' in captured.out

    rc = main(["verify", "--mask", "d5:0x00108001", "--field", "16"])
    assert rc == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_search_prints_the_catalog_bytes(tmp_path, capsysbinary, jobs):
    # Without --out the search prints exactly the bytes a --out run writes.
    out = tmp_path / "cat.jsonl"
    argv = ["search", "--degree", "4", "--fields", "8,64", "--jobs", jobs]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert printed and printed == out.read_bytes()


def test_cli_error_codes(tmp_path):
    assert main(["search", "--degree", "9", "--fields", "64"]) == 2
    assert main(["search", "--degree", "4", "--fields", "banana"]) == 2
    assert main(["verify", "--poly", "x^6", "--field", "8"]) == 2
    assert main(["verify", "--poly", "x^0", "--field", "8"]) == 2
    low = tmp_path / "low.txt"
    low.write_text("8 1 13\n")  # N_8(1) = 14: refuted by a certified cubic
    assert main(["search", "--degree", "3", "--fields", "8",
                 "--lauter", str(low)]) == 2
    low.write_text("6 4 13\n")  # no field has 6 elements
    assert main(["verify", "--poly", "x^3 + y^3 + z^3", "--field", "8",
                 "--lauter", str(low)]) == 2

    ck = tmp_path / "ck.bin"
    for blob in (b"garbage", CHECKPOINT_MAGIC + struct.pack("<BBi", 4, 1, 15)):
        ck.write_bytes(blob)
        rc = main([
            "search", "--degree", "4", "--fields", "64",
            "--checkpoint", str(ck), "--out", str(tmp_path / "cat.jsonl"),
        ])
        assert rc == 3


def test_cli_verify_reports_a_refuted_lauter_entry(tmp_path, capsys):
    # The Fermat quintic has 65 smooth points over F_16, Serre's bound at
    # genus 6; an entry N_16(6) <= 60 crosses its certified N range, and
    # `verify` exits 2 with one line naming the entry.  A curve that is not
    # absolutely irreducible gets no bound to cross: one record, exit 0.
    low = tmp_path / "low.txt"
    low.write_text("16 6 60\n")
    argv = ["verify", "--poly", "x^5 + y^5 + z^5", "--field", "16"]
    assert main(argv + ["--lauter", str(low)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: Lauter entry N_16(6) <= 60 is below the 65 points of "
        "certified curve d5:0x00108001"]
    crossed = "x^2*z + x*y^2 + x*y*z + y^2*z + y*z^2 + z^3"
    assert main(["verify", "--poly", crossed, "--field", "8",
                 "--lauter", str(low)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    rec = CurveRecord.from_json(line)
    assert (rec.absolute, rec.n_range, rec.poly) == ("reducible", {}, parse_poly(crossed))


def _mistyped(line: str) -> list[str]:
    """The record with values of the wrong type or shape, or with a degree
    that is not its mask's: a bool or a float in an integer list fails as a
    string does."""
    obj = json.loads(line)
    q = next(iter(obj["n_range"]))
    return [json.dumps(dict(obj, **change)) for change in (
        {"genus": ["a", "a"]}, {"genus": [None, None]}, {"genus": [0, True]},
        {"n_range": {q: [5]}}, {"n_range": {q: [5.0, 6]}}, {"degree": 9})]


def test_malformed_catalog_lines(tmp_path, capsys):
    good = verify("x^5 + y^5 + z^5", 16).to_json()
    cat = tmp_path / "cat.jsonl"

    cat.write_text(good + "\n{}\n" + good + "\n")
    with pytest.raises(ValueError, match="line 2"):
        read_catalog(str(cat))
    with pytest.raises(ValueError, match="line 2"):
        read_catalog(str(cat), lenient_tail=True)
    assert main(["report", "--catalog", str(cat)]) == 2

    for tail in ("[1, 2]", "{}", '{"mask": 5}', '{"mask": "d5:0x00108001"',
                 *_mistyped(good)):
        cat.write_text(good + "\n" + tail + "\n")
        with pytest.raises(ValueError, match="line 2: malformed catalog record"):
            read_catalog(str(cat))
        assert [r.to_json() for r in read_catalog(str(cat), lenient_tail=True)] \
            == [good]
        assert main(["report", "--catalog", str(cat)]) == 2

    # A resume checks the three lines below the checkpoint's scan position
    # by their CRC-32, so a mistyped one among them is refused as a catalog
    # the checkpoint did not count (exit 3).  It parses the line after them,
    # and a mistyped one there stops the run with exit 2.  Either way the
    # file is left as it was.
    out, ck = tmp_path / "out.jsonl", tmp_path / "ck.bin"
    with pytest.raises(InterruptedError):
        run_search(SearchConfig(degree=3, fields=(8,), range_bits=4,
                                checkpoint_path=str(ck), out_path=str(out),
                                stop_after_ranges=7))
    text = out.read_text()
    first, *rest = text.splitlines(keepends=True)
    capsys.readouterr()
    for bad in _mistyped(first):
        for damaged, rc, message in (
                (bad + "\n" + "".join(rest), 3, "checkpoint"),
                (text + bad + "\n", 2, "line 4: malformed catalog record")):
            out.write_text(damaged)
            assert main(["search", "--degree", "3", "--fields", "8", "--checkpoint",
                         str(ck), "--out", str(out)]) == rc
            assert message in capsys.readouterr().err
            assert out.read_text() == damaged


def test_write_catalog_atomic(tmp_path):
    out = tmp_path / "cat.jsonl"
    records = search_records(SearchConfig(degree=3, fields=(8,)))
    write_catalog(str(out), records)
    assert not os.path.exists(str(out) + ".tmp")
    assert read_catalog(str(out)) == read_catalog(str(out))
