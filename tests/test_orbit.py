"""Group enumeration, orbit computation, and the sieve."""

import pickle
import random
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    IDENTITY,
    column_image_table,
    divides,
    mask_to_dict,
    mat_det,
    mat_mul,
    sieve_all,
    substitute_by_products,
)

from curvesearch import orbit
from curvesearch.corpus import load_corpus
from curvesearch.gf2m import build_field
from curvesearch.orbit import (
    GL3_ORDER,
    LINE_DIVISIBLE_ORBITS,
    OrbitInfo,
    SieveEngine,
    enumerate_gl3,
    orbit_of,
    sieve,
)
from curvesearch.polyrep import (
    PolyMask,
    basis_size,
    full_mask,
    gl3_table,
    is_trivially_reducible,
    parse_poly,
    substitute,
)

# Orbit counts on nonzero masks, confirmed by the union-find oracle below and
# independently by the Burnside count in test_burnside_oracle.
KNOWN_ORBITS = {1: 1, 2: 4, 3: 21, 4: 279, 5: 13055}


def test_enumerate_gl3():
    mats = enumerate_gl3()
    assert len(mats) == 168
    assert IDENTITY in mats
    assert len(set(mats)) == 168
    assert list(mats) == sorted(mats)
    assert all(mat_det(m) == 1 for m in mats)


def test_group_closure():
    mats = set(enumerate_gl3())
    for a in mats:
        for b in mats:
            assert mat_mul(a, b) in mats


def test_orbit_of_hermitian():
    h = parse_poly("x^5 + y^5 + z^5")
    orb = orbit_of(h)
    assert h in orb
    assert 168 % len(orb) == 0


def test_orbit_is_equivalence_class():
    rng = random.Random(0)
    mats = enumerate_gl3()
    for _ in range(20):
        f = PolyMask(3, rng.randint(1, full_mask(3)))
        orb = orbit_of(f)
        g = substitute(f, mats[rng.randrange(168)])
        assert orbit_of(g) == orb


def test_orbit_of_matches_products():
    # orbit_of gathers all 168 images from one table; the oracle substitutes
    # one matrix at a time by products of linear forms.
    mats = enumerate_gl3()
    rng = random.Random(11)
    polys = [PolyMask(d, rng.randint(1, full_mask(d)))
             for d in range(7) for _ in range(8)]
    polys += [parse_poly(e.poly) for e in load_corpus()]
    assert len(polys) == 7 * 8 + 83
    for f in polys:
        assert orbit_of(f) == {substitute_by_products(f, m) for m in mats}, f


def test_orbit_of_degree0_constant():
    one = PolyMask(0, 1)
    assert orbit_of(one) == {one}


def test_gl3_action_built_once_per_degree():
    # The sieve's byte tables, substitute and orbit_of all read the one
    # cached table: the first use builds it, every later one hits the cache.
    gl3_table.cache_clear()
    orbit._byte_luts.cache_clear()
    f = parse_poly("x^3*y + y^3*z + z^3*x")
    seen = []
    for use in (lambda: orbit._byte_luts(4), lambda: substitute(f, IDENTITY),
                lambda: orbit_of(f)):
        use()
        info = gl3_table.cache_info()
        seen.append((info.misses, info.hits))
    assert seen == [(1, 0), (1, 1), (1, 2)]


def test_orbit_of_xyz_matches_brute_force():
    f = parse_poly("x*y*z")
    orb = orbit_of(f)
    brute = {substitute(f, m) for m in enumerate_gl3()}
    assert orb == brute
    assert len(orb) > 1  # full GL_3 orbit is larger than the permutation orbit


def _union_find_orbit_count(d: int) -> int:
    n = full_mask(d)
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    mats = enumerate_gl3()
    for bits in range(1, n + 1):
        f = PolyMask(d, bits)
        ra = find(bits)
        for m in mats:
            rb = find(substitute(f, m).bits)
            if ra != rb:
                parent[rb] = ra
    return len({find(b) for b in range(1, n + 1)})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_orbit_count_union_find_oracle(d):
    assert _union_find_orbit_count(d) == KNOWN_ORBITS[d]
    assert len(sieve_all(d)) == KNOWN_ORBITS[d]


def _f2_nullity(cols, n):
    pivots = []
    rank = 0
    for col in cols:
        cur = col
        for p, pc in pivots:
            if (cur >> p) & 1:
                cur ^= pc
        if cur:
            pivots.append((cur.bit_length() - 1, cur))
            rank += 1
    return n - rank


def test_burnside_oracle():
    # Orbit count = (1/168) sum over M of 2^(dim of the fixed mask subspace).
    for d, want in KNOWN_ORBITS.items():
        n = basis_size(d)
        total = 0
        for m in enumerate_gl3():
            cols = [c ^ (1 << t) for t, c in enumerate(column_image_table(d, m))]
            total += 1 << _f2_nullity(cols, n)
        assert total % GL3_ORDER == 0
        assert total // GL3_ORDER - 1 == want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sieve_partitions_space(d):
    infos = sieve_all(d)
    assert sum(info.orbit_size for info in infos) == full_mask(d)
    assert len({info.rep_bits for info in infos}) == len(infos)
    if d in KNOWN_ORBITS:
        assert len(infos) == KNOWN_ORBITS[d]


def test_orbit_info_pickles():
    # The search pool ships emitted orbits to its workers.
    infos = sieve_all(4)
    back = pickle.loads(pickle.dumps(infos))
    assert back == infos
    assert all(type(info) is OrbitInfo for info in back)
    assert [info.rep for info in back] == [info.rep for info in infos]


def test_sieve_degree1_single_orbit():
    out = list(sieve(1))
    assert len(out) == 1
    rep, size = out[0]
    assert size == 7
    assert rep == PolyMask(1, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sieve_reps_are_orbit_minima_and_unique(d):
    infos = sieve_all(d)
    seen = set()
    for info in infos:
        orb = orbit_of(info.rep)
        assert min(p.bits for p in orb) == info.rep_bits
        assert len(orb) == info.orbit_size
        assert info.rep_bits not in seen
        seen.add(info.rep_bits)


def test_sieve_orbit_sizes_match_oracle():
    # The sieve sizes orbits by orbit-stabilizer on its image block; check a
    # degree-5 sample, every orbit smaller than 168 included, against
    # orbit_of and the per-matrix oracle.
    mats = enumerate_gl3()
    infos = SieveEngine(5).run_range(1 << 15)
    small = [i for i in infos if i.orbit_size < GL3_ORDER]
    sample = small + random.Random(12).sample(infos, 40)
    assert len(small) > 10
    for info in sample:
        assert len(orbit_of(info.rep)) == info.orbit_size, info
        oracle = {substitute_by_products(info.rep, m) for m in mats}
        assert len(oracle) == info.orbit_size, info


def test_sieve_trivial_skip_matches_filter():
    # Emitted stream excludes exactly the orbits flagged trivially reducible,
    # while sieve_all still accounts for the whole space.
    infos = sieve_all(4)
    emitted = list(sieve(4))
    kept = [(i.rep, i.orbit_size) for i in infos if not i.trivially_reducible]
    assert len(emitted) == len(kept) < len(infos)
    assert emitted == kept
    assert sum(i.orbit_size for i in infos) == full_mask(4)


def test_trivial_flag_matches_orbit_oracle():
    # The sieve flags an orbit from its minimum's all-even and x masks only.
    # The flag must be the full filter on the minimum, over full scans of
    # degrees 2-5 and the first 2^21 degree-6 masks.  It must also say
    # whether some member fires the filter, on every orbit of degrees 2-4
    # and on seeded degree-5 and degree-6 orbits.  A degree-6 orbit is
    # emitted by a one-mask range at its minimum, since being the minimum
    # does not depend on where the scan started.
    prefix = SieveEngine(6).run_range(1 << 21)
    for info in [info for d in (2, 3, 4, 5) for info in sieve_all(d)] + prefix:
        assert info.trivially_reducible == is_trivially_reducible(info.rep), info
    rng = random.Random(24)
    infos = [info for d in (2, 3, 4) for info in sieve_all(d)]
    infos += rng.sample(sieve_all(5), 400)
    reps = {min(orbit_of(PolyMask(6, rng.randint(1, full_mask(6)))))
            for _ in range(300)}
    eng = SieveEngine(6)
    for rep in sorted(reps):
        eng.position = rep.bits
        infos += eng.run_range(1)
    assert len(infos) == 304 + 400 + len(reps)
    for d in range(2, 7):
        flags = {info.trivially_reducible for info in infos if info.degree == d}
        assert flags == {False, True}, d
    for info in infos:
        oracle = any(is_trivially_reducible(h) for h in orbit_of(info.rep))
        assert info.trivially_reducible == oracle, info


def test_sieve_replay_rebuilds_state():
    # A resume sieves again up to the saved scan position, in spans of its
    # own: here 1000, which does not divide the 3 * 2^10 masks below it.  The
    # replay leaves the live table of the interrupted scan, and the rest of
    # the scan emits exactly the orbits whose minimum is past the position.
    eng = SieveEngine(4)
    for _ in range(3):
        eng.run_range(1 << 10)
    pos = eng.position
    replay = SieveEngine(4)
    while replay.position < pos:
        replay.run_range(min(1000, pos - replay.position))
    assert replay.position == pos
    assert np.array_equal(replay.table, eng.table)
    rest = []
    while not replay.done:
        rest.extend(replay.run_range(1 << 12))
    full = sieve_all(4)
    assert rest == [i for i in full if i.rep_bits >= pos]
    assert len(full) > len(rest) > 0


def test_sieve_output_independent_of_block(monkeypatch):
    # The block size sets only how many candidates are imaged at once, and
    # the unpacking size only how many masks' live bits are read at once: the
    # full degree-4 sieve and the first 2^16 degree-5 masks emit the same
    # orbits and leave the same live table for every block, unpacking size
    # and span.  Unpacking 1000 masks at a time starts sub-spans inside bytes,
    # and blocks and sub-spans straddle the degree-5 x_end, 2^15.
    def scan(degree: int, last: int, span: int):
        eng = SieveEngine(degree)
        infos = []
        while eng.position <= last:
            infos += eng.run_range(span)
        return infos, eng.table

    for degree, last in ((4, full_mask(4)), (5, 1 << 16)):
        runs = []
        for block, unpack in ((1 << 4, 1000), (1 << 9, 1 << 16), (1 << 16, 1000)):
            monkeypatch.setattr(orbit, "BLOCK", block)
            monkeypatch.setattr(orbit, "UNPACK", unpack)
            runs += [scan(degree, last, 1 << bits) for bits in (10, 15)]
        infos, table = runs[0]
        assert len(infos) > 100
        for other_infos, other_table in runs[1:]:
            assert other_infos == infos
            assert np.array_equal(other_table, table)


def test_range_memory_does_not_grow_with_span():
    # One range over the whole degree-5 space, 2^21 masks, unpacks its live
    # bits 2^16 masks at a time: it emits the orbits and leaves the table of
    # 2^10-mask ranges, and its transient memory (numpy's buffers included,
    # which tracemalloc traces) stays that of one sub-span.  Unpacked at once,
    # the 2^21 live masks' int64 indices alone took 16 MiB.
    step = SieveEngine(5)
    infos = []
    while not step.done:
        infos += step.run_range(1 << 10)
    orbit._byte_luts(5)  # built by the scan above, outside the measurement
    eng = SieveEngine(5)
    tracemalloc.start()
    try:
        whole = eng.run_range(1 << 21)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert whole == infos
    assert np.array_equal(eng.table, step.table)
    assert peak - current < 4 << 20
    assert eng.done and 1 << 21 > 4 * orbit.UNPACK


def test_run_range_rejects_nonpositive_span():
    eng = SieveEngine(3)
    eng.run_range(100)
    for span in (0, -50):
        with pytest.raises(ValueError):
            eng.run_range(span)
    assert eng.position == 101


def test_claimed_bits_match_orbit_oracle():
    # The table holds one bit per mask, LSB first.  After a scan that stops
    # inside a byte past x_end, the set bits are mask 0 and the members of
    # the emitted orbits that lie below x_end or whose minimum does not: an
    # x-region minimum claims only its x-region images, and the scan drops
    # the line-divisible masks past x_end unclaimed.  pack_state is the bool
    # live table packed by numpy.
    for d, stop in ((3, 700), (4, 4003), (5, 50_001)):
        eng = SieveEngine(d)
        infos = []
        while eng.position < stop:
            infos += eng.run_range(min(1000, stop - eng.position))
        x_end = eng.x_end
        assert eng.position == stop > x_end == 1 << basis_size(d - 1)
        assert stop % 8
        claimed = {0} | {g.bits for i in infos for g in orbit_of(i.rep)
                         if g.bits < x_end or i.rep_bits >= x_end}
        bits = np.unpackbits(eng.table, bitorder="little")
        assert set(np.flatnonzero(bits).tolist()) == claimed, d
        live = np.ones(full_mask(d) + 1, dtype=bool)
        live[sorted(claimed)] = False
        packed = np.packbits(live, bitorder="little").tobytes()
        assert eng.pack_state() == (stop, packed), d
    assert SieveEngine(6).table.nbytes == 2**25


F2 = build_field(1)
LINES = [mask_to_dict(PolyMask(1, bits)) for bits in range(1, 8)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.integers(0, full_mask(d)), max_size=8))))
def test_line_filter_matches_oracles(case):
    # The sieve drops a mask past x_end when the lanes of its line table say
    # a line divides it.  On arbitrary masks, and always on 0 and around
    # x_end, that test must be trial division by the 7 lines and must say
    # whether the mask's orbit has its minimum in the x-region.  A nonzero
    # linear form is a line itself, and 0 is divisible by every line.
    d, masks = case
    x_end = 1 << basis_size(d - 1)
    masks = masks + [0, x_end - 1, x_end, x_end + 1]
    got = orbit._line_divisible(d, np.array(masks, dtype=np.int64))
    assert got.dtype == bool and len(got) == len(masks)
    for bits, lanes in zip(masks, got.tolist()):
        f = PolyMask(d, bits)
        trial = bits == 0 or d == 1 or any(divides(line, mask_to_dict(f), F2)
                                           for line in LINES)
        assert lanes == trial == (min(orbit_of(f)).bits < x_end), f


@pytest.mark.parametrize("d, forms", [
    (2, 28), (3, 329), (4, 6_048), (5, 209_867), (6, 14_025_690),
])
def test_line_divisible_skip_is_sound(d, forms):
    # A scan of degree d >= 2 may start at x_end with the x-region's orbits
    # counted from LINE_DIVISIBLE_ORBITS.  A scan of [1, x_end) emits exactly
    # that many orbits, all flagged trivially reducible, whose sizes add up
    # to the line-divisible nonzero forms counted by inclusion-exclusion over
    # the products of t distinct lines (coprime, so a form divisible by each
    # is divisible by their product), and it claims nothing at or past x_end.
    eng = SieveEngine(d)
    infos = []
    while eng.position < eng.x_end:
        infos += eng.run_range(min(1 << 20, eng.x_end - eng.position))
    assert len(infos) == LINE_DIVISIBLE_ORBITS[d]
    assert all(i.trivially_reducible for i in infos)
    assert sum(i.orbit_size for i in infos) == forms == sum(
        (-1) ** (t + 1) * comb(7, t) * ((1 << basis_size(d - t)) - 1)
        for t in range(1, min(d, 7) + 1))
    assert not np.unpackbits(eng.table, bitorder="little")[eng.x_end:].any()
    skipped = SieveEngine(d)
    assert skipped.skip_line_divisible() == len(infos)
    assert skipped.position == eng.position == skipped.x_end
    with pytest.raises(ValueError):
        skipped.skip_line_divisible()


def test_degree1_keeps_its_x_region():
    # The degree-1 x-region is the line orbit, which the sieve emits.
    with pytest.raises(ValueError):
        SieveEngine(1).skip_line_divisible()
    assert 1 not in LINE_DIVISIBLE_ORBITS


def test_degree6_sieve_prefix():
    # Degree 6 is the only degree whose masks use all four bytes.  The first
    # 2^21 masks, the x-region, hold 85,000 orbit minima, all trivially
    # reducible; masks 1..2^22 hold 322,502, of which 85,009 are trivial.
    eng = SieveEngine(6)
    infos = []
    for _ in range(4):
        infos += eng.run_range(1 << 20)
    assert eng.position == (1 << 22) + 1
    x_region = [i for i in infos if i.rep_bits < eng.x_end == 1 << 21]
    assert len(x_region) == 85_000
    assert all(i.trivially_reducible for i in x_region)
    assert sum(i.orbit_size for i in x_region) == 14_025_690
    assert len(infos) == 322_502
    assert sum(i.trivially_reducible for i in infos) == 85_009
    assert sum(i.orbit_size for i in infos) == 53_542_615
