"""Projective point enumeration and curve point counting."""

import random
import tracemalloc
import warnings
from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    conjugate_cubic_norm,
    generator,
    hom_mul,
    monomial_rows,
    naive_count,
    partials_count,
)

from curvesearch import count
from curvesearch.count import (
    JointCounter,
    PointCount,
    PointCounter,
    count_points,
    projective_points,
)
from curvesearch.gf2m import build_field
from curvesearch.orbit import enumerate_gl3
from curvesearch.polyrep import (
    PolyMask,
    basis_size,
    encode,
    full_mask,
    parse_poly,
    substitute,
)


def test_projective_point_counts():
    assert len(list(projective_points(build_field(1)))) == 7
    assert len(list(projective_points(build_field(3)))) == 73
    assert len(list(projective_points(build_field(4)))) == 273


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_no_two_points_proportional(m):
    field = build_field(m)
    pts = list(projective_points(field))
    assert len(set(pts)) == len(pts)
    normalized = set()
    for p in pts:
        first = next(c for c in p if c)
        inv = field.inv(first)
        normalized.add(tuple(field.mul(inv, c) for c in p))
    assert len(normalized) == len(pts)  # already normalized and distinct


def brute_force_orbits(field) -> list[tuple[tuple[int, int, int], int]]:
    """(minimum, size) of every Frobenius orbit of P^2(F_q), minima in
    canonical order: square the coordinates of every point until it returns."""
    pts = list(projective_points(field))
    pos = {p: i for i, p in enumerate(pts)}
    square = [field.mul(a, a) for a in range(field.order)]
    orbits = {}
    for p in pts:
        orbit = [p]
        while (nxt := tuple(square[c] for c in orbit[-1])) != p:
            orbit.append(nxt)
        orbits[min(orbit, key=pos.__getitem__)] = len(orbit)
    return sorted(orbits.items(), key=lambda item: pos[item[0]])


def representatives(counter) -> list[tuple[tuple[int, int, int], int]]:
    return list(zip(map(tuple, counter.coords.T.tolist()), counter.weights.tolist()))


@pytest.mark.parametrize("m", range(1, 9))
def test_representatives_against_brute_force(m):
    field = build_field(m)
    assert representatives(PointCounter(field)) == brute_force_orbits(field)


@pytest.mark.parametrize("m", [9, 10, 11])
def test_representatives_cover_the_plane(m):
    counter = PointCounter(build_field(m))
    q = counter.q
    x, y, z = counter.coords.astype(np.int64)
    index = np.where(x == 1, y * q + z, np.where(y == 1, q * q + z, q * q + q))
    assert (np.diff(index) > 0).all()
    assert int(counter.weights.sum(dtype=np.int64)) == counter.n_points == q * q + q + 1
    # Burnside: sigma^k fixes the points of P^2(F_{2^gcd(k, m)}).
    orbits = sum(4 ** gcd(k, m) + 2 ** gcd(k, m) + 1 for k in range(m)) // m
    assert counter.coords.shape == (3, orbits) == (3, len(counter.weights))
    if m == 11:
        assert orbits < counter.n_points / 10


def test_reference_count_examples():
    f8, f16 = build_field(3), build_field(4)
    f1024 = build_field(10)

    pc = count_points(parse_poly("x^5 + y^5 + z^5"), f16)
    assert pc.smooth == 65 and pc.singular_points == ()

    g3 = parse_poly(
        "x^6 + x^5*y + x*y^5 + y^6 + x^5*z + x^2*y^3*z + y^5*z + x^3*y*z^2"
        " + x*y^2*z^3 + x*z^5 + y*z^5 + z^6"
    )
    assert count_points(g3, f8).smooth == 24

    line = count_points(parse_poly("x"), f8)
    assert line.total == 9 and line.smooth == 9

    g5 = parse_poly("x^3*y^2 + y^5 + x^3*y*z + y^3*z^2 + z^5")
    pc = count_points(g5, f1024)
    assert pc.smooth == 1343
    assert pc.singular_points == ((1, 0, 0),)


def test_total_is_smooth_plus_singular_and_bounded():
    f8 = build_field(3)
    counter = PointCounter(f8)
    rng = random.Random(1)
    for _ in range(100):
        d = rng.randint(1, 6)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        pc = counter.count(f)
        assert pc.total == pc.smooth + len(pc.singular_points)
        assert 0 <= pc.total <= 73


def _tabulated(field) -> JointCounter:
    """A one-field joint counter with its tables for degrees 1..6 built."""
    joint = JointCounter([field])
    for d in range(1, 7):
        assert joint.monomial_table(d) is not None
    return joint


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_against_naive_oracle(m):
    # Both count paths: a counter's evaluator over the curve's own
    # monomials, and a joint pass over prebuilt tables.
    # F_16 and F_64 mix orbit sizes 1, 2, 4 and 1, 2, 3, 6.
    field = build_field(m)
    counter, joint = PointCounter(field), _tabulated(field)
    rng = random.Random(m)
    for _ in range(200 // m if m < 6 else 12):
        d = rng.randint(1, 6)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        b = naive_count(f, field)
        assert counter.count(f) == b
        assert joint.count_all(f) == {field.order: b}


def conjugate_line_triangle() -> PolyMask:
    """l * Frob(l) * Frob^2(l) for l = x + a y + a^2 z, a generating F_8:
    three conjugate lines whose vertices are a conjugate triple."""
    f8 = build_field(3)
    a = generator(f8)
    lines = [{(1, 0, 0): 1, (0, 1, 0): b, (0, 0, 1): f8.mul(b, b)}
             for b in (a, f8.pow(a, 2), f8.pow(a, 4))]
    f = hom_mul(hom_mul(lines[0], lines[1], f8), lines[2], f8)
    assert all(c in (0, 1) for c in f.values())  # F_2 coefficients
    return encode([mono for mono, c in f.items() if c])


@pytest.mark.parametrize("make", [conjugate_cubic_norm, conjugate_line_triangle])
def test_conjugate_singular_points_expanded_in_order(make):
    # Singular points off P^2(F_2) (a conjugate pair over F_4, a triple over
    # F_8) are found as one representative per orbit and expanded back into
    # their orbits, in canonical order, each with its orbit's size as degree.
    f = make()
    f64 = build_field(6)
    b = naive_count(f, f64)
    assert sorted(b.singular_degrees) == {conjugate_cubic_norm: [1, 2, 2],
                                          conjugate_line_triangle: [3, 3, 3]}[make]
    assert any(c > 1 for p in b.singular_points for c in p)
    assert PointCounter(f64).count(f) == b
    assert _tabulated(f64).count_all(f) == {64: b}


def _delta_sequence(seed: int) -> list[PolyMask]:
    """Degree-4 and degree-5 masks in alternation, each a few monomials
    from the last mask of its degree (as consecutive orbit minima are),
    with a repeat, a mask that shares no monomial with the one before it,
    a light curve after a heavy one (a delta heavier than the curve), and
    the conjugate singular pair (degree 6) and triple (degree 3), each
    reached again after a neighbour."""
    rng = random.Random(seed)
    last = {d: rng.randint(1, full_mask(d)) for d in (4, 5)}
    seq = []
    for step in range(24):
        d = (4, 5)[step % 2]
        bits = last[d]
        for _ in range(rng.randint(1, 3)):
            bits ^= 1 << rng.randrange(full_mask(d).bit_length())
        last[d] = bits or 1
        seq.append(PolyMask(d, last[d]))
    seq[6:6] = [seq[5], seq[5]]  # repeats
    f = seq[10]
    seq[11:11] = [PolyMask(f.degree, full_mask(f.degree) ^ f.bits)]  # disjoint
    heavy = PolyMask(5, full_mask(5) ^ 0b11)
    seq[16:16] = [heavy, PolyMask(5, 0b101)]  # 20 rows of delta against 2 of curve
    for g in (conjugate_line_triangle(), conjugate_cubic_norm()):
        seq += [g, PolyMask(g.degree, g.bits ^ 0b1000), g, g]
    return seq


def test_joint_pass_against_oracles():
    # One pass over the joint columns of several fields, by deltas along a
    # sequence of masks, equals each field's own count and the brute-force
    # scan, degrees of singular and smooth points included.  Each degree's
    # table is built by the first count of that degree.
    fields = [build_field(m) for m in (3, 4, 5)]
    joint = JointCounter(fields)
    own = [PointCounter(field) for field in fields]
    naive = {}
    seq = _delta_sequence(17)
    pairs = [(a, b) for a, b in zip(seq, seq[1:]) if a.degree == b.degree]
    assert any(a == b for a, b in pairs)
    assert any(not a.bits & b.bits for a, b in pairs)
    assert any(bin(a.bits ^ b.bits).count("1") > bin(b.bits).count("1")
               for a, b in pairs)
    for n, f in enumerate(seq):
        if n == 8:
            assert sorted(joint._tables) == [4, 5]
        got = joint.count_all(f)
        assert list(got) == [8, 16, 32]
        for field, counter in zip(fields, own):
            key = (f, field.order)
            if key not in naive:
                naive[key] = naive_count(f, field)
            assert got[field.order] == counter.count(f) == naive[key], (n, f)
    # The members hold views of the joint columns and tables: each its own
    # columns, as a one-field joint counter would build them.
    table = joint.monomial_table(4)
    for counter, field in zip(joint.counters.values(), fields):
        assert counter.coords.base is joint.coords
        assert counter.weights.base is joint.weights
        assert counter.monomial_table(4).base is table
        assert (counter.monomial_table(4)
                == JointCounter([field]).monomial_table(4)).all()
    # Only a joint counter holds tables: a standalone counter, or one that
    # outlives its joint counter, has none.
    assert own[0].monomial_table(3) is None
    orphan = JointCounter(fields[:1]).counters[8]
    assert orphan.monomial_table(3) is None


def test_joint_pass_over_the_nine_fields():
    fields = [build_field(m) for m in range(3, 12)]
    joint = JointCounter(fields)
    table = joint.counters[2048].monomial_table(4)  # fills every field's columns
    assert table is not None and table.base is joint.monomial_table(4)
    joint.monomial_table(3)
    rng = random.Random(9)
    bits = rng.randint(1, full_mask(4))
    seq = [PolyMask(4, bits)]
    for _ in range(5):
        bits ^= 1 << rng.randrange(15)
        seq.append(PolyMask(4, bits or 1))
    seq += [seq[-1], conjugate_line_triangle(), seq[0]]
    for f in seq:
        got = joint.count_all(f)
        assert got == {field.order: count_points(f, field) for field in fields}, f
        for field in fields[:3]:
            assert got[field.order] == naive_count(f, field), f


NINE_FIELDS = [build_field(m) for m in range(3, 12)]


def _off_affine_singular_curves() -> list[PolyMask]:
    """Curves singular off the affine chart x = 1: nodes at (0:0:1) and
    at (0:1:0), and a quartic in the square of the ideal (x, y^2 + y z +
    z^2) of the conjugate pair (0:1:a), (0:1:a^2), a in F_4 outside F_2."""
    return [parse_poly("x^3 + y^3 + x*y*z"), parse_poly("x^3 + z^3 + x*y*z"),
            parse_poly("x^3*y + x*y^2*z + x*y*z^2 + x*z^3 + y^4 + y^2*z^2 + z^4")]


def _oracle_count(f: PolyMask, field) -> PointCount:
    """f's count by `naive_count` up to F_64, and above by `partials_count`,
    which reads all three partials at degree d - 1 (a scan of F_2048 takes
    minutes)."""
    return naive_count(f, field) if field.order <= 64 else partials_count(f, field)


@pytest.fixture(scope="module")
def nine_field_oracle() -> dict[PolyMask, dict[int, PointCount]]:
    """Seeded forms of degrees 2..6 and the off-affine singular curves,
    each with its `_oracle_count` over the nine fields."""
    rng = random.Random(21)
    curves = [PolyMask(d, rng.randint(1, full_mask(d))) for d in range(2, 7)]
    curves += _off_affine_singular_curves()
    return {f: {field.order: _oracle_count(f, field) for field in NINE_FIELDS}
            for f in curves}


@pytest.mark.parametrize("prebuilt", [True, False],
                         ids=["degree-d-table", "built-on-first-count"])
def test_nine_field_pass_against_oracle(nine_field_oracle, prebuilt):
    # One joint pass over F_8..F_2048 per curve, reading every row off the
    # curve's degree-d table (the singularity test reads its rows too),
    # built beforehand as a search builds it or by the count, which builds
    # that table and no other: each field's total, smooth count, singular
    # points in canonical order and the degrees of its singular and smooth
    # points match the oracle.
    off_affine = _off_affine_singular_curves()
    nodes = [nine_field_oracle[f][8].singular_points for f in off_affine[:2]]
    assert nodes == [((0, 0, 1),), ((0, 1, 0),)]
    pair = nine_field_oracle[off_affine[2]][64]
    assert pair.singular_degrees == (2, 2)
    assert all(x == 0 and z > 1 for x, _, z in pair.singular_points)
    for f, want in nine_field_oracle.items():
        joint = JointCounter(NINE_FIELDS)
        if prebuilt:
            joint.monomial_table(f.degree)
        got = joint.count_all(f)
        assert list(joint._tables) == [f.degree]
        assert list(got) == [field.order for field in NINE_FIELDS]
        for q, b in want.items():
            assert got[q] == b, (f, q)


def test_standalone_count_against_oracle(nine_field_oracle):
    # A standalone count decides singularity by the lifted test, as the
    # joint pass does, so it too reads the zeros on the line x = 0 and at
    # (0:0:1) through the lifts.  Over F_2..F_2048 it matches the scan up to
    # F_64 and the three-partial oracle above, on every linear form, the
    # seeded forms of degrees 2..6 and the off-affine singular curves.
    fields = [build_field(m) for m in range(1, 12)]
    curves = [PolyMask(1, bits) for bits in range(1, 8)] + list(nine_field_oracle)
    for f in curves:
        for field in fields:
            want = (nine_field_oracle.get(f, {}).get(field.order)
                    or _oracle_count(f, field))
            got = PointCounter(field).count(f)
            assert got == count_points(f, field) == want, (f, field.order)


def test_table_allocation_failure_propagates(monkeypatch):
    # The degree-d table is the joint counter's only row source: where it
    # cannot be allocated, the count fails with the allocation's error, with
    # no warning and no table kept.
    joint = JointCounter([build_field(3), build_field(4)])

    def no_memory(d):
        raise MemoryError

    monkeypatch.setattr(joint, "_build_table", no_memory)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MemoryError):
            joint.count_all(parse_poly("x^3 + y^3 + x*y*z"))
    assert not joint._tables


def test_dropped_tables_leave_the_counts():
    # A search's parent drops its table once its workers have forked, and a
    # worker the pool respawns forks without it: the next count of a degree
    # builds its table again, equal to the first, and counts by deltas from
    # the accumulator the first table filled, to the standalone counts.
    fields = [build_field(m) for m in (3, 4, 5)]
    joint = JointCounter(fields)
    seq = _delta_sequence(29)
    own = {field.order: PointCounter(field) for field in fields}
    for i, f in enumerate(seq):
        if i == len(seq) // 2:
            first = dict(joint._tables)
            joint.drop_tables()
            assert not joint._tables
        assert joint.count_all(f) == {q: c.count(f) for q, c in own.items()}, f
    assert sorted(first) == [4, 5]
    assert sorted(joint._tables) == [3, 4, 5, 6]
    for d, table in first.items():
        assert joint._tables[d] is not table
        assert (joint._tables[d] == table).all()


@pytest.mark.parametrize("chunk", [None, 1000], ids=["default-chunk", "chunk-1000"])
def test_monomial_table_against_oracle(monkeypatch, chunk):
    # The joint table over the nine fields holds, at every column, each
    # monomial's row computed on its own, for degrees 1..6: with the
    # default chunks, and with chunks of 1,000 columns, which start inside
    # fields, straddle a field's first column on the line x = 0 and end on
    # its (0:0:1).
    joint = JointCounter(NINE_FIELDS)
    members = list(zip(joint.counters.values(), joint.offsets))
    if chunk is not None:
        monkeypatch.setattr(count, "TABLE_CHUNK", chunk)
        edges = [c._edges.tolist() for c, _ in members]
        assert any(line // chunk and line % chunk for line, _, _ in edges)
        assert any(end % chunk and end > chunk for _, _, end in edges)
    for d in range(1, 7):
        table = joint.monomial_table(d)
        for c, lo in members:
            want = np.array(list(monomial_rows(c, d, range(basis_size(d)))))
            assert (table[:, lo: lo + len(c.weights)] == want).all(), (d, c.q)


@lru_cache(maxsize=None)
def _counter(m: int) -> PointCounter:
    return PointCounter(build_field(m))


@st.composite
def _row_requests(draw):
    """A field F_{2^m}, a degree d, ascending degree-d basis indices and
    ascending representatives that include the field's first column on the
    line x = 0 and its column of (0:0:1)."""
    m, d = draw(st.integers(1, 11)), draw(st.integers(1, 6))
    cols = sorted(draw(st.sets(st.integers(0, basis_size(d) - 1), min_size=1)))
    line, apex, n = _counter(m)._edges.tolist()
    sel = draw(st.sets(st.integers(0, n - 1), max_size=40)) | {line, apex}
    return m, d, cols, np.array(sorted(sel))


@settings(max_examples=150, deadline=None)
@given(_row_requests())
# Degree 4's basis groups by the exponent of x as [0], [1, 2], [3, 4, 5],
# [6..9], [10..14]: gaps inside groups and across them, in F_8 and F_2048.
@example((3, 4, [0, 3, 5, 6, 9, 11, 14], np.array([0, 5, 24, 28])))
@example((11, 4, [1, 4, 9, 10, 12], np.array([7, 381304, 381400, 381492])))
def test_monomial_rows_against_oracle(request):
    # The stepped evaluator's rows equal the rows computed on its own, and
    # each row is a fresh array, since a count XORs into the first one.
    m, d, cols, sel = request
    counter = _counter(m)
    rows = list(counter._monomial_rows(d, cols, sel))
    want = list(monomial_rows(counter, d, cols, sel))
    assert len(rows) == len(cols)
    for row, ref in zip(rows, want):
        assert row.dtype == ref.dtype and (row == ref).all()
    assert not any(np.shares_memory(a, b) for i, a in enumerate(rows)
                   for b in rows[i + 1:])


def test_table_build_memory():
    # Built in column chunks, the degree-6 table over the nine fields needs
    # little beyond its own bytes: no temporary spans a field.
    joint = JointCounter(NINE_FIELDS)
    tracemalloc.start()
    try:
        table = joint.monomial_table(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes < 4 << 20


def test_joint_counter_holds_no_scratch_columns():
    # Once built and warm, a nine-field joint counter holds its table and
    # four per-column arrays: coords, weights, the accumulator and the scan
    # buffer.  The rest (evaluator tables, squaring maps, edges) is per
    # field element, under one byte per column in all; any further
    # per-column array, even one bool per column, breaks the bound.
    rng = random.Random(13)
    tracemalloc.start()
    try:
        joint = JointCounter(NINE_FIELDS)
        for _ in range(2):
            joint.count_all(PolyMask(4, rng.randint(1, full_mask(4))))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = len(joint.weights)
    arrays = (joint.monomial_table(4), joint.coords, joint.weights,
              joint._acc[4], joint._hit)
    assert held - sum(a.nbytes for a in arrays) < n


def test_counts_invariant_on_orbits():
    # Totals, tallies and the singular points' degrees are GL_3(F_2)
    # invariants (the action permutes points and commutes with Frobenius).
    f8 = build_field(3)
    counter = PointCounter(f8)
    mats = enumerate_gl3()
    rng = random.Random(6)
    for _ in range(50):
        f = PolyMask(4, rng.randint(1, full_mask(4)))
        base = counter.count(f)
        for _ in range(4):
            g = substitute(f, mats[rng.randrange(168)])
            other = counter.count(g)
            assert (other.total, other.smooth, sorted(other.singular_degrees)) == (
                base.total,
                base.smooth,
                sorted(base.singular_degrees),
            )


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        count_points(PolyMask(3, 0), build_field(3))
