"""Projective point enumeration and curve point counting."""

import random
from math import gcd

import numpy as np
import pytest
from oracles import (
    conjugate_cubic_norm,
    generator,
    hom_mul,
    naive_count,
    partials_count,
)

from curvesearch.count import (
    JointCounter,
    PointCount,
    PointCounter,
    count_points,
    projective_points,
)
from curvesearch.gf2m import build_field
from curvesearch.orbit import enumerate_gl3
from curvesearch.polyrep import PolyMask, encode, full_mask, parse_poly, substitute


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


def test_streaming_fallback_matches_tables(monkeypatch):
    # Force the real fallback: table allocation fails.
    f16 = build_field(4)
    with_tables = _tabulated(f16)
    streaming = JointCounter([f16])
    # Only the degree-3 table fails: degree 2 stays tabulated.
    partial = JointCounter([f16])
    real_build = partial._build_table

    def no_memory(d):
        raise MemoryError

    def no_memory_for_3(d):
        if d == 3:
            raise MemoryError
        return real_build(d)

    monkeypatch.setattr(streaming, "_build_table", no_memory)
    monkeypatch.setattr(partial, "_build_table", no_memory_for_3)
    rng = random.Random(5)
    with pytest.warns(UserWarning, match="falling back"):
        for d in range(1, 7):
            assert streaming.monomial_table(d) is None
    with pytest.warns(UserWarning, match="q in \\(16,\\), d=3"):
        assert partial.monomial_table(3) is None
    assert partial.counters[16].monomial_table(3) is None
    assert (partial.monomial_table(2) == with_tables.monomial_table(2)).all()
    for _ in range(40):
        d = rng.randint(1, 6)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        a, b = with_tables.count_all(f), streaming.count_all(f)
        assert a == b == {16: naive_count(f, f16)}
    for _ in range(20):
        f = PolyMask(3, rng.randint(1, full_mask(3)))
        assert with_tables.count_all(f) == partial.count_all(f)
    assert streaming.monomial_table(3) is None
    assert partial.monomial_table(3) is None


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
    # scan, degrees of singular and smooth points included.  Counting first
    # without tables and then with them also checks the deltas starting
    # from values the evaluator left.
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
            for d in range(2, 7):
                assert joint.monomial_table(d) is not None
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


@pytest.mark.parametrize("table", [True, False], ids=["degree-d-table", "fallback"])
def test_nine_field_pass_against_oracle(nine_field_oracle, table, monkeypatch):
    # One joint pass over F_8..F_2048 per curve, with only the curve's
    # degree-d table (the singularity test reads its rows), or with that
    # table forced absent (the evaluator computes the same rows): each
    # field's total, smooth count, singular points in canonical order and
    # the degrees of its singular and smooth points match the oracle.
    off_affine = _off_affine_singular_curves()
    nodes = [nine_field_oracle[f][8].singular_points for f in off_affine[:2]]
    assert nodes == [((0, 0, 1),), ((0, 1, 0),)]
    pair = nine_field_oracle[off_affine[2]][64]
    assert pair.singular_degrees == (2, 2)
    assert all(x == 0 and z > 1 for x, _, z in pair.singular_points)
    for f, want in nine_field_oracle.items():
        joint = JointCounter(NINE_FIELDS)
        if not table:
            def no_memory(d):
                raise MemoryError

            monkeypatch.setattr(joint, "_build_table", no_memory)
            with pytest.warns(UserWarning, match="falling back"):
                assert joint.monomial_table(f.degree) is None
        else:
            assert joint.monomial_table(f.degree) is not None
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


def test_joint_table_allocation_failure(monkeypatch):
    # Where the joint table for degree 5 cannot be allocated, every field's
    # counter gets None for it and the joint pass evaluates degree 5's rows
    # directly; degree 4 stays tabulated.
    fields = [build_field(m) for m in (3, 4, 5)]
    joint = JointCounter(fields)
    real_build = joint._build_table

    def no_memory_for_5(d):
        if d == 5:
            raise MemoryError
        return real_build(d)

    monkeypatch.setattr(joint, "_build_table", no_memory_for_5)
    with pytest.warns(UserWarning, match="q in \\(8, 16, 32\\), d=5.*falling back"):
        assert joint.counters[16].monomial_table(5) is None
    assert joint.monomial_table(5) is None
    assert all(c.monomial_table(5) is None for c in joint.counters.values())
    for d in (3, 4):
        assert joint.monomial_table(d) is not None
    own = {field.order: PointCounter(field) for field in fields}
    for f in _delta_sequence(23):
        assert joint.count_all(f) == {q: c.count(f) for q, c in own.items()}, f
    f = PolyMask(4, 0b111)
    assert joint.count_all(f)[8] == naive_count(f, fields[0])


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
