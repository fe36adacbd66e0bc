"""Mask encoding, evaluation, differentiation, substitution."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import IDENTITY, column_image_table, mat_mul, mul_masks

from curvesearch.gf2m import build_field
from curvesearch.orbit import enumerate_gl3
from curvesearch.polyrep import (
    PolyMask,
    basis_size,
    bit_indices,
    decode,
    encode,
    evaluate,
    format_poly,
    full_mask,
    gl3_table,
    is_trivially_reducible,
    monomials,
    parse_mask_id,
    parse_poly,
    partials,
    substitute,
)


def test_basis_sizes_and_order():
    assert basis_size(6) == 28
    assert full_mask(6) == 2**28 - 1
    assert monomials(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # Graded-lex descending in i then j: first is x^d, last is z^d.
    for d in range(1, 7):
        ms = monomials(d)
        assert ms[0] == (d, 0, 0)
        assert ms[-1] == (0, 0, d)
        assert all(sum(t) == d for t in ms)
        assert sorted(ms, key=lambda t: (-t[0], -t[1])) == list(ms)


def test_encode_examples_and_errors():
    assert encode([(6, 0, 0)]).bits == 1
    all_monos = encode(list(monomials(6)))
    assert all_monos.bits == 2**28 - 1
    with pytest.raises(ValueError):
        encode([(1, 0, 0), (0, 2, 0)])  # mixed degrees
    with pytest.raises(ValueError):
        encode([(1, -1, 1)])
    with pytest.raises(ValueError):
        encode([(1, 0, 0), (1, 0, 0)])  # duplicate


@given(st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_encode_decode_round_trip(d, data):
    bits = data.draw(st.integers(1, full_mask(d)))
    f = PolyMask(d, bits)
    assert encode(decode(f)) == f


def test_round_trip_bulk():
    rng = random.Random(1)
    for d in range(1, 7):
        for _ in range(10_000 // 6):
            f = PolyMask(d, rng.randint(1, full_mask(d)))
            assert encode(decode(f)) == f


def test_evaluate_examples():
    f8 = build_field(3)
    f16 = build_field(4)
    # All monomials are 1 at (1,1,1): value = parity of the popcount.
    rng = random.Random(2)
    for _ in range(50):
        f = PolyMask(6, rng.randint(1, full_mask(6)))
        want = bin(f.bits).count("1") % 2
        assert evaluate(f, (1, 1, 1), f8) == want
    # Hermitian mask at (0, 1, g) in GF(16) = 1 + g^5.
    h = parse_poly("x^5 + y^5 + z^5")
    g = 2
    assert evaluate(h, (0, 1, g), f16) == 1 ^ f16.pow(g, 5)
    with pytest.raises(ValueError):
        evaluate(h, (0, 0, 0), f16)


def test_evaluate_against_naive_oracle():
    f64 = build_field(6)
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 6)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        p = tuple(rng.randrange(64) for _ in range(3))
        if p == (0, 0, 0):
            p = (1, 0, 0)
        acc = 0
        for i, j, k in decode(f):
            term = 1
            for base, e in zip(p, (i, j, k)):
                for _ in range(e):
                    term = f64.mul(term, base)
            acc ^= term
        assert evaluate(f, p, f64) == acc


def test_partials_examples():
    fx, fy, fz = partials(parse_poly("x^2"))
    assert (fx.bits, fy.bits, fz.bits) == (0, 0, 0)
    fx, fy, fz = partials(parse_poly("x*y*z"))
    assert format_poly(fx) == "y*z"
    assert format_poly(fy) == "x*z"
    assert format_poly(fz) == "x*y"


def test_euler_identity():
    # x f_x + y f_y + z f_z = (d mod 2) f, via the independent symbolic product.
    x = PolyMask(1, encode([(1, 0, 0)]).bits)
    y = PolyMask(1, encode([(0, 1, 0)]).bits)
    z = PolyMask(1, encode([(0, 0, 1)]).bits)
    rng = random.Random(4)
    for d in range(1, 7):
        for _ in range(10_000 // 6):
            f = PolyMask(d, rng.randint(1, full_mask(d)))
            fx, fy, fz = partials(f)
            acc = 0
            for var, pf in ((x, fx), (y, fy), (z, fz)):
                if pf.bits:
                    acc ^= mul_masks(var, pf).bits
            want = f.bits if d % 2 else 0
            assert acc == want, f


def test_substitute_identity_and_symmetry():
    h = parse_poly("x^5 + y^5 + z^5")
    assert substitute(h, IDENTITY) == h
    swap_xy = (0b010, 0b001, 0b100)
    assert substitute(h, swap_xy) == h
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(1, 6)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        assert substitute(f, IDENTITY) == f


def test_substitute_rejects_singular():
    with pytest.raises(ValueError):
        substitute(parse_poly("x^2"), (0b001, 0b001, 0b100))


def test_substitute_degree0_constant():
    one = PolyMask(0, 1)
    for m in enumerate_gl3():
        assert substitute(one, m) == one


@pytest.mark.parametrize("d", range(7))
def test_gl3_table_matches_products(d):
    # The vectorized table against the per-matrix products of linear forms.
    table = gl3_table(d)
    assert table.shape == (168, basis_size(d)) and table.dtype == np.uint32
    for g, m in enumerate(enumerate_gl3()):
        assert tuple(table[g].tolist()) == column_image_table(d, m), m


def test_substitution_group_action():
    # Composition convention: substitute(substitute(f, A), B) = substitute(f, B A).
    mats = enumerate_gl3()
    rng = random.Random(6)
    for _ in range(100):
        d = rng.randint(1, 6)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        for _ in range(10):
            a = mats[rng.randrange(168)]
            b = mats[rng.randrange(168)]
            assert substitute(substitute(f, a), b) == substitute(f, mat_mul(b, a))
    # Degree preserved and bijective on masks for every group element.
    f = parse_poly("x^5*y + y^5*z + x*z^5")
    images = {substitute(f, m) for m in mats}
    assert all(g.degree == 6 for g in images)


def test_substitution_evaluation_compatibility():
    # evaluate(substitute(f, M), p) = evaluate(f, p M) over GF(8).
    f8 = build_field(3)
    mats = enumerate_gl3()
    rng = random.Random(7)
    for _ in range(1000):
        d = rng.randint(1, 6)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        m = mats[rng.randrange(168)]
        p = tuple(rng.randrange(8) for _ in range(3))
        if p == (0, 0, 0):
            p = (0, 1, 2)
        # row vector times matrix, entries of M are 0/1 field scalars
        pm = tuple(
            (p[0] if (m[0] >> c) & 1 else 0)
            ^ (p[1] if (m[1] >> c) & 1 else 0)
            ^ (p[2] if (m[2] >> c) & 1 else 0)
            for c in range(3)
        )
        assert evaluate(substitute(f, m), p, f8) == evaluate(f, pm, f8)


def test_gradient_transforms_by_chain_rule():
    # grad(substitute(f, M))[r] = xor over c with M[r][c] = 1 of
    # substitute(f_c, M), symbolically, for d <= 4.
    mats = enumerate_gl3()
    rng = random.Random(8)
    for _ in range(200):
        d = rng.randint(2, 4)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        m = mats[rng.randrange(168)]
        lhs = partials(substitute(f, m))
        rhs_parts = [substitute(g, m) if g.bits else g for g in partials(f)]
        for r in range(3):
            acc = 0
            for c in range(3):
                if (m[r] >> c) & 1:
                    acc ^= rhs_parts[c].bits
            assert lhs[r].bits == acc


def test_trivially_reducible_filter():
    assert is_trivially_reducible(parse_poly("x^6 + x^2*y^4"))
    assert is_trivially_reducible(parse_poly("x^6 + x*y^5"))
    assert not is_trivially_reducible(parse_poly("x^5*y + y^5*z + x*z^5"))
    assert not is_trivially_reducible(parse_poly("x"))  # linear forms never fire


def test_text_and_mask_id_round_trip():
    canonical = [
        "x^5 + y^5 + z^5",
        "x^3*y^2 + x^3*y*z + y^5 + y^3*z^2 + z^5",  # basis order, x-major
        "x^4*y^2 + x*z^5 + y^5*z",
    ]
    for text in canonical:
        f = parse_poly(text)
        assert format_poly(f) == text
        assert parse_mask_id(f.mask_id) == f
    # Arbitrary input order still parses to the same mask.
    a = parse_poly("y^5 + z^5 + x^3*y*z + x^3*y^2 + y^3*z^2")
    assert a == parse_poly(canonical[1])
    assert format_poly(a) == canonical[1]
    with pytest.raises(ValueError):
        parse_poly("x^2 + w")
    with pytest.raises(ValueError):
        parse_mask_id("q6:0x1")
    with pytest.raises(ValueError):
        parse_mask_id("d6:0x0")


def test_text_round_trip_degrees_0_to_6():
    # The constant prints as "1", as the partial derivative of a linear form
    # does, and parses back.
    assert format_poly(PolyMask(0, 1)) == "1"
    assert format_poly(partials(parse_poly("x + y"))[0]) == "1"
    assert parse_poly("1") == PolyMask(0, 1)
    rng = random.Random(19)
    for d in range(7):
        top = full_mask(d)
        masks = {1, top, *(1 << t for t in range(basis_size(d)))}
        masks |= {rng.randint(1, top) for _ in range(20)}
        for bits in masks:
            f = PolyMask(d, bits)
            assert parse_poly(format_poly(f)) == f, f


@given(st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_mask_id_round_trip_random(d, data):
    bits = data.draw(st.integers(1, full_mask(d)))
    f = PolyMask(d, bits)
    assert parse_mask_id(f.mask_id) == f


def test_mul_masks_degree_and_commutativity():
    rng = random.Random(9)
    for _ in range(200):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = PolyMask(da, rng.randint(1, full_mask(da)))
        b = PolyMask(db, rng.randint(1, full_mask(db)))
        ab = mul_masks(a, b)
        assert ab.degree == da + db
        assert ab == mul_masks(b, a)


def test_bit_indices():
    assert bit_indices(0b101001) == [0, 3, 5]
    assert bit_indices(0) == []
