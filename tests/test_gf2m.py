"""Field table construction and arithmetic axioms."""

import dataclasses
import random

import numpy as np
import pytest
from oracles import clmul_reduce, div

from curvesearch.gf2m import build_field, primitive_polys
from curvesearch.count import PointCounter
from curvesearch.polyrep import PolyMask, full_mask


def test_build_field_basics():
    f2 = build_field(1)
    assert f2.order == 2
    assert list(f2.exp) == [1]

    f16 = build_field(4)
    g = 2
    assert f16.pow(g, 15) == 1
    assert all(f16.pow(g, k) != 1 for k in range(1, 15))


def test_fields_compare_and_hash_by_identity():
    # `build_field` makes one object per field, so a field's hash and
    # equality need not walk its tables; an equal copy is another field.
    f = build_field(11)
    assert hash(f) == object.__hash__(f)
    assert build_field(11) is f and build_field(11) == f
    assert dataclasses.replace(f) != f


def test_out_of_range_degree():
    with pytest.raises(ValueError):
        build_field(0)
    with pytest.raises(ValueError):
        build_field(12)


def test_exp_log_tables_are_inverse_bijections():
    for m in range(1, 12):
        f = build_field(m)
        # Tuples: read-only by type, and indexed by the scalar operations.
        assert type(f.exp) is tuple and type(f.log) is tuple
        assert len(f.exp) == max(f.order - 1, 1)
        assert sorted(f.exp) == list(range(1, f.order)) or f.order == 2
        for a in range(1, f.order):
            assert int(f.exp[int(f.log[a])]) == a


def test_tables_against_clmul_oracle():
    for m in range(1, 12):
        f = build_field(m)
        # Every table entry equals the iterated carry-less product.
        t = 1
        for i in range(f.order - 1):
            assert int(f.exp[i]) == t
            t = clmul_reduce(t, 2, f)
        assert t == 1
        # Product of all nonzero elements is 1 (pairing with inverses).
        prod = 1
        for a in range(1, f.order):
            prod = f.mul(prod, a)
        assert prod == 1


def test_mul_matches_clmul_on_random_pairs():
    rng = random.Random(11)
    f = build_field(11)
    for _ in range(2000):
        a = rng.randrange(f.order)
        b = rng.randrange(f.order)
        assert f.mul(a, b) == clmul_reduce(a, b, f)


@pytest.mark.parametrize("m", range(1, 7))
def test_field_axioms_exhaustive_pairs(m):
    f = build_field(m)
    c = min(3, f.order - 1)
    for a in range(f.order):
        assert a ^ a == 0  # characteristic 2
        for b in range(f.order):
            assert f.mul(a, b) == f.mul(b, a)
            assert a ^ b == b ^ a
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(c, a ^ b) == f.mul(c, a) ^ f.mul(c, b)


@pytest.mark.parametrize("m", range(7, 12))
def test_field_axioms_random_triples(m):
    f = build_field(m)
    rng = random.Random(m)
    for _ in range(100_000 // 4):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(c, a ^ b) == f.mul(c, a) ^ f.mul(c, b)


def test_inverse_axiom_and_errors():
    for m in (1, 3, 7):
        f = build_field(m)
        for a in range(1, f.order):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            div(f, 1, 0)
    f8 = build_field(3)
    assert f8.pow(0, 0) == 1
    assert f8.pow(0, 5) == 0


def test_vectorized_ops_match_scalar():
    f = build_field(5)
    rng = np.random.default_rng(5)
    a = rng.integers(0, f.order, 500, dtype=np.uint16)
    b = rng.integers(0, f.order, 500, dtype=np.uint16)
    prod = f.mul_arr(a, b)
    for i in range(len(a)):
        assert int(prod[i]) == f.mul(int(a[i]), int(b[i]))


def _x_order_mod(poly: int, m: int) -> int:
    val, order = 1, 0
    for k in range(1, 1 << m):
        val <<= 1
        while val.bit_length() - 1 >= m:
            val ^= poly << (val.bit_length() - 1 - m)
        if val == 1:
            return k
    return 0


def test_defining_poly_is_lexicographically_smallest_primitive():
    # Independent check: x has full multiplicative order modulo the defining
    # polynomial of index i, and modulo exactly i smaller-integer polynomials
    # of the same degree.  F_2 has no second representation.
    for m, index in [(m, 0) for m in range(1, 12)] + [(3, 1), (4, 1), (5, 1)]:
        f = build_field(m, index)
        assert _x_order_mod(f.defining_poly, m) == f.order - 1
        smaller = [cand for cand in range((1 << m) + 1, f.defining_poly, 2)
                   if _x_order_mod(cand, m) == f.order - 1]
        assert len(smaller) == index, (m, index, smaller)
    with pytest.raises(ValueError):
        build_field(1, 1)


def test_representation_invariance_of_counts():
    # Two field tables with different defining polynomials give identical
    # smooth counts (point counting is representation independent).
    # m = 1 and m = 2 admit a single irreducible polynomial, so start at 3.
    rng = random.Random(42)
    for m in range(3, 6):
        fa = build_field(m)
        fb = build_field(m, poly_index=1)
        assert fa.defining_poly != fb.defining_poly
        ca, cb = PointCounter(fa), PointCounter(fb)
        for _ in range(100):
            d = rng.randint(1, 6)
            f = PolyMask(d, rng.randint(1, full_mask(d)))
            pa, pb = ca.count(f), cb.count(f)
            assert (pa.total, pa.smooth) == (pb.total, pb.smooth)


def test_primitive_polys_list():
    assert primitive_polys(4, 2) == [0b10011, 0b11001]
