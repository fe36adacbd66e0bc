"""Normal-form and trial-division irreducibility, and absolute-irreducibility
certificates."""

import random
import time
from dataclasses import replace

import numpy as np
import oracles
import pytest
from oracles import (
    as_dict,
    conjugate_cubic_norm,
    divides,
    find_factor,
    hom_divmod,
    hom_mul,
    is_irreducible,
    mask_to_dict,
    mul_masks,
    naive_count,
    norm,
)

from curvesearch import irred
from curvesearch.bounds import load_lauter
from curvesearch.gf2m import build_field
from curvesearch.irred import certify_absolute, find_simple_point
from curvesearch.orbit import SieveEngine
from curvesearch.polyrep import (
    PolyMask,
    basis_size,
    bit_indices,
    encode,
    evaluate,
    full_mask,
    monomials,
    parse_mask_id,
    parse_poly,
    partials,
)
from curvesearch.search import SUPPORTED_FIELDS, CurvePipeline, CurveRecord, verify

F2 = build_field(1)


def witness_text(g: PolyMask | None) -> str | None:
    """An F_2 witness form as the catalog prints it."""
    return None if g is None else f"F_{{2^1}}: {g}"


def oracle_certificate(f: PolyMask) -> tuple[str, int | None, oracles.Factor | None]:
    """(absolute, k, witness) by trial division and scalar point scans.  An
    F_2-irreducible f of degree d splits over the closure into s conjugate
    factors of degree d/s over F_{2^s}, s | d, and a simple F_{2^k}-point
    forces s | k; f is absolutely irreducible iff, for each prime p that may
    divide s, it has no factor of degree d/p over F_{2^p}.  k is the first
    m with a simple point: the scalar scan over F_2..F_8, then naive counts."""
    w = find_factor(f, 1)
    if w is not None:
        return "reducible", None, w
    sp = find_simple_point(f)
    for p in (2, 3, 5):
        if f.degree % p == 0 and (sp is None or sp[0] % p == 0):
            w = oracles._sweep(f, [f.degree // p], p)
            if w is not None:
                return "reducible", None, w
    k = sp[0] if sp else next(
        m for m in (4, 5, 6) if naive_count(f, build_field(m)).smooth)
    return "yes", k, None


def test_divides_examples():
    f = mask_to_dict(parse_poly("x^6 + x*y^5"))
    assert divides({(1, 0, 0): 1}, f, F2)
    sq = mask_to_dict(parse_poly("x^2 + y^2"))
    assert divides({(1, 0, 0): 1, (0, 1, 0): 1}, sq, F2)  # (x+y)^2 in char 2
    with pytest.raises(ValueError):
        divides({}, f, F2)
    with pytest.raises(ValueError):
        divides(f, f, F2)  # degree must be strictly smaller


def test_divides_random_products_and_perturbations():
    rng = random.Random(0)
    for _ in range(200):
        dg = rng.randint(1, 3)
        dh = rng.randint(1, 3)
        g = PolyMask(dg, rng.randint(1, full_mask(dg)))
        h = PolyMask(dh, rng.randint(1, full_mask(dh)))
        f = mul_masks(g, h)
        if f.bits == 0:
            continue
        gd, fd = mask_to_dict(g), mask_to_dict(f)
        quot, ok = hom_divmod(fd, gd, F2)
        assert ok
        assert hom_mul(gd, quot, F2) == fd  # quotient re-multiplies exactly
        # Toggling one monomial breaks divisibility unless the result happens
        # to be another multiple; cross-check with a product enumeration.
        t = rng.randrange(full_mask(f.degree).bit_length())
        f2bits = f.bits ^ (1 << t)
        if f2bits == 0:
            continue
        f2 = PolyMask(f.degree, f2bits)
        got = divides(gd, mask_to_dict(f2), F2)
        want = any(
            mul_masks(g, PolyMask(dh, hb)) == f2
            for hb in range(1, full_mask(dh) + 1)
        )
        assert got == want


def test_is_irreducible_examples():
    assert is_irreducible(parse_poly("x^5 + y^5 + z^5"), 1)
    w = find_factor(parse_poly("x^6 + y^6 + z^6"), 1)
    assert w is not None and w.degree == 3  # the square of an irreducible cubic
    # Anything caught by the trivial filter is reducible.
    assert not is_irreducible(parse_poly("x^6 + x*y^5"), 1)
    assert not is_irreducible(parse_poly("x^6 + x^2*y^4"), 1)


def test_exhaustive_degree_le4_against_product_oracle():
    # Every mask of degree <= 4: trial division agrees with an exhaustive
    # product enumeration over F_2.
    products = {d: set() for d in range(2, 5)}
    for da in range(1, 3):
        for db in range(da, 4):
            d = da + db
            if d > 4:
                continue
            for a in range(1, full_mask(da) + 1):
                pa = PolyMask(da, a)
                for b in range(1, full_mask(db) + 1):
                    prod = mul_masks(pa, PolyMask(db, b))
                    if prod.bits:
                        products[d].add(prod.bits)
    for d in range(2, 5):
        for bits in range(1, full_mask(d) + 1):
            f = PolyMask(d, bits)
            assert (irred._f2_factor(f) is not None) == (bits in products[d]), f
            assert is_irreducible(f, 1) == (bits not in products[d]), f


def _f2_rank(vectors: list[int]) -> int:
    """Rank over F_2 of integer bit vectors, by plain elimination."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def test_normal_form_kernel_is_exactly_the_multiples():
    # For every divisor form g of degree e <= d/2, d = 2..6 (all 1,093 at
    # degree 6): every product of g with a degree-(d - e) monomial reduces
    # to 0 in g's column, and the column's n entries have rank
    # n - basis_size(d - e).  Multiplication by g is injective, so the
    # kernel of the column's map holds the multiples of g and has their
    # dimension: it is exactly the multiples of g.
    for d in range(2, 7):
        table, forms = irred._normal_forms(d)
        n = basis_size(d)
        assert sorted(forms) == [PolyMask(e, g) for e in range(1, d // 2 + 1)
                                 for g in range(1, full_mask(e) + 1)]
        assert table.shape == (n, len(forms)) and table.dtype == np.uint32
        for j, g in enumerate(forms):
            column = table[:, j].tolist()
            for c in monomials(d - g.degree):
                product = mul_masks(g, encode([c]))
                acc = 0
                for t in bit_indices(product.bits):
                    acc ^= column[t]
                assert acc == 0, (g, c)
            assert _f2_rank(column) == n - basis_size(d - g.degree), g
    assert len(irred._normal_forms(6)[1]) == 1_093


def test_witness_text_is_the_sweeps_factor_text():
    # The catalog's witness text of each divisor form, on all 1,170 columns
    # of the degree-2, -4 and -6 tables, is the text of the trial-division
    # sweep's factor for that form.
    columns = [g for d in (2, 4, 6) for g in irred._normal_forms(d)[1]]
    assert len(columns) == 1_170
    for g in columns:
        assert witness_text(g) == str(oracles._witness(mask_to_dict(g), 1)), g


@pytest.mark.slow
def test_parity_checks_against_trial_division():
    # The normal-form witness is the trial-division sweep's witness on every
    # mask of degree <= 4, and on seeded uniform degree-5 and degree-6 masks
    # topped up with random products (uniform masks are mostly irreducible).
    masks = [PolyMask(d, bits) for d in range(1, 5)
             for bits in range(1, full_mask(d) + 1)]
    rng = random.Random(8)
    for d in (5, 6):
        masks += [PolyMask(d, rng.randint(1, full_mask(d))) for _ in range(500)]
        for _ in range(100):
            e = rng.randint(1, d // 2)
            g = PolyMask(e, rng.randint(1, full_mask(e)))
            masks.append(mul_masks(g, PolyMask(d - e, rng.randint(1, full_mask(d - e)))))
    reducible = 0
    for f in masks:
        want = oracles._sweep(f, range(1, f.degree // 2 + 1), 1)
        assert witness_text(irred._f2_factor(f)) == (want and str(want)), f
        reducible += want is not None
    assert reducible > 7_000


def test_galois_descent_conjugate_split():
    # A norm-form product of two conjugate cubics over F_4 is irreducible over
    # F_2 but must be caught at k = 2.
    f4 = build_field(2)
    fm = conjugate_cubic_norm()
    assert is_irreducible(fm, 1)
    w = find_factor(fm, 2)
    assert w is not None and w.k == 2 and w.degree == 3
    # witness really divides f over F_4
    quot, ok = hom_divmod(mask_to_dict(fm), as_dict(w), f4)
    assert ok and hom_mul(as_dict(w), quot, f4) == mask_to_dict(fm)


def test_find_simple_point_examples():
    sp = find_simple_point(parse_poly("x^5 + y^5 + z^5"))
    assert sp is not None
    k, p = sp
    assert k == 1
    field = build_field(k)
    f = parse_poly("x^5 + y^5 + z^5")
    assert evaluate(f, p, field) == 0
    assert any(evaluate(g, p, field) != 0 for g in partials(f))
    # x^2 + y z has F_2 points, all simple? gradient = (0, z, y): point (0,1,0)
    # has gradient (0,0,1) != 0.
    assert find_simple_point(parse_poly("x^2 + y*z")) is not None


def test_certify_absolute_yes_and_reducible():
    f = parse_poly("x^5 + y^5 + z^5")
    st = certify_absolute(f, {})
    assert st.absolute == "yes" and st.certificate_field == 1
    assert find_factor(f, 1) is None and find_simple_point(f)[0] == 1

    prod = mul_masks(
        PolyMask(1, 0b011), parse_poly("x^5 + x*y^3*z + y^4*z + z^5")
    )
    st = certify_absolute(prod, {})
    assert st.absolute == "reducible"
    assert st.witness is not None and st.witness.degree <= 3
    # Soundness: the stored witness truly divides.
    quot, ok = hom_divmod(mask_to_dict(prod), mask_to_dict(st.witness), F2)
    assert ok

    # Reducible over F_4 only: its smooth points lie over F_{2^m} for even m
    # alone, so g = gcd(6, 4) = 2 up to F_2048, with no F_2 witness; the F_4
    # sweep exhibits a conjugate cubic.
    fm = conjugate_cubic_norm()
    st = certify_absolute(fm, {})
    assert (st.absolute, st.certificate_field, st.witness) == ("reducible", None, None)
    w = find_factor(fm, 2)
    assert (w.k, w.degree) == (2, 3)


def test_each_certificate_sweep_runs_once(monkeypatch):
    # The certificate runs no sweep, and find_factor(f, k) only the F_{2^k}
    # sweep; no call sweeps over F_2.
    sweeps = []
    real_sweep = oracles._sweep

    def recording(f, degrees, k):
        sweeps.append(1 << k)
        return real_sweep(f, degrees, k)

    monkeypatch.setattr(oracles, "_sweep", recording)
    fm = conjugate_cubic_norm()
    st = certify_absolute(fm, {})
    assert (st.absolute, st.certificate_field, st.witness) == ("reducible", None, None)
    assert sweeps == []

    assert find_factor(fm, 1) is None
    assert find_factor(fm, 3) is None  # 3 | 6, but the factors live over F_4
    w = find_factor(fm, 2)
    assert (w.k, w.degree) == (2, 3)
    assert sweeps == [8, 4]


def test_certificate_sweeps_over_f2_only_for_witnesses(monkeypatch):
    # Neither an F_2-irreducible curve nor a reducible one is swept over F_2:
    # the normal forms give the witness the sweep would find.
    prod = mul_masks(
        PolyMask(1, 0b011), parse_poly("x^5 + x*y^3*z + y^4*z + z^5")
    )
    real_sweep = oracles._sweep
    want = real_sweep(prod, range(1, 4), 1)
    sweeps = []

    def recording(f, degrees, k):
        sweeps.append(1 << k)
        return real_sweep(f, degrees, k)

    monkeypatch.setattr(oracles, "_sweep", recording)
    st = certify_absolute(parse_poly("x^5 + y^5 + z^5"), {})
    assert (st.absolute, st.certificate_field, sweeps) == ("yes", 1, [])
    st = certify_absolute(prod, {})
    assert (st.absolute, witness_text(st.witness), sweeps) == ("reducible", str(want), [])


def test_certificate_matches_simple_point_oracle():
    # Every degree <= 4 orbit (trivially reducible ones included) and seeded
    # random F_2-irreducible degree-5/6 masks, each certified three ways:
    # counting every field itself, reading the nine search fields' counts,
    # and from those counts read back from a catalog line, which carry no
    # smooth points by degree and so must be counted again.
    template = verify("x^5 + y^5 + z^5", 8)
    masks = []
    for d in range(1, 5):
        engine = SieveEngine(d)
        while not engine.done:
            masks += [info.rep for info in engine.run_range(1 << 12)]
    assert len(masks) == 305
    rng = random.Random(2001)
    for d, n in ((5, 60), (6, 12)):
        while n:
            f = PolyMask(d, rng.randint(1, full_mask(d)))
            if is_irreducible(f, 1):
                masks.append(f)
                n -= 1
    for d in range(1, 7):
        # Each degree is counted as the search counts it, with its tables.
        pipe = CurvePipeline(SUPPORTED_FIELDS, load_lauter())
        for counter in pipe.counters.values():
            counter.monomial_table(d)
            counter.monomial_table(max(d - 1, 1))
        for f in [f for f in masks if f.degree == d]:
            counts = pipe.count_all(f)
            line = replace(template, counts=counts).to_json()
            read_back = CurveRecord.from_json(line).counts
            assert all(pc.smooth_by_degree is None for pc in read_back.values())
            absolute, k, w = oracle_certificate(f)
            for given in ({}, counts, read_back):
                st = certify_absolute(f, given)
                assert (st.absolute, st.certificate_field) == (absolute, k), f
                if w is not None and w.k == 1:
                    assert witness_text(st.witness) == str(w), f
                elif absolute == "reducible":
                    assert st.witness is None, f  # conjugate factors are not exhibited


@pytest.mark.slow
def test_certificate_exact_on_conjugate_norms():
    # For seeded random h of degree e over F_{2^s}, e s <= 6, s >= 2, whose
    # norm N(h) is F_2-irreducible, N(h) splits over F_{2^s}: the certificate
    # says "reducible" with no witness, in under a second.  For each shape's
    # first norm, trial division over F_8 (3 | s) or F_4 (2 | s) finds a
    # conjugate factor; the sweep of cubics over F_4 takes most of the time.
    rng = random.Random(10)
    for e, s in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2)]:
        field = build_field(s)
        for i in range(5):
            f = None
            while f is None or irred._f2_factor(f) is not None:
                h = {m: c for m in monomials(e) if (c := rng.randrange(field.order))}
                f = norm(h, s) if h else None
            start = time.perf_counter()
            st = certify_absolute(f, {})
            assert time.perf_counter() - start < 1.0, f
            assert (st.absolute, st.certificate_field, st.witness) == (
                "reducible", None, None), f
            k = 3 if s % 3 == 0 else 2 if s % 2 == 0 else None
            if i == 0 and k is not None:
                w = find_factor(f, k)
                assert (w.k, w.degree) == (k, f.degree // k), f


def test_certificate_decides_oracle_unknowns():
    # F_2-irreducible, no simple point over F_2..F_8 (where the old oracle's
    # scan stopped), smooth points over F_16 and F_32: g = 1.
    for mask_id in ("d5:0x000091db", "d6:0x002001f1", "d6:0x0ea3d9bf"):
        f = parse_mask_id(mask_id)
        assert find_factor(f, 1) is None and find_simple_point(f) is None
        st = certify_absolute(f, {})
        assert (st.absolute, st.certificate_field, st.witness) == ("yes", 4, None)


def test_certificate_hygiene_on_record_curves():
    # Re-validate stored certificates: no divisor over the certificate field,
    # and the oracle's first simple point lies over it, re-evaluating to zero
    # with nonzero gradient.
    for text in (
        "x^3*y^2 + y^5 + x^3*y*z + y^3*z^2 + z^5",
        "x^4*y^2 + y^5*z + x*z^5",
        "x^4*y + x^2*y^3 + x*y^4 + y^5 + x^3*y*z + y^4*z + x^2*z^3 + y*z^4",
    ):
        f = parse_poly(text)
        st = certify_absolute(f, {})
        assert st.absolute == "yes"
        k = st.certificate_field
        assert find_factor(f, k) is None
        ksp, p = find_simple_point(f)
        assert ksp == k
        field = build_field(k)
        assert evaluate(f, p, field) == 0
        assert any(evaluate(g, p, field) != 0 for g in partials(f) if g.bits)


def test_smooth_irreducible_consistency():
    # A smooth curve with a rational point that is irreducible over F_2 is
    # absolutely irreducible; certify_absolute must never contradict that.
    from curvesearch.count import count_points

    f16 = build_field(4)
    h = parse_poly("x^5 + y^5 + z^5")
    pc = count_points(h, f16)
    assert pc.singular_points == ()
    assert certify_absolute(h, {}).absolute == "yes"
