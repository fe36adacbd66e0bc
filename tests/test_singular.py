"""Singularity classification: multiplicity, cones, factorization, blowups."""

import itertools
import random

import pytest
from oracles import div, multiplicity_at, subfield_elements

from curvesearch.corpus import load_corpus
from curvesearch.count import PointCounter
from curvesearch.gf2m import build_field
from curvesearch.orbit import enumerate_gl3
from curvesearch.polyrep import PolyMask, full_mask, parse_poly, substitute
from curvesearch import singular
from curvesearch.singular import (
    SingularPoint,
    _direction_counts,
    _f2_cone,
    analyze_singular_point,
    blowup_points_estimate,
    check_theorem1,
    cone_type,
    factor_binary_form,
    form_is_squarefree,
    tangent_cone_at,
)

F2 = build_field(1)
F4 = build_field(2)
F8 = build_field(3)
F16 = build_field(4)


def test_multiplicity_reference_cases():
    f1024 = build_field(10)
    g5 = parse_poly("x^3*y^2 + y^5 + x^3*y*z + y^3*z^2 + z^5")
    assert multiplicity_at(g5, (1, 0, 0), f1024) == 2

    f128 = build_field(7)
    g3 = parse_poly(
        "x^6 + x^5*y + x^4*y^2 + x^3*y^3 + x^2*y^4 + x^5*z + x^4*y*z"
        " + y^4*z^2 + x^3*z^3 + y^3*z^3"
    )
    assert multiplicity_at(g3, (0, 0, 1), f128) == 3

    h = parse_poly("x^5 + y^5 + z^5")
    assert multiplicity_at(h, (0, 1, 1), F16) == 1  # smooth point
    with pytest.raises(ValueError):
        multiplicity_at(h, (1, 0, 0), F16)  # not on the curve
    with pytest.raises(ValueError):
        tangent_cone_at(h, (0, 1, 1), F16)  # smooth point has no cone


def test_cone_types_reference_cases():
    cases = [
        ("x^3*y^2 + y^5 + x^3*y*z + y^3*z^2 + z^5", 10, (1, 0, 0), "u v", True, (2, True)),
        (
            "x^5*y + x^3*y^3 + x*y^5 + x^5*z + y^5*z + x^2*y^2*z^2 + x^3*z^3"
            " + y^3*z^3 + x*z^5 + y*z^5",
            4, (1, 1, 1), "u^2+u v+v^2", True, (2, True),
        ),
        (
            "x^3*y^3 + x^2*y^4 + y^5*z + x^3*y*z^2 + x*y^2*z^3 + y^3*z^3"
            " + y^2*z^4 + z^6",
            8, (1, 0, 0), "u v^2", False, (2, False),
        ),
        (
            "x^3*y^3 + y^6 + x*y^4*z + y^5*z + x^2*y^2*z^2 + y^4*z^2 + x^3*z^3"
            " + x*y*z^4 + x*z^5 + y*z^5",
            9, (1, 0, 0), "(u+v)(u^2+u v+v^2)", True, (1, True),
        ),
        (
            "x^4*y^2 + x^5*z + x^4*y*z + x^2*y^3*z + x^2*y^2*z^2 + x*y^3*z^2"
            " + x^2*z^4 + x*y*z^4 + y^2*z^4",
            7, (0, 1, 0), "u v(u+v)", True, (3, True),
        ),
    ]
    for text, m, point, want_type, want_ordinary, want_blowup in cases:
        field = build_field(m)
        s = analyze_singular_point(parse_poly(text), point, field, 1)
        assert s.cone_type == want_type, (text, s.cone_type)
        assert s.ordinary == want_ordinary
        assert blowup_points_estimate(s, field) == want_blowup


def test_quadratic_cone_rational_directions_depend_on_field_parity():
    # u^2 + u v + v^2 splits over F_4, so over F_{2^m} it has 2 rational
    # directions iff m is even.
    form = (1, 1, 1)
    assert factor_binary_form(form, F2) == []
    assert len(factor_binary_form(form, F4)) == 2
    assert factor_binary_form(form, F8) == []
    assert len(factor_binary_form(form, F16)) == 2


def test_factor_binary_form_examples():
    uv = (0, 1, 0)
    roots = dict(factor_binary_form(uv, F8))
    assert roots == {(1, 0): 1, (0, 1): 1}

    uv2 = (0, 0, 1, 0)  # u v^2: the direction (1:0) is the double root
    roots = dict(factor_binary_form(uv2, F8))
    assert roots == {(1, 0): 2, (0, 1): 1}
    assert not form_is_squarefree(uv2, F8)

    with pytest.raises(ValueError):
        factor_binary_form((0, 0, 0), F8)


def test_factor_binary_form_against_product_oracle():
    # Build forms as explicit products of linear factors over F_8 and compare
    # the recovered roots/multiplicities with the construction.
    directions = [(1, 0)] + [(t, 1) for t in range(8)]

    def normalize(u, v):
        if u != 0:
            return (1, div(F8, v, u))
        return (0, 1)

    rng = random.Random(3)
    for _ in range(300):
        deg = rng.randint(2, 4)
        chosen = [directions[rng.randrange(len(directions))] for _ in range(deg)]
        # expand product of (v0 u + u0 v) for each direction (u0: v0)
        form = [1]
        for (u0, v0) in chosen:
            # multiply by (v0 * u + u0 * v): coefficients indexed by v-power
            new = [0] * (len(form) + 1)
            for i, c in enumerate(form):
                new[i] ^= F8.mul(c, v0)
                new[i + 1] ^= F8.mul(c, u0)
            form = new
        want: dict = {}
        for (u0, v0) in chosen:
            key = normalize(u0, v0)
            want[key] = want.get(key, 0) + 1
        got = dict(factor_binary_form(tuple(form), F8))
        assert got == want, (chosen, form)
        assert form_is_squarefree(tuple(form), F8) == all(
            m == 1 for m in want.values()
        )


def subfield_roots(roots, field, k):
    """Those of a form's `roots` over the field that are F_{2^k}-rational,
    with the multiplicities they have over the field: a root's multiplicity
    does not depend on the field that contains it."""
    sub = set(subfield_elements(field, k))
    return [(d, mult) for d, mult in roots if d[1] in sub]


def test_rational_direction_count_against_factor_oracle():
    # The gcd counts of one squaring chain agree with the q + 1 direction
    # scan: exhaustively on nonzero F_2 forms of degree 1..6 over
    # F_2..F_2048, from one chain per form over F_2 as an F_2 point reads
    # them, and on seeded random forms over F_4, F_8 and F_16 inside fields
    # that contain them, over the subfield and the field from one chain as a
    # point of degree k >= 2 reads them.
    fields = {m: build_field(m) for m in range(1, 12)}
    for deg in range(1, 7):
        for bits in range(1, 1 << (deg + 1)):
            form = tuple((bits >> j) & 1 for j in range(deg + 1))
            assert _direction_counts(form, F2, range(1, 12)) == tuple(
                len(factor_binary_form(form, field)) for field in fields.values()
            ), form
    rng = random.Random(7)
    checked = 0
    for k in (2, 3, 4):
        for m in range(k, 12, k):
            field = fields[m]
            sub = subfield_elements(field, k)
            for _ in range(40):
                form = tuple(rng.choice(sub) for _ in range(rng.randint(2, 6)))
                if not any(form):
                    continue
                roots = factor_binary_form(form, field)
                assert _direction_counts(form, field, (k, m)) == (
                    len(subfield_roots(roots, field, k)), len(roots)), (form, m)
                checked += 1
    assert checked > 350
    with pytest.raises(ValueError):
        _direction_counts((0, 0, 0), F8, (3,))


def test_factor_multiplicity_sum_bounded_by_degree():
    rng = random.Random(4)
    for _ in range(200):
        deg = rng.randint(1, 5)
        form = tuple(rng.randrange(64) for _ in range(deg + 1))
        if not any(form):
            continue
        roots = factor_binary_form(form, build_field(6))
        total = sum(m for _, m in roots)
        assert total <= deg


def form_cone_type(form, field, k, squarefree):
    """The cone type of `form`, whose coefficients lie in F_{2^k}, as the
    analysis names it: from its degree and its count over F_{2^k}."""
    count = _direction_counts(form, field, (k,))[0]
    return cone_type(len(form) - 1, count, squarefree)


def test_cone_type_fallbacks():
    # Square of a linear form: outside the catalog alphabet.
    assert form_cone_type((1, 0, 0), F2, 1, False) == "deg=2 squarefree=false"
    # Irreducible cubic over F_2 (no rational roots): generic fallback.
    assert form_cone_type((1, 0, 1, 1), F2, 1, True) == "deg=3 squarefree=true"


# The catalog alphabet by factorization shape over the field of definition:
# sorted (factor degree, multiplicity) pairs.
SHAPE_NAMES = {
    ((1, 1), (1, 1)): "u v",
    ((2, 1),): "u^2+u v+v^2",
    ((1, 1), (1, 2)): "u v^2",
    ((1, 1), (2, 1)): "(u+v)(u^2+u v+v^2)",
    ((1, 1), (1, 1), (1, 1)): "u v(u+v)",
}


def shape_name(form, field, k, squarefree):
    """Oracle cone type: the rational roots over F_{2^k} and their
    multiplicities from the direction scan, and a rootless remainder of
    degree 2 or 3, which is irreducible over F_{2^k}."""
    m = len(form) - 1
    fallback = f"deg={m} squarefree={'true' if squarefree else 'false'}"
    roots = subfield_roots(factor_binary_form(form, field), field, k)
    shape = [(1, mult) for _, mult in roots]
    rest = m - sum(mult for _, mult in roots)
    if rest in (2, 3):
        shape.append((rest, 1))
    elif rest:
        return fallback
    return SHAPE_NAMES.get(tuple(sorted(shape)), fallback)


def test_cone_type_against_factor_oracle():
    # Exhaustively over F_2 (degree 2..6), F_4 (2..5), F_8 (2..3) and F_16
    # (2), for every field of definition F_{2^k}, k | m, on every form with
    # coefficients in F_{2^k}; then on seeded products of linear and
    # quadratic forms over F_{2^k} inside F_64, F_512 and F_2048.
    checked = 0
    for m, degrees in ((1, range(2, 7)), (2, range(2, 6)), (3, range(2, 4)),
                       (4, range(2, 3))):
        field = build_field(m)
        for k in (k for k in range(1, m + 1) if m % k == 0):
            sub = subfield_elements(field, k)
            for deg in degrees:
                for form in itertools.product(sub, repeat=deg + 1):
                    if not any(form):
                        continue
                    sf = form_is_squarefree(form, field)
                    assert form_cone_type(form, field, k, sf) == shape_name(
                        form, field, k, sf), (form, m, k)
                    checked += 1
    assert checked == 14_588

    rng = random.Random(9)
    names = set()
    for m in (6, 9, 11):
        field = build_field(m)
        for k in (k for k in range(1, m + 1) if m % k == 0):
            sub = subfield_elements(field, k)
            for _ in range(60):
                form = (1,)
                for _ in range(rng.randint(1, 3)):
                    factor = tuple(rng.choice(sub) for _ in range(rng.choice((2, 3))))
                    if not any(factor):
                        continue
                    prod = [0] * (len(form) + len(factor) - 1)
                    for i, a in enumerate(form):
                        for j, b in enumerate(factor):
                            prod[i + j] ^= field.mul(a, b)
                    form = tuple(prod)
                if len(form) < 3:
                    continue
                sf = form_is_squarefree(form, field)
                want = shape_name(form, field, k, sf)
                assert form_cone_type(form, field, k, sf) == want, (form, m, k)
                names.add(want)
    assert set(SHAPE_NAMES.values()) <= names


def test_multiplicity_invariant_under_coordinate_change():
    mats = enumerate_gl3()
    f128 = build_field(7)
    counter = PointCounter(f128)
    g3 = parse_poly(
        "x^6 + x^5*y + x^4*y^2 + x^3*y^3 + x^2*y^4 + x^5*z + x^4*y*z"
        " + y^4*z^2 + x^3*z^3 + y^3*z^3"
    )
    base = sorted(
        multiplicity_at(g3, p, f128)
        for p in counter.count(g3).singular_points
    )
    rng = random.Random(5)
    for _ in range(10):
        m = mats[rng.randrange(168)]
        g = substitute(g3, m)
        moved = sorted(
            multiplicity_at(g, p, f128)
            for p in counter.count(g).singular_points
        )
        assert moved == base, m


def test_singular_iff_multiplicity_at_least_two():
    counter = PointCounter(F8)
    rng = random.Random(6)
    checked = 0
    for _ in range(300):
        d = rng.randint(2, 6)
        f = PolyMask(d, rng.randint(1, full_mask(d)))
        pc = counter.count(f)
        for p in pc.singular_points[:3]:
            assert multiplicity_at(f, p, F8) >= 2
            checked += 1
    assert checked > 50


def test_check_theorem1():
    assert check_theorem1([2, 2], 6) is True
    assert check_theorem1([3, 3], 5) is False
    assert check_theorem1([4, 3], 6) is False
    with pytest.raises(ValueError):
        check_theorem1([2], 6)
    with pytest.raises(ValueError):
        check_theorem1([1, 2], 6)


def test_blowup_estimate_requires_matching_field():
    s = SingularPoint(
        point=(1, 0, 0), q=8, k=1, multiplicity=2, directions=2,
        cone_type="u v", ordinary=True,
    )
    with pytest.raises(ValueError):
        blowup_points_estimate(s, F16)


def _f2_singular_points(f: PolyMask) -> tuple:
    """f's singular points over F_2, by a count over F_2."""
    return PointCounter(F2).count(f).singular_points


def test_f2_substitution_equals_local_expansion():
    # An F_2 point (k = 1) is analysed by one GL_3(F_2) substitution of the
    # mask; the oracle is the local expansion in the scan field.  Every
    # F_2-rational singular point of a seeded sample of degrees 2-6 and of
    # the corpus curves agrees on the cone itself, and so on multiplicity,
    # cone type and ordinariness.  Each field's credit, read from the
    # cone's counts over F_2..F_2048 in its cache, is the squaring chain
    # run in that field's own arithmetic, and up to F_64 the number of
    # directions a scan finds.
    rng = random.Random(34)
    curves = [PolyMask(d, rng.randint(1, full_mask(d)))
              for d in range(2, 7) for _ in range(250)]
    curves += [parse_poly(entry.poly) for entry in load_corpus()]
    # A quintuple point at (1:0:0), moved to the other F_2 points.
    quintic = parse_poly("x*y^5 + x*y^2*z^3 + x*z^5 + y^6 + y^3*z^3 + z^6")
    curves += [substitute(quintic, m) for m in enumerate_gl3()[::7]]
    fields = [build_field(m) for m in range(3, 12)]
    seen_types, seen_mults, n = set(), set(), 0
    for i, f in enumerate(curves):
        field = fields[i % len(fields)]
        for p in _f2_singular_points(f):
            s = analyze_singular_point(f, p, field, 1)
            cone = tangent_cone_at(f, p, field)
            f2_cone, _, _, directions = _f2_cone(f, p)
            assert f2_cone == cone, (f, p)
            squarefree = form_is_squarefree(cone, field)
            assert s == SingularPoint(p, field.order, 1, len(cone) - 1,
                                      directions[field.m - 1],
                                      form_cone_type(cone, field, 1, squarefree),
                                      squarefree), (f, p)
            for other in fields:
                want = _direction_counts(cone, other, (other.m,))[0]
                assert directions[other.m - 1] == want, (f, p, other.order)
                if other.order <= 64:
                    assert len(factor_binary_form(cone, other)) == want
            seen_types.add(s.cone_type)
            seen_mults.add(s.multiplicity)
            n += 1
    assert n > 1000
    assert {2, 3, 4, 5} <= seen_mults
    assert {"u v", "u^2+u v+v^2", "u v^2", "(u+v)(u^2+u v+v^2)",
            "u v(u+v)"} <= seen_types


def test_f2_substitution_rejects_what_the_expansion_rejects():
    h = parse_poly("x^5 + y^5 + z^5")
    for point in ((0, 1, 1), (1, 0, 0)):  # smooth, then off the curve
        with pytest.raises(ValueError):
            tangent_cone_at(h, point, F16)
        with pytest.raises(ValueError):
            analyze_singular_point(h, point, F16, 1)
    with pytest.raises(ValueError):  # not an F_2 point
        analyze_singular_point(parse_poly("x^2*y + y^2*z"), (1, 2, 0), F4, 1)
    with pytest.raises(ValueError):
        analyze_singular_point(PolyMask(4, 0), (1, 0, 0), F4, 1)


def test_f2_cone_cache_keeps_curves_apart():
    # An F_2 point's reading is cached per (curve, point).  Two cubics with
    # a singular point at (1:0:0), a node and a cusp, alternate through the
    # analysis in two fields, and every result is what a cleared cache
    # gives.
    node = parse_poly("x*y*z + y^3 + z^3")
    cusp = parse_poly("x*y^2 + z^3")
    p = (1, 0, 0)
    fresh = {}
    for f in (node, cusp):
        for field in (F8, F16):
            singular._f2_cone.cache_clear()
            singular._f2_chart.cache_clear()
            fresh[f, field.order] = analyze_singular_point(f, p, field, 1)
    assert fresh[node, 8].cone_type == "u v" and fresh[node, 8].ordinary
    assert not fresh[cusp, 8].ordinary and fresh[cusp, 8].directions == 1
    for _ in range(2):
        for field in (F8, F16):
            for f in (node, cusp):
                assert analyze_singular_point(f, p, field, 1) == fresh[f, field.order]
