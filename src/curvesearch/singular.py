"""Singular point classification: multiplicity, tangent cone, blowup credit.

A singular point is moved to the origin of the affine chart of its first
nonzero coordinate; the curve equation is expanded in the two local
coordinates (u, v) and the lowest-degree homogeneous part is the tangent
cone, a binary form whose roots in P^1 are the tangent directions.

An F_2-rational point P (degree k = 1, coordinates in {0, 1}) needs no
field arithmetic.  The substitution that fixes P's chart variable x_c and
adds x_c to each other variable where P has a 1 is unipotent, so it lies
in GL_3(F_2); it takes P to the chart's origin, and the image's two other
variables are exactly (u, v).  The image mask, `polyrep.substitute`, is
the local expansion: its monomials read by their exponents of u and v.
The multiplicity is the least u,v-degree present and the cone is the
monomials of that degree.  Everything kept of the cone depends only on
those bits, so one cache per chart, keyed by them, holds the cone, its
squarefreeness, its cone type and its rational directions over
F_2..F_2048; every field lists the same F_2 points of a curve, so a
second cache holds the last seven (curve, point) readings.  A point of
degree k >= 2 is expanded by `local_expansion` in its scan field, by
Lucas' theorem: over F_2 the binomial C(n, s) is odd exactly when s is a
bit-submask of n.  The tests check the substitution against the expansion.

Binary forms of degree m are stored as coefficient tuples c, with c[j] the
coefficient of u^(m-j) v^j.

The number of distinct F_{2^k}-rational directions of a cone is the degree
of a gcd with t^(2^k) + t, without scanning the 2^k + 1 directions (the
scan, `factor_binary_form`, is the tests' oracle).  One squaring chain t,
t^2, t^4, ... mod p gives the counts over every F_{2^k} whose arithmetic
it runs in: a point of degree k >= 2 reads its counts over F_{2^k} and
over its scan field F_q off one chain, and an F_2 point's cone, with F_2
coefficients, reads all of F_2..F_2048 off one.
A `SingularPoint` keeps only the count over F_q, its blowup credit.  The
cone type names the factorization shape over the point's field of
definition F_{2^k}.  For cone degree 2 or 3 the shape is fixed by the
degree, the count over F_{2^k} and squarefreeness; shapes outside the
catalog alphabet fall back to the generic "deg=m squarefree=b" form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .gf2m import MAX_M, FieldTable, build_field
from .polyrep import PolyMask, decode, monomials, substitute

PointT = tuple[int, int, int]
FormT = tuple[int, ...]

# Catalog alphabet, keyed by (cone degree, distinct rational directions over
# the field of definition, squarefree).
_CONE_NAMES = {
    (2, 2, True): "u v",
    (2, 0, True): "u^2+u v+v^2",
    (3, 2, False): "u v^2",
    (3, 1, True): "(u+v)(u^2+u v+v^2)",
    (3, 3, True): "u v(u+v)",
}


class SingularPoint(NamedTuple):
    """One singular point of a curve, as seen over the field it was found in."""

    point: PointT  # normalized coordinates, encoded in the scan field
    q: int  # order of the scan field
    k: int  # the point's degree: F_{2^k} is its field of definition
    multiplicity: int
    # distinct F_q-rational tangent directions; None when read back from a
    # catalog
    directions: int | None
    cone_type: str
    ordinary: bool  # tangent cone squarefree (all directions distinct)


# -- local expansion -----------------------------------------------------------


def local_expansion(f: PolyMask, point: PointT, field: FieldTable
                    ) -> dict[tuple[int, int], int]:
    """Coefficients of f at `point` in local coordinates of its chart.

    Returns {(s, t): coeff} for the expansion sum coeff * u^s v^t, where the
    chart variable is the first nonzero coordinate (normalized to 1) and
    (u, v) offset the remaining two coordinates in x, y, z order.
    """
    if all(c == 0 for c in point):
        raise ValueError("(0, 0, 0) is not a projective point")
    chart = next(v for v in range(3) if point[v] != 0)
    scale = field.inv(point[chart])
    pn = tuple(field.mul(scale, c) for c in point)
    oa, ob = (v for v in range(3) if v != chart)
    b, c = pn[oa], pn[ob]
    acc: dict[tuple[int, int], int] = {}
    for mono in decode(f):
        ea, eb = mono[oa], mono[ob]
        for s in range(ea + 1):
            if s & ~ea:
                continue  # even binomial coefficient
            cb = field.pow(b, ea - s)
            if cb == 0 and s != ea:
                continue
            for t in range(eb + 1):
                if t & ~eb:
                    continue
                cc = field.pow(c, eb - t)
                if cc == 0 and t != eb:
                    continue
                term = field.mul(cb, cc)
                if term:
                    key = (s, t)
                    prev = acc.get(key, 0) ^ term
                    if prev:
                        acc[key] = prev
                    else:
                        acc.pop(key, None)
    return acc


def tangent_cone_at(f: PolyMask, point: PointT, field: FieldTable) -> FormT:
    """Lowest local homogeneous part as a binary form; requires a singular point."""
    exp = local_expansion(f, point, field)
    if (0, 0) in exp:
        raise ValueError(f"point {point} is not on the curve")
    m = min(s + t for s, t in exp)
    if m < 2:
        raise ValueError(f"point {point} is smooth (multiplicity 1)")
    return tuple(exp.get((m - j, j), 0) for j in range(m + 1))


# -- univariate helpers over a field table --------------------------------------


def _ptrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _peval(p: list[int], t0: int, field: FieldTable) -> int:
    acc = 0
    for c in reversed(p):
        acc = field.mul(acc, t0) ^ c
    return acc


def _pderiv(p: list[int]) -> list[int]:
    # Formal derivative in characteristic 2: odd-degree terms survive.
    return _ptrim([p[i] if i % 2 == 1 else 0 for i in range(1, len(p))])


def _pmod(a: list[int], b: list[int], field: FieldTable) -> list[int]:
    a = _ptrim(list(a))
    b = _ptrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = field.inv(b[-1])
    while len(a) >= len(b):
        shift = len(a) - len(b)
        coef = field.mul(a[-1], inv_lead)
        for i, bc in enumerate(b):
            a[shift + i] ^= field.mul(coef, bc)
        _ptrim(a)
    return a


def _pgcd(a: list[int], b: list[int], field: FieldTable) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pmod(a, b, field)
    return a


def _deflate_root(p: list[int], t0: int, field: FieldTable) -> list[int]:
    # Synthetic division by (t + t0); caller guarantees p(t0) = 0.
    out = [0] * (len(p) - 1)
    carry = 0
    for i in range(len(p) - 1, 0, -1):
        carry = p[i] ^ field.mul(carry, t0)
        out[i - 1] = carry
    return out


# -- binary form factorization ---------------------------------------------------


def form_is_squarefree(form: FormT, field: FieldTable) -> bool:
    """No repeated root over the algebraic closure (gcd with the derivative)."""
    m = len(form) - 1
    p = _ptrim([form[m - i] for i in range(m + 1)])
    if m - (len(p) - 1) >= 2:
        return False  # (1:0) is a repeated root
    if len(p) - 1 <= 0:
        return m <= 1
    dp = _pderiv(p)
    if not dp:
        return False  # only even exponents: a perfect square
    return len(_pgcd(p, dp, field)) == 1


def factor_binary_form(form: FormT, field: FieldTable,
                       elements: list[int] | None = None
                       ) -> list[tuple[tuple[int, int], int]]:
    """All projective roots of the form over the field, with multiplicities.

    Roots are normalized directions (1, w) or (0, 1); found by evaluating at
    all q + 1 directions, multiplicities by repeated deflation.  Restricting
    `elements` to a subfield finds the subfield-rational roots only.
    """
    if all(c == 0 for c in form):
        raise ValueError("zero form")
    m = len(form) - 1
    p = _ptrim([form[m - i] for i in range(m + 1)])
    roots: list[tuple[tuple[int, int], int]] = []
    inf_mult = m - (len(p) - 1)
    if inf_mult > 0:
        roots.append(((1, 0), inf_mult))
    if elements is None:
        elements = list(field.elements())
    for t0 in elements:
        mult = 0
        while len(p) > 1 and _peval(p, t0, field) == 0:
            p = _deflate_root(p, t0, field)
            mult += 1
        if mult:
            direction = (0, 1) if t0 == 0 else (1, field.inv(t0))
            roots.append((direction, mult))
    return roots


def _direction_counts(form: FormT, field: FieldTable, ms: Iterable[int]
                      ) -> tuple[int, ...]:
    """Root counts over F_{2^m} for the ascending m in `ms`, all read off one
    squaring chain; the form's coefficients must lie in each F_{2^m}.

    With p(t) = form(t, 1), the finite roots are those of
    gcd(p, t^(2^m) + t), and squaring is coefficientwise in characteristic
    2; the direction (1:0) is a root when the u^m coefficient vanishes.
    """
    if not any(form):
        raise ValueError("zero form")
    deg = len(form) - 1
    p = _ptrim([form[deg - i] for i in range(deg + 1)])
    r = _pmod([0, 1], p, field)  # t^(2^done) mod p
    done = 0
    counts = []
    for m in ms:
        for _ in range(m - done):
            sq = [0] * (2 * len(r))
            sq[::2] = (field.mul(c, c) for c in r)
            r = _pmod(sq, p, field)
        done = m
        g = r + [0] * (2 - len(r))
        g[1] ^= 1
        counts.append(len(_pgcd(p, g, field)) - 1 + (len(p) - 1 < deg))
    return tuple(counts)


def cone_type(degree: int, directions: int, squarefree: bool) -> str:
    """Catalog name of a cone's factorization shape over its field of
    definition F_{2^k}, from its degree, its number of distinct
    F_{2^k}-rational directions and its squarefreeness."""
    key = (degree, directions, squarefree)
    if key in _CONE_NAMES:
        return _CONE_NAMES[key]
    return f"deg={degree} squarefree={'true' if squarefree else 'false'}"


# -- F_2-rational points by one substitution ---------------------------------------


@lru_cache(maxsize=None)
def _f2_chart(d: int, chart: int) -> tuple[tuple[int, ...], tuple[int, ...], dict]:
    """(layers, v_exps, cones) of the degree-d chart x_chart = 1: layers[m]
    is the mask of the basis monomials of u,v-degree m, v_exps[n] basis
    monomial n's exponent of v, and cones the chart's cache, from the bits
    of a cone's layer to `_f2_cone`'s facts."""
    oa, ob = (v for v in range(3) if v != chart)
    layers = [0] * (d + 1)
    for n, mono in enumerate(monomials(d)):
        layers[mono[oa] + mono[ob]] |= 1 << n
    return tuple(layers), tuple(mono[ob] for mono in monomials(d)), {}


@lru_cache(maxsize=7)  # P^2(F_2) has 7 points, which the fields ask in turn
def _f2_cone(f: PolyMask, point: PointT
             ) -> tuple[FormT, str, bool, tuple[int, ...]]:
    """(cone, cone type, squarefree, rational directions over F_{2^m} for
    m = 1..MAX_M) at the F_2 point, read off the image of f under the
    substitution that takes the point to the origin of its chart (see the
    module docstring)."""
    if not (any(point) and set(point) <= {0, 1}):
        raise ValueError(f"{point} is not an F_2-rational point")
    chart = point.index(1)
    # Row `chart` of the matrix is the point itself, the others the identity's.
    row = point[0] | point[1] << 1 | point[2] << 2
    image = substitute(f, tuple(row if r == chart else 1 << r for r in range(3))).bits
    if not image:
        raise ValueError("zero polynomial")
    layers, v_exps, cones = _f2_chart(f.degree, chart)
    m = 0
    while not image & layers[m]:
        m += 1
    if m < 2:
        raise ValueError(f"point {point} is "
                         + ("not on the curve" if m == 0 else "smooth (multiplicity 1)"))
    low = image & layers[m]
    facts = cones.get(low)
    if facts is None:
        form = [0] * (m + 1)
        for n, e in enumerate(v_exps):
            if low >> n & 1:
                form[e] = 1
        cone = tuple(form)
        f2 = build_field(1)
        squarefree = form_is_squarefree(cone, f2)
        counts = _direction_counts(cone, f2, range(1, MAX_M + 1))
        facts = cones[low] = (cone, cone_type(m, counts[0], squarefree), squarefree,
                              counts)
    return facts


# -- assembly and estimates -------------------------------------------------------


def analyze_singular_point(f: PolyMask, point: PointT, field: FieldTable, k: int
                           ) -> SingularPoint:
    """Full classification of one singular point found over `field`; k is
    the point's degree, as its `PointCount` records it.  An F_2 point
    (k = 1) is read by one substitution over F_2, any other from its local
    expansion in `field` and one squaring chain for its rational directions
    over F_{2^k} (the cone type) and over F_q."""
    if k == 1:
        cone, name, squarefree, counts = _f2_cone(f, point)
        return SingularPoint(point, field.order, 1, len(cone) - 1,
                             counts[field.m - 1], name, squarefree)
    cone = tangent_cone_at(f, point, field)
    squarefree = form_is_squarefree(cone, field)
    over_k, over_q = _direction_counts(cone, field, (k, field.m))
    return SingularPoint(point, field.order, k, len(cone) - 1, over_q,
                         cone_type(len(cone) - 1, over_k, squarefree), squarefree)


def blowup_points_estimate(s: SingularPoint, field: FieldTable
                           ) -> tuple[int, bool]:
    """(distinct rational tangent directions, exact_known).

    An ordinary singularity resolves in one blowup with one smooth-model
    point per rational tangent direction, so the count is exact.  Otherwise
    the count is reported with exact_known False and must not be credited
    without review: repeated directions can carry anywhere from zero to
    several rational branches.
    """
    if field.order != s.q:
        raise ValueError("estimate must use the field the point was found over")
    return s.directions, s.ordinary


def check_theorem1(multiplicities: list[int], d: int) -> bool:
    """Multiplicity-sum bound for r >= 2 singular points on a degree-d curve.

    By Bezout a line through two singular points forces m_i + m_j <= d, so at
    most one multiplicity can exceed d/2; the sum is bounded by
    floor(d/2) * r + 1 for odd d and floor(d/2) * r for even d.  Every
    absolutely irreducible curve must satisfy this; a violation flags a
    reducible curve or a pipeline bug.
    """
    r = len(multiplicities)
    if r < 2:
        raise ValueError("the bound applies to r >= 2 singular points")
    if any(m < 2 for m in multiplicities):
        raise ValueError("multiplicities of singular points are >= 2")
    cap = (d // 2) * r + (1 if d % 2 else 0)
    return sum(multiplicities) <= cap
