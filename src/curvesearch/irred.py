"""Irreducibility over F_2 by normal forms, and exact absolute-irreducibility
certificates from smooth-point counts.

Reducibility over F_2 is decided by linear algebra.  A degree-d mask f is
reducible iff f = g h for a nonzero form g of degree 1 <= e <= d/2.  For a
fixed g, h -> g h is F_2-linear and injective on masks, so the multiples
of g are the span of {g m : m a degree-(d-e) monomial}.  These masks have
distinct top bits (the top monomial of g, times m), so dividing by them,
top bit first, takes a mask to its normal form, a linear map whose kernel
is exactly the multiples of g.  One table holds the normal form of every
monomial modulo every g of every degree e (28 x 1,093 entries, 122 KB, at
degree 6), built for all g at once, and f is a multiple of g iff the XOR of
its monomials' entries is 0.  The columns are in the order in which trial
division, the tests' oracle, meets the divisors, so the first zero column's
form is the witness, kept as its mask.

Absolute irreducibility is decided from smooth-point counts.  Let f be
irreducible over F_2 of degree d <= 6.  Its absolutely irreducible
components form one Frobenius orbit of some size s | d.
- A smooth point forces g = 1, where g = gcd(d, every m with a smooth
  F_{2^m}-point).  A point P of F_{2^m} on a component C also lies on
  Frob^m(C), since P is fixed by Frob^m; that is a different component
  unless s | m, and a point on two components is singular.  So s | g, and
  a smooth point at m = 11 gives s | gcd(d, 11) = 1.
- An absolutely irreducible f has one.  Take its smooth model X of genus
  g_X, and p_a = (d-1)(d-2)/2 <= 10.  At most sum m_P <= 2 sum delta_P =
  2(p_a - g_X) points of X lie over singular points, as delta_P >=
  m_P(m_P-1)/2 >= m_P/2.  By the Weil bound the smooth plane points over
  F_q number at least q + 1 - 2 g_X sqrt(q) - 2(p_a - g_X), which at
  q = 2048 is more than 1,143.
So scanning m = 1..11 and stopping at g = 1 is exact: "yes" with k the
first m with a smooth point, or "reducible" when g never reaches 1.

The scan reads its smooth points from counts already made.  A count over
F_{2^M} records its number of smooth points of each degree, and a point
of degree e lies in P^2(F_{2^m}) iff e | m; whether it is smooth does not
depend on the field.  So for m | M, f has a smooth F_{2^m}-point iff the
count over F_{2^M} has a smooth point of degree dividing m.  The nine search fields,
M = 3..11, cover every m <= 11 (1 | 3, 2 | 4), so in the search the
certificate counts nothing; with fewer fields (`verify`), each uncovered m
is counted once, without tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .count import PointCount, count_points, projective_points
from .gf2m import MAX_M, build_field
from .polyrep import (
    PolyMask,
    basis_size,
    bit_indices,
    evaluate,
    monomial_index,
    monomials,
    partials,
)


@dataclass(frozen=True)
class IrreducibilityStatus:
    absolute: str  # "yes" | "reducible"
    certificate_field: int | None  # "yes": first m with a smooth F_{2^m}-point
    witness: PolyMask | None  # the F_2 divisor, when f has one


@lru_cache(maxsize=None)
def _normal_forms(d: int) -> tuple[np.ndarray, tuple[PolyMask, ...]]:
    """(table, forms): entry [t, j] of the (monomials, forms) uint32 table is
    monomial t reduced modulo the degree-d multiples of forms[j], the forms
    of degree 1..d/2 in witness order (see `_f2_factor`)."""
    index = monomial_index(d)
    n = len(index)
    forms, step = [], np.zeros((n, 0), dtype=np.uint32)
    for e in range(1, d // 2 + 1):
        width = basis_size(e)
        hs = sorted(range(1, 1 << width), key=lambda h: (
            h & -h, int(f"{h:0{width}b}"[::-1], 2)))
        forms += [PolyMask(e, h) for h in hs]
        g = np.array(hs, dtype=np.uint32)
        # top[a, c]: the index of monomial a of degree e times monomial c of
        # degree d - e; multiples[j, c]: the mask of g_j times monomial c.
        top = np.array([[index[(a[0] + b[0], a[1] + b[1], a[2] + b[2])]
                         for b in monomials(d - e)] for a in monomials(e)],
                       dtype=np.uint32)
        multiples = np.zeros((len(hs), len(top[0])), dtype=np.uint32)
        for a, row in enumerate(top):
            multiples ^= (g[:, None] >> a & 1) << row
        # The top bit of g_j m_c is tops[j, c], that of g_j's top monomial
        # times m_c (the order is multiplicative), so block[p, j] is g_j's
        # multiple with top bit p, and 0 when p is no such bit.
        tops = top[[h.bit_length() - 1 for h in hs]]
        block = np.zeros((n, len(hs)), dtype=np.uint32)
        block[tops, np.arange(len(hs))[:, None]] = multiples
        step = np.hstack([step, block])
    table = np.repeat(1 << np.arange(n, dtype=np.uint32)[:, None], len(forms), axis=1)
    for p in range(n - 1, -1, -1):  # divide every monomial, top bit first
        rows = table[p:]  # monomial t has no bit above t
        rows ^= (rows >> p & 1) * step[p]
    table.flags.writeable = False  # shared by every caller and forked worker
    return table, tuple(forms)


def _f2_factor(f: PolyMask) -> PolyMask | None:
    """The F_2 divisor of degree 1..d/2 that the sweep meets first, or None:
    of the forms g that leave f no remainder, the lowest degree, then the
    lowest set bit of g (its leading monomial), then g bit-reversed (the
    odometer), which is the order of the table's columns."""
    table, forms = _normal_forms(f.degree)
    hits = np.bitwise_xor.reduce(table[bit_indices(f.bits)], axis=0) == 0
    if not hits.any():
        return None
    return forms[int(hits.argmax())]


def find_simple_point(f: PolyMask) -> tuple[int, tuple[int, int, int]] | None:
    """First curve point with nonzero gradient over F_2, then F_4, F_8 (an oracle)."""
    grads = partials(f)
    for k in (1, 2, 3):
        field = build_field(k)
        for p in projective_points(field):
            if evaluate(f, p, field) != 0:
                continue
            if any(evaluate(g, p, field) != 0 for g in grads if g.bits):
                return k, p
    return None


def _has_smooth_point(f: PolyMask, m: int, counts: dict[int, PointCount]) -> bool:
    """Whether f has a smooth F_{2^m}-point, read from the first count over
    some F_{2^M}, m | M, with smooth points by degree, else counted."""
    for pc in counts.values():
        by_degree = pc.smooth_by_degree
        if by_degree is not None and (pc.q.bit_length() - 1) % m == 0:
            return any(by_degree[e] for e in range(1, m + 1) if m % e == 0)
    return count_points(f, build_field(m)).smooth > 0


def certify_absolute(f: PolyMask, counts: dict[int, PointCount]
                     ) -> IrreducibilityStatus:
    """Exact smooth-point certificate (see the module docstring): "yes" with
    the first m that had a smooth F_{2^m}-point, else "reducible".  `counts`
    are f's counts by field order; each m they cover is read, not counted."""
    w = _f2_factor(f)
    if w is not None:
        return IrreducibilityStatus("reducible", None, w)
    k, g = None, f.degree
    for m in range(1, MAX_M + 1):
        if _has_smooth_point(f, m, counts):
            k, g = k or m, gcd(g, m)
            if g == 1:
                return IrreducibilityStatus("yes", k, None)
    return IrreducibilityStatus("reducible", None, None)
