"""Irreducibility by parity checks and exact absolute-irreducibility
certificates from smooth-point counts.

Reducibility over F_2 is decided by linear algebra.  A degree-d mask f is
reducible iff f = g h for a nonzero form g of degree 1 <= e <= d/2.  For a
fixed g, h -> g h is F_2-linear and injective on masks, so its image is a
subspace, cut out by the parity-check rows read off the reduced echelon
form of {g m : m a degree-(d-e) monomial}: f is a multiple of g iff
popcount(row & f) is even for every row of g.  The rows of all g are built
once per degree (19,282 rows at degree 6) and tested against f at once;
the witness is the divisor g that trial division, the tests' oracle,
would meet first.

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
F_{2^M} records the degrees of its smooth points, and a point of degree e
lies in P^2(F_{2^m}) iff e | m; whether it is smooth does not depend on the
field.  So for m | M, f has a smooth F_{2^m}-point iff the count over
F_{2^M} has a smooth point of degree dividing m.  The nine search fields,
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
    Triple,
    basis_size,
    decode,
    evaluate,
    full_mask,
    monomial_index,
    monomials,
    partials,
)

HomPoly = dict[Triple, int]


@dataclass(frozen=True)
class Factor:
    """A witness divisor over F_{2^k}."""

    k: int
    degree: int
    terms: tuple[tuple[Triple, int], ...]  # (monomial, coefficient encoding)

    def __str__(self) -> str:
        parts = []
        for (i, j, kk), c in self.terms:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip("xyz", (i, j, kk))
                if e
            )
            parts.append(mono if c == 1 else f"[{c}]*{mono}")
        return f"F_{{2^{self.k}}}: " + " + ".join(parts)


@dataclass(frozen=True)
class IrreducibilityStatus:
    absolute: str  # "yes" | "reducible"
    certificate_field: int | None  # "yes": first m with a smooth F_{2^m}-point
    witness: Factor | None  # the F_2 factor, when f has one


def mask_to_dict(f: PolyMask) -> HomPoly:
    return {t: 1 for t in decode(f)}


def _leading(p: HomPoly) -> Triple:
    return max(p)  # tuple comparison is graded-lex within a fixed degree


def _witness(g: HomPoly, k: int) -> Factor:
    terms = tuple(sorted(g.items(), reverse=True))
    return Factor(k=k, degree=sum(_leading(g)), terms=terms)


def _check_rows(image: list[int], n: int) -> list[int]:
    """Parity-check rows of the span of the independent n-bit `image`: from
    its reduced echelon form, row j (one per non-pivot bit j) holds bit j
    and the pivots of the reduced vectors that have bit j."""
    pivots: dict[int, int] = {}
    for v in image:
        for p, r in pivots.items():
            if v >> p & 1:
                v ^= r
        top = v.bit_length() - 1
        for p, r in pivots.items():
            if r >> top & 1:
                pivots[p] = r ^ v
        pivots[top] = v
    rows = {j: 1 << j for j in range(n) if j not in pivots}
    for p, r in pivots.items():
        r ^= 1 << p
        while r:
            low = r & -r
            rows[low.bit_length() - 1] |= 1 << p
            r ^= low
    return list(rows.values())


@lru_cache(maxsize=None)
def _parity_checks(d: int) -> tuple[np.ndarray, ...]:
    """For e = 1..d/2, a (forms, checks) uint32 array: row g - 1 holds the
    parity checks of the multiples of the degree-e form with mask g."""
    n = basis_size(d)
    index = monomial_index(d)
    blocks = []
    for e in range(1, d // 2 + 1):
        # shifted[t][c]: the mask of monomial t of degree e times cofactor c.
        shifted = [[1 << index[(a[0] + b[0], a[1] + b[1], a[2] + b[2])]
                    for b in monomials(d - e)] for a in monomials(e)]
        block = np.empty((full_mask(e), n - basis_size(d - e)), dtype=np.uint32)
        image = [0] * basis_size(d - e)  # image[c] = g * monomial c
        for i in range(1, full_mask(e) + 1):
            # Gray-code order: g gains or loses one monomial per step.
            image = [a ^ b for a, b in zip(image, shifted[(i & -i).bit_length() - 1])]
            block[(i ^ i >> 1) - 1] = _check_rows(image, n)
        blocks.append(block)
    return tuple(blocks)


def _f2_factor(f: PolyMask) -> Factor | None:
    """The F_2 divisor of degree 1..d/2 that the sweep meets first, or None:
    of the forms g with no failing check, the lowest degree, then the lowest
    set bit of g (its leading monomial), then g bit-reversed (the odometer)."""
    x = np.uint32(f.bits)
    for e, block in enumerate(_parity_checks(f.degree), start=1):
        v = block & x
        v ^= v >> 16
        v ^= v >> 8
        v ^= v >> 4
        odd = (0x6996 >> (v & 0xF)) & 1  # parity of the low nibble
        fails = odd.any(axis=1)
        if not fails.all():
            width = basis_size(e)
            g = min((np.flatnonzero(~fails) + 1).tolist(), key=lambda h: (
                h & -h, int(f"{h:0{width}b}"[::-1], 2)))
            return _witness(mask_to_dict(PolyMask(e, g)), 1)
    return None


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
    some F_{2^M}, m | M, with smooth-point degrees, else counted."""
    for pc in counts.values():
        if pc.smooth_degrees is not None and (pc.q.bit_length() - 1) % m == 0:
            return any(m % e == 0 for e in pc.smooth_degrees)
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
