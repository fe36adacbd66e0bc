"""Reference implementations that only the tests run.

Each one computes by brute force what the package computes another way, and
the tests compare the two: carry-less multiplication against the log
tables, a scan of every point against the counts on Frobenius orbit
minima, each monomial row summed on its own against the stepped rows,
all three partials against the two lifted ones, trial division
against the normal-form table and the smooth-point certificate, a dict of
dicts written by `json.dumps` against the catalog line's formatter.  It also
holds the few accessors (field division, the Frobenius map, a field's
generator and subfields, an in-memory search's records) that only the
tests call, and trial division's polynomials over F_{2^k}: `HomPoly`, a
{monomial: coefficient} dict, and `Factor`, a witness divisor, whose text
over F_2 is the catalog's witness text.
The package never imports this module.

Trial division (`find_factor`, `is_irreducible`, `_sweep`) sweeps candidate
monic divisors in the graded-lex term order, pruned by Newton-corner
compatibility (the leading and trailing monomials of a divisor must divide
those of the target) and by the points off the target (a divisor vanishes
only where the target does); division by a single divisor leaves remainder
zero exactly on multiples.  Over F_{2^s} only the s conjugate factors of
degree d/s of an F_2-irreducible f are swept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Iterator

import numpy as np

from curvesearch.count import PointCount, PointCounter, projective_points
from curvesearch.gf2m import FieldTable, _polymod, build_field
from curvesearch.irred import _f2_factor
from curvesearch.orbit import OrbitInfo, SieveEngine
from curvesearch.polyrep import (
    Mat3,
    PolyMask,
    Triple,
    bit_indices,
    decode,
    encode,
    evaluate,
    format_poly,
    monomial_index,
    monomials,
    partials,
)
from curvesearch.search import CurveRecord, SearchConfig, run_search
from curvesearch.singular import PointT, local_expansion


# -- field arithmetic without the log tables -----------------------------------


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials (ints, low bit = x^0)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def clmul_reduce(a: int, b: int, field: FieldTable) -> int:
    """Oracle multiply: carry-less product reduced by the defining polynomial."""
    return _polymod(_clmul(a, b), field.defining_poly)


# -- field structure from the log tables ---------------------------------------


def div(field: FieldTable, a: int, b: int) -> int:
    """a / b in the field; b = 0 raises ZeroDivisionError."""
    return field.mul(a, field.inv(b))


def frobenius(field: FieldTable, a: int, k: int = 1) -> int:
    """a ** (2^k), by k squarings."""
    for _ in range(k):
        a = field.mul(a, a)
    return a


def generator(self: FieldTable) -> int:
    return int(self.exp[1 % (self.order - 1)]) if self.order > 2 else 1


def subfield_elements(self: FieldTable, k: int) -> list[int]:
    """All elements of the subfield F_{2^k} inside this field (k | m)."""
    if self.m % k:
        raise ValueError(f"F_{{2^{k}}} is not a subfield of F_{{2^{self.m}}}")
    if k == self.m:
        return list(range(self.order))
    sub_order = (1 << k) - 1
    step = (self.order - 1) // sub_order
    return [0] + sorted(int(self.exp[i * step]) for i in range(sub_order))


# -- matrices over F_2 ---------------------------------------------------------


IDENTITY: Mat3 = (0b001, 0b010, 0b100)


def mat_det(m: Mat3) -> int:
    r0, r1, r2 = m
    # Expansion over F_2: parity of the permanent equals the determinant.
    det = 0
    for c0 in range(3):
        for c1 in range(3):
            if c1 == c0:
                continue
            c2 = 3 - c0 - c1
            det ^= (r0 >> c0) & (r1 >> c1) & (r2 >> c2) & 1
    return det


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    rows = []
    for r in range(3):
        row = 0
        for c in range(3):
            bit = 0
            for t in range(3):
                bit ^= ((a[r] >> t) & 1) & ((b[t] >> c) & 1)
            row |= bit << c
        rows.append(row)
    return tuple(rows)  # type: ignore[return-value]


# -- substitution by products of linear forms, one matrix at a time ----------


def mul_masks(a: PolyMask, b: PolyMask) -> PolyMask:
    """Product over F_2; degrees add, coefficients cancel mod 2."""
    idx = monomial_index(a.degree + b.degree)
    bits = 0
    for ia, ja, ka in decode(a):
        for ib, jb, kb in decode(b):
            bits ^= 1 << idx[(ia + ib, ja + jb, ka + kb)]
    return PolyMask(a.degree + b.degree, bits)


@lru_cache(maxsize=None)
def column_image_table(d: int, m: Mat3) -> tuple[int, ...]:
    """Image mask of each degree-d basis monomial under v -> v M."""
    # Variable c is replaced by the linear form with coefficient M[r][c] on
    # variable r, i.e. column c of M; degree-1 basis order is exactly x, y, z.
    lin = [PolyMask(1, sum(((m[r] >> c) & 1) << r for r in range(3)))
           for c in range(3)]
    images = []
    for mono in monomials(d):
        acc = PolyMask(0, 1)
        for form, e in zip(lin, mono):
            for _ in range(e):
                acc = mul_masks(acc, form)
        images.append(acc.bits)
    return tuple(images)


def substitute_by_products(f: PolyMask, m: Mat3) -> PolyMask:
    """f((x, y, z) M) from `column_image_table`; M must be invertible."""
    assert mat_det(m) == 1, m
    images = column_image_table(f.degree, m)
    bits = 0
    for t in bit_indices(f.bits):
        bits ^= images[t]
    return PolyMask(f.degree, bits)


# -- the sieve, trivially reducible orbits included ----------------------------


def sieve_all(degree: int) -> list[OrbitInfo]:
    """Run the whole sieve from mask 1, returning every orbit, the trivial
    ones and those of the x-region included."""
    eng = SieveEngine(degree)
    out: list[OrbitInfo] = []
    while not eng.done:
        out += eng.run_range(1 << 20)
    return out


def search_records(cfg: SearchConfig, **kwargs) -> list[CurveRecord]:
    """The records of an in-memory run, read from the bytes it returns."""
    return [CurveRecord.from_json(ln) for ln in run_search(cfg, **kwargs).splitlines()]


def record_to_json(rec: CurveRecord) -> str:
    """Oracle for `CurveRecord.to_json`: the catalog line as a dict of
    dicts, written by `json.dumps`."""
    obj = {
        "mask": rec.poly.mask_id,
        "poly": format_poly(rec.poly),
        "degree": rec.degree,
        "orbit_size": rec.orbit_size,
        "counts": {
            str(q): {
                "total": pc.total,
                "smooth": pc.smooth,
                "singular": [list(p) for p in pc.singular_points],
            }
            for q, pc in sorted(rec.counts.items())
        },
        "singular": [
            {
                "q": s.q,
                "point": list(s.point),
                "k": s.k,
                "multiplicity": s.multiplicity,
                "cone_type": s.cone_type,
                "ordinary": s.ordinary,
            }
            for s in rec.singular
        ],
        "r_distinct": rec.r_distinct,
        "genus": [rec.genus.lo, rec.genus.hi],
        "n_range": {str(q): list(v) for q, v in sorted(rec.n_range.items())},
        "irreducibility": {
            "absolute": rec.absolute,
            "k": rec.certificate_field,
            "witness": rec.witness,
        },
        "flags": list(rec.flags),
        "theorem1_ok": rec.theorem1_ok,
    }
    return json.dumps(obj, separators=(", ", ": "))


# -- point counting by a scan of every point -----------------------------------


def naive_count(f: PolyMask, field: FieldTable) -> PointCount:
    """Oracle: double loop over points, monomials by repeated multiplication."""
    monos = decode(f)
    pmonos = [decode(p) if p.bits else [] for p in partials(f)]

    def ev(monolist, p):
        acc = 0
        for i, j, k in monolist:
            term = 1
            for base, e in zip(p, (i, j, k)):
                for _ in range(e):
                    term = field.mul(term, base)
            acc ^= term
        return acc

    total = 0
    singular = []
    singular_degrees = []
    smooth_by_degree = [0] * (field.m + 1)
    for p in projective_points(field):
        if ev(monos, p) != 0:
            continue
        total += 1
        # the degree: the least k with every coordinate in F_{2^k}
        k = next(k for k in range(1, field.m + 1)
                 if all(frobenius(field, c, k) == c for c in p))
        if f.degree > 1 and all(ev(pm, p) == 0 for pm in pmonos):
            singular.append(p)
            singular_degrees.append(k)
        else:
            smooth_by_degree[k] += 1
    return PointCount(field.order, total, total - len(singular), tuple(singular),
                      tuple(singular_degrees), tuple(smooth_by_degree))


def monomial_rows(counter: PointCounter, d: int, cols: Iterable[int],
                  sel: slice | np.ndarray = slice(None)) -> Iterator[np.ndarray]:
    """Reference for `PointCounter._monomial_rows`: each row on its own, as
    exp[i log x + j log y + k log z] over the representatives `sel`, with
    the exp table repeated up to s = d (q - 2) + 1 and 0 from s to d s,
    and log 0 = s, so a zero coordinate with a positive exponent gives 0."""
    s = d * (counter.q - 2) + 1
    exp = np.zeros(d * s + 1, dtype=np.uint16)
    exp[:s] = np.resize(counter.field.exp, s)
    log = np.array(counter.field.log, dtype=np.int32)
    log[0] = s
    logs = [log[counter.coords[v][sel]] for v in range(3)]
    basis = monomials(d)
    for c in cols:
        yield exp[sum(k * lg for k, lg in zip(basis[c], logs) if k)]


def partials_count(f: PolyMask, field: FieldTable) -> PointCount:
    """Oracle for fields too large to scan: a count on the Frobenius orbit
    minima whose singular points are the zeros where all three partials
    vanish, each evaluated at degree d - 1 (the gradient of a linear form is
    a nonzero constant), rather than two of them read as degree-d lifts,
    every value from `monomial_rows`, and a tally of its own."""
    counter = PointCounter(field)

    def values(g: PolyMask, sel) -> np.ndarray:
        return reduce(np.bitwise_xor,
                      monomial_rows(counter, g.degree, bit_indices(g.bits), sel))

    zeros = np.flatnonzero(values(f, slice(None)) == 0)
    singular = np.full(len(zeros), f.degree > 1)
    if f.degree > 1:
        for p in partials(f):
            if p.bits:
                singular &= values(p, zeros) == 0
    # Each singular representative's orbit by squaring, in the canonical
    # order of `projective_points`, as `naive_count` lists it.
    total = 0
    found = []
    smooth_by_degree = [0] * (field.m + 1)
    for i, sing in zip(zeros.tolist(), singular.tolist()):
        k = int(counter.weights[i])
        total += k
        if not sing:
            smooth_by_degree[k] += k
            continue
        point = tuple(int(c) for c in counter.coords[:, i])
        for _ in range(k):
            found.append((point, k))
            point = tuple(field.mul(c, c) for c in point)
    found.sort(key=lambda pk: _canonical_key(pk[0]))
    return PointCount(field.order, total, total - len(found),
                      tuple(p for p, _ in found), tuple(k for _, k in found),
                      tuple(smooth_by_degree))


def _canonical_key(p: PointT) -> tuple[int, ...]:
    """Sort key of `projective_points`' order: (1, y, z) by (y, z), then
    (0, 1, z) by z, then (0, 0, 1)."""
    x, y, z = p
    return (0, y, z) if x else (1, z) if y else (2,)


# -- multiplicity from the local expansion -------------------------------------


def multiplicity_at(f: PolyMask, point: PointT, field: FieldTable) -> int:
    """Least degree of a nonvanishing local part; 1 at smooth points."""
    exp = local_expansion(f, point, field)
    if (0, 0) in exp:
        raise ValueError(f"point {point} is not on the curve")
    if not exp:
        raise ValueError("zero polynomial")
    return min(s + t for s, t in exp)


# -- trial division ------------------------------------------------------------


HomPoly = dict[Triple, int]


@dataclass(frozen=True)
class Factor:
    """A witness divisor over F_{2^k}; over F_2 its text is the catalog's
    witness text."""

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


def mask_to_dict(f: PolyMask) -> HomPoly:
    return {t: 1 for t in decode(f)}


def _leading(p: HomPoly) -> Triple:
    return max(p)  # tuple comparison is graded-lex within a fixed degree


def _witness(g: HomPoly, k: int) -> Factor:
    terms = tuple(sorted(g.items(), reverse=True))
    return Factor(k=k, degree=sum(_leading(g)), terms=terms)


def as_dict(self: Factor) -> HomPoly:
    return dict(self.terms)


def _trailing(p: HomPoly) -> Triple:
    return min(p)


def _div_mono(a: Triple, b: Triple) -> bool:
    return a[0] >= b[0] and a[1] >= b[1] and a[2] >= b[2]


def hom_divmod(f: HomPoly, g: HomPoly, field: FieldTable
               ) -> tuple[HomPoly | None, bool]:
    """(quotient, divisible) for homogeneous f, g; quotient None when not."""
    if not g:
        raise ValueError("zero divisor")
    r = dict(f)
    gl = _leading(g)
    glc = g[gl]
    quot: HomPoly = {}
    while r:
        rl = _leading(r)
        if not _div_mono(rl, gl):
            return None, False
        qm = (rl[0] - gl[0], rl[1] - gl[1], rl[2] - gl[2])
        qc = div(field, r[rl], glc)
        quot[qm] = quot.get(qm, 0) ^ qc
        for gm, gc in g.items():
            key = (gm[0] + qm[0], gm[1] + qm[1], gm[2] + qm[2])
            val = r.get(key, 0) ^ field.mul(qc, gc)
            if val:
                r[key] = val
            else:
                r.pop(key, None)
    return quot, True


def divides(g: HomPoly, f: HomPoly, field: FieldTable) -> bool:
    """True iff f = g * h for a homogeneous h over the same field."""
    if not g:
        raise ValueError("zero divisor")
    dg = sum(_leading(g))
    df = sum(_leading(f)) if f else 0
    if not 1 <= dg < df:
        raise ValueError(f"divisor degree {dg} not in 1..{df - 1}")
    return hom_divmod(f, g, field)[1]


def hom_mul(a: HomPoly, b: HomPoly, field: FieldTable) -> HomPoly:
    out: HomPoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            val = out.get(key, 0) ^ field.mul(ca, cb)
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def _monic_forms(e: int, field: FieldTable, lead_f: Triple, trail_f: Triple
                 ) -> Iterator[HomPoly]:
    """Monic degree-e candidates whose corners can divide the target's."""
    basis = monomials(e)
    n = len(basis)
    nonzero = [c for c in range(1, field.order)]
    for lead in range(n):
        if not _div_mono(lead_f, basis[lead]):
            continue
        free = n - lead - 1
        # Odometer over coefficient assignments of the positions after lead.
        counters = [0] * free
        while True:
            g = {basis[lead]: 1}
            for pos, c in enumerate(counters):
                if c:
                    g[basis[lead + 1 + pos]] = c
            if _div_mono(trail_f, _trailing(g)):
                yield g
            i = free - 1
            while i >= 0:
                counters[i] += 1
                if counters[i] < field.order:
                    break
                counters[i] = 0
                i -= 1
            if i < 0:
                break


def _sweep(f: PolyMask, degrees: Iterable[int], k: int) -> Factor | None:
    """Trial division: the first monic divisor of f over F_{2^k} whose
    degree is in `degrees`, or None.

    A divisor of f vanishes only where f does, so a candidate that vanishes
    at a point of P^2(F_{2^s}) off f, s = max(k, 2), is rejected before
    dividing (0 and 1 are the same elements of F_2 and F_4); exact division
    decides the rest."""
    fd = mask_to_dict(f)
    field = build_field(k)
    s = max(k, 2)
    mul = _mul_table(s)
    off_f = [i for i, values in enumerate(_point_values(s, f.degree))
             if _value(fd, values, mul)]
    for e in degrees:
        at = [_point_values(s, e)[i] for i in off_f]
        for g in _monic_forms(e, field, _leading(fd), _trailing(fd)):
            if all(_value(g, values, mul) for values in at) \
                    and hom_divmod(fd, g, field)[1]:
                return _witness(g, k)
    return None


@lru_cache(maxsize=None)
def _mul_table(k: int) -> list[list[int]]:
    field = build_field(k)
    return [[field.mul(a, b) for b in field.elements()] for a in field.elements()]


@lru_cache(maxsize=None)
def _point_values(k: int, e: int) -> tuple[dict[Triple, int], ...]:
    """The value of each degree-e monomial at each point of P^2(F_{2^k}),
    points in canonical order."""
    field = build_field(k)
    return tuple({m: evaluate(encode([m]), p, field) for m in monomials(e)}
                 for p in projective_points(field))


def _value(g: HomPoly, values: dict[Triple, int], mul: list[list[int]]) -> int:
    """g at a point, from its monomials' `values` there and a product table."""
    acc = 0
    for m, c in g.items():
        acc ^= mul[c][values[m]]
    return acc


def find_factor(f: PolyMask, k: int) -> Factor | None:
    """First divisor of f over F_{2^k} in sweep order (Galois descent), or None."""
    if not 1 <= k <= 3:
        raise ValueError("irreducibility is tested over F_2, F_4, F_8 only")
    g = _f2_factor(f)
    if g is not None:
        return _witness(mask_to_dict(g), 1)
    if k > 1 and f.degree % k == 0:
        return _sweep(f, [f.degree // k], k)  # conjugate factors (Galois descent)
    return None


def is_irreducible(f: PolyMask, k: int) -> bool:
    return find_factor(f, k) is None


# -- forms over F_2 that split over an extension -------------------------------


def norm(h: HomPoly, s: int) -> PolyMask:
    """h Frob(h) ... Frob^(s-1)(h) for h over F_{2^s}: a form over F_2."""
    field = build_field(s)
    f = conj = h
    for _ in range(s - 1):
        conj = {m: field.mul(c, c) for m, c in conj.items()}  # Frobenius image
        f = hom_mul(f, conj, field)
    assert all(c == 1 for c in f.values())  # F_2 coefficients
    return encode(list(f))


def conjugate_cubic_norm() -> PolyMask:
    """g * Frob(g) for g = x^3 + w y^3 + z^3 over F_4: F_2-irreducible,
    reducible over F_4."""
    return norm({(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1}, 2)  # 2 = generator
