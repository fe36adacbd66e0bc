"""Point enumeration and smooth/singular point counting over P^2(F_q).

The projective plane is enumerated once per field as normalized
representatives (1, y, z), then (0, 1, z), then (0, 0, 1).  A curve's
values come from one log-domain evaluator over its own monomials, in
fixed-size chunks of points.  Where many curves of one degree are counted
over one field (the search, and the certificate's small fields), the caller
builds that degree's monomial table up front with
`PointCounter.monomial_table`: the values of every basis monomial at every
point, so a curve with w monomials costs w contiguous-row XOR passes.  A
table pays for itself after a few counts but runs to a few hundred MB for
the largest fields, so single-curve counting (`count_points`, `verify`)
builds none.  A table that cannot be allocated leaves its degree on the
chunked path; both paths give the same values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .gf2m import FieldTable
from .polyrep import PolyMask, bit_indices, monomials, partials

# Points per evaluation pass; bounds the temporaries of the chunked fallback.
CHUNK = 1 << 18


@dataclass(frozen=True)
class PointCount:
    """Per-field tally for one curve; total = smooth + len(singular_points)."""

    q: int
    total: int
    smooth: int
    singular_points: tuple[tuple[int, int, int], ...]


def projective_points(field: FieldTable) -> Iterator[tuple[int, int, int]]:
    """The q^2 + q + 1 normalized points of P^2(F_q), in the canonical order."""
    q = field.order
    for y in range(q):
        for z in range(q):
            yield (1, y, z)
    for z in range(q):
        yield (0, 1, z)
    yield (0, 0, 1)


class PointCounter:
    """Bulk curve evaluation over one field.

    Monomial tables are stored monomial-major (row t = values of basis
    monomial t at every point) so that accumulating a curve is a sequence of
    contiguous XOR passes.
    """

    def __init__(self, field: FieldTable):
        self.field = field
        self.q = field.order
        self.n_points = self.q * self.q + self.q + 1
        q = self.q
        coords = np.zeros((3, self.n_points), dtype=np.uint16)
        grid = np.arange(q, dtype=np.uint16)
        coords[0, : q * q] = 1
        coords[1, : q * q] = np.repeat(grid, q)
        coords[2, : q * q] = np.tile(grid, q)
        coords[1, q * q : q * q + q] = 1
        coords[2, q * q : q * q + q] = grid
        coords[2, -1] = 1
        self.coords = coords
        # degree -> monomial table, or None where the allocation failed
        self._tables: dict[int, np.ndarray | None] = {}

    def _monomial_rows(self, d: int, cols: Iterable[int], sel: slice | np.ndarray
                       ) -> Iterator[np.ndarray]:
        """Values of the degree-d basis monomials `cols` at the points `sel`
        (a slice or an index array), one row per monomial.

        Computed in the log domain: x^i y^j z^k = exp[(i log x + j log y +
        k log z) mod (q - 1)], zeroed where a coordinate with a positive
        exponent is 0 (log 0 is only a sentinel).
        """
        field = self.field
        xyz = [self.coords[v][sel] for v in range(3)]
        logs = [field.log[c] for c in xyz]
        zeros = [np.flatnonzero(c == 0) for c in xyz]
        basis = monomials(d)
        for c in cols:
            exps = basis[c]  # i + j + k = d >= 1, so the sum is an array
            e = sum(k * lg for k, lg in zip(exps, logs) if k)
            row = field.exp[e % (self.q - 1)]
            for k, z in zip(exps, zeros):
                if k:
                    row[z] = 0
            yield row

    def _build_table(self, d: int) -> np.ndarray:
        basis = monomials(d)
        out = np.empty((len(basis), self.n_points), dtype=np.uint16)
        for t, row in enumerate(self._monomial_rows(d, range(len(basis)), slice(None))):
            out[t] = row
        return out

    def monomial_table(self, d: int) -> np.ndarray | None:
        """Build (once) and keep the degree-d table, so that later counts of
        degree-d curves, or of degree-(d+1) curves' partials, use it; None
        when it does not fit in memory (degree d then evaluates in chunks)."""
        if d not in self._tables:
            try:
                self._tables[d] = self._build_table(d)
            except MemoryError:
                warnings.warn(
                    f"monomial table for q={self.q}, d={d} does not fit in "
                    "memory; falling back to chunked evaluation"
                )
                self._tables[d] = None
        return self._tables[d]

    # -- evaluation ------------------------------------------------------------

    def values_at(self, f: PolyMask, sel: slice | np.ndarray) -> np.ndarray:
        """Curve values at the points `sel` (a slice or an index array)."""
        cols = bit_indices(f.bits)
        if not cols:
            return np.zeros_like(self.coords[0][sel])
        table = self._tables.get(f.degree)
        if table is None:
            rows = self._monomial_rows(f.degree, cols, sel)
        else:
            rows = (table[c][sel] for c in cols)
        acc = next(rows).copy()
        for row in rows:
            acc ^= row
        return acc

    def zero_indices(self, f: PolyMask) -> np.ndarray:
        """Indices of points on the curve, in enumeration order."""
        if f.bits == 0:
            raise ValueError("zero polynomial")
        return np.concatenate([
            np.flatnonzero(self.values_at(f, slice(lo, lo + CHUNK)) == 0) + lo
            for lo in range(0, self.n_points, CHUNK)
        ])

    def count(self, f: PolyMask) -> PointCount:
        """Totals plus the singular points (all partials vanishing)."""
        zeros = self.zero_indices(f)
        total = int(len(zeros))
        if total == 0:
            return PointCount(self.q, 0, 0, ())
        if f.degree == 1:
            # The gradient of a nonzero linear form is a nonzero constant.
            return PointCount(self.q, total, total, ())
        sing_sel = np.ones(total, dtype=bool)
        for pmask in partials(f):
            if pmask.bits == 0:
                continue
            vals = self.values_at(pmask, zeros)
            sing_sel &= vals == 0
        sing_idx = zeros[sing_sel]
        singular = tuple(
            (int(self.coords[0, i]), int(self.coords[1, i]), int(self.coords[2, i]))
            for i in sing_idx
        )
        return PointCount(self.q, total, total - len(singular), singular)


def count_points(f: PolyMask, field: FieldTable) -> PointCount:
    """One-shot count for a single curve (tables are only worth it in bulk)."""
    return PointCounter(field).count(f)


def naive_count(f: PolyMask, field: FieldTable) -> PointCount:
    """Oracle: double loop over points, monomials by repeated multiplication."""
    from .polyrep import decode

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
    for p in projective_points(field):
        if ev(monos, p) != 0:
            continue
        total += 1
        if f.degree == 1:
            continue
        if all(ev(pm, p) == 0 for pm in pmonos):
            singular.append(p)
    return PointCount(field.order, total, total - len(singular), tuple(singular))
