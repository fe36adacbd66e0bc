"""Point enumeration and smooth/singular point counting over P^2(F_q).

The projective plane is enumerated as normalized points (1, y, z), then
(0, 1, z), then (0, 0, 1), in that canonical order.  Every curve here has
F_2 coefficients, so the Frobenius map (x : y : z) -> (x^2 : y^2 : z^2)
permutes its zero set and its singular set, and it keeps the normalization.
A `PointCounter` therefore stores only the minimum of each Frobenius orbit
(its first point in canonical order), with the orbit's size as its weight:
about (q^2 + q + 1)/m representatives over F_{2^m}.  They are built from
q-length tables of the squaring map s(a) = a^2.  With deg a the size of
a's orbit under s, (1, y, z) is a minimum iff y is minimal in its s-orbit
and z is minimal in its orbit under s^(deg y), and its weight is
lcm(deg y, deg z); (0, 1, z) is a minimum iff z is minimal in its s-orbit,
weight deg z; (0, 0, 1) has weight 1.

A count evaluates the curve at the representatives only: `total` is the
sum of the weights of the zeros, and the partials are evaluated at the
zeros alone.  Each singular representative is expanded back into its orbit
by squaring its coordinates, and the singular points are reported in
canonical order, exactly as a pass over every point would list them.  A
weight is the point's degree: each singular point carries the degree of
the representative it was expanded from, and a count keeps the smooth
points' degrees.

A curve's values come from one log-domain evaluator over its own
monomials, in one pass over the representatives.  Where many curves of
one degree are counted over one field (the search), the caller builds that
degree's monomial table up front with `PointCounter.monomial_table`: the
values of every basis monomial at every representative, so a curve with w
monomials costs w contiguous-row XOR passes.  A table pays for itself after
a few counts (tens of MB for the largest fields), so single-curve counting
(`count_points`, `verify`) builds none.  A table that cannot be allocated
leaves its degree on the evaluator; both paths give the same values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .gf2m import FieldTable
from .polyrep import PolyMask, bit_indices, monomials, partials

@dataclass(frozen=True)
class PointCount:
    """Per-field tally for one curve; total = smooth + len(singular_points).
    A point's degree is the least k with the point in P^2(F_{2^k}).
    `singular_degrees[i]` is the degree of `singular_points[i]`, and
    `smooth_degrees` holds the smooth points' degrees; both are None when
    read back from a catalog."""

    q: int
    total: int
    smooth: int
    singular_points: tuple[tuple[int, int, int], ...]
    singular_degrees: tuple[int, ...] | None = None
    smooth_degrees: frozenset[int] | None = None


def projective_points(field: FieldTable) -> Iterator[tuple[int, int, int]]:
    """The q^2 + q + 1 normalized points of P^2(F_q), in the canonical order."""
    q = field.order
    for y in range(q):
        for z in range(q):
            yield (1, y, z)
    for z in range(q):
        yield (0, 1, z)
    yield (0, 0, 1)


def _point_index(p: tuple[int, int, int], q: int) -> int:
    """Position of the normalized point p in the canonical enumeration."""
    x, y, z = p
    if x:
        return y * q + z
    return q * q + z if y else q * q + q


class PointCounter:
    """Bulk curve evaluation over one field, on Frobenius orbit minima.

    `coords` holds the orbit minima of P^2(F_q) in canonical order (one
    column each) and `weights` their orbit sizes, which sum to `n_points`
    = q^2 + q + 1.  Monomial tables are stored monomial-major (row t =
    values of basis monomial t at every representative) so that
    accumulating a curve is a sequence of contiguous XOR passes.
    """

    def __init__(self, field: FieldTable):
        self.field = field
        self.q = q = field.order
        self.n_points = q * q + q + 1
        elems = np.arange(q)
        # orbit[k] = a^(2^k); squaring has order m on F_q, so row m = row 0.
        orbit = np.empty((field.m + 1, q), dtype=np.int64)
        orbit[0] = elems
        for k in range(field.m):
            orbit[k + 1] = field.pow_arr(orbit[k], 2)
        deg = (1 + np.argmax(orbit[1:] == elems, axis=0)).astype(np.uint8)

        def minimal(e: int) -> np.ndarray:
            """The elements minimal in their orbits under a -> a^(2^e), e | m."""
            return np.flatnonzero((orbit[: field.m: e] >= elems).all(axis=0)
                                  ).astype(np.uint16)

        ys = minimal(1)
        z_minima = {e: minimal(e) for e in set(deg[ys].tolist())}
        zs = [z_minima[e] for e in deg[ys].tolist()]
        y = np.repeat(ys, [len(z) for z in zs])
        z = np.concatenate(zs)
        n_affine = len(z)
        n = n_affine + len(ys) + 1
        coords = np.zeros((3, n), dtype=np.uint16)
        coords[0, :n_affine] = 1
        coords[1, :n_affine] = y
        coords[2, :n_affine] = z
        coords[1, n_affine:-1] = 1
        coords[2, n_affine:-1] = ys
        coords[2, -1] = 1
        weights = np.ones(n, dtype=np.uint8)
        weights[:n_affine] = np.lcm(deg[y], deg[z])
        weights[n_affine:-1] = deg[ys]
        self.coords = coords
        self.weights = weights
        self._square = orbit[1].tolist()
        # degree -> monomial table, or None where the allocation failed
        self._tables: dict[int, np.ndarray | None] = {}

    def _monomial_rows(self, d: int, cols: Iterable[int], sel: slice | np.ndarray
                       ) -> Iterator[np.ndarray]:
        """Values of the degree-d basis monomials `cols` at the
        representatives `sel` (a slice or an index array), one row per
        monomial.

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
        out = np.empty((len(basis), len(self.weights)), dtype=np.uint16)
        for t, row in enumerate(self._monomial_rows(d, range(len(basis)), slice(None))):
            out[t] = row
        return out

    def monomial_table(self, d: int) -> np.ndarray | None:
        """Build (once) and keep the degree-d table, so that later counts of
        degree-d curves, or of degree-(d+1) curves' partials, use it; None
        when it does not fit in memory (degree d then uses the evaluator)."""
        if d not in self._tables:
            try:
                self._tables[d] = self._build_table(d)
            except MemoryError:
                warnings.warn(
                    f"monomial table for q={self.q}, d={d} does not fit in "
                    "memory; falling back to direct evaluation"
                )
                self._tables[d] = None
        return self._tables[d]

    # -- evaluation ------------------------------------------------------------

    def values_at(self, d: int, cols: tuple[int, ...], sel: slice | np.ndarray
                  ) -> np.ndarray:
        """Values of the degree-d form with basis monomials `cols` at the
        representatives `sel` (a slice or an index array); `cols` is not
        empty."""
        table = self._tables.get(d)
        if table is None:
            rows = self._monomial_rows(d, cols, sel)
        else:
            rows = (table[c][sel] for c in cols)
        acc = next(rows).copy()
        for row in rows:
            acc ^= row
        return acc

    def count(self, f: PolyMask) -> PointCount:
        """Totals plus the singular points (all partials vanishing)."""
        if f.bits == 0:
            raise ValueError("zero polynomial")
        d, (cols, partial_cols) = f.degree, _columns(f)
        zeros = np.flatnonzero(self.values_at(d, cols, slice(None)) == 0)
        total = int(self.weights[zeros].sum())
        if f.degree == 1:
            # The gradient of a nonzero linear form is a nonzero constant.
            return PointCount(self.q, total, total, (), (),
                              frozenset(self.weights[zeros].tolist()))
        sing_sel = np.ones(len(zeros), dtype=bool)
        for pcols in partial_cols:
            sing_sel &= self.values_at(d - 1, pcols, zeros) == 0
        singular = []
        square = self._square
        for i in zeros[sing_sel]:
            x, y, z = self.coords[:, i].tolist()
            k = int(self.weights[i])
            for _ in range(k):
                singular.append(((x, y, z), k))
                x, y, z = square[x], square[y], square[z]
        singular.sort(key=lambda pk: _point_index(pk[0], self.q))
        points, degrees = zip(*singular) if singular else ((), ())
        return PointCount(self.q, total, total - len(singular), points, degrees,
                          frozenset(self.weights[zeros[~sing_sel]].tolist()))


@lru_cache(maxsize=256)
def _columns(f: PolyMask) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The basis columns of f and of its nonzero partials, read off once
    per curve although the curve is counted over several fields."""
    return (tuple(bit_indices(f.bits)),
            tuple(tuple(bit_indices(p.bits)) for p in partials(f) if p.bits))


def count_points(f: PolyMask, field: FieldTable) -> PointCount:
    """One-shot count for a single curve (tables are only worth it in bulk)."""
    return PointCounter(field).count(f)
