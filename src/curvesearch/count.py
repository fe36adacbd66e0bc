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
sum of the weights of the zeros, and singularity is tested at the zeros
alone.  Each singular representative is expanded back into its orbit
by squaring its coordinates, and the singular points are reported in
canonical order, exactly as a pass over every point would list them.  A
weight is the point's degree: each singular point carries the degree of
the representative it was expanded from, and a count keeps the number of
smooth points of each degree.

Every value a count reads is an XOR of rows of degree-d basis monomials,
one value per representative, and each counter has one source of such
rows.  A standalone `PointCounter` evaluates the rows it is asked for by
one log-domain evaluator, at one add and one gather per row within one
exponent of x, from exp and log tables it builds once per degree; this is
how `count_points`, `verify` and the certificate count, and it builds no
monomial tables, which pay for themselves only over many counts (tens of
MB for the largest fields).  Bulk counting goes
through a `JointCounter`, over one field or several: its columns
concatenate the representatives of all its fields, and the fields'
counters hold column views of them.  Addition is XOR in every F_{2^m}, so
one accumulator over the joint columns holds a curve's values in every
field at once.  The joint counter reads every row off its degree-d
monomial table (the values of every basis monomial at every joint
column), which its first count of degree d builds from the same
log-domain indices as the evaluator's rows, each field's columns in chunks
of `TABLE_CHUNK` and each row gathered straight into place; each member's
`PointCounter.monomial_table` is a view of its columns.  A search builds
the table of its own degree only (29.5 MB at degree 6 and 22.2 MB at
degree 5 over F_8..F_2048).  Curves come in sieve order, where
consecutive orbit minima share most monomials, so the accumulator keeps
the last curve's values and is updated by the rows of the monomials in
which the two curves differ; where those are more rows than the curve
has, the curve is accumulated in full.  The zeros are found in one scan
and tested once, all together, then tallied together by `_tally`, as a
single-field count's are: one bincount over each zero's field (read off
the column offsets) and weight gives every field's smooth points by
degree, and only the singular representatives are expanded.
The scan is two-level: the `== 0` mask goes into a bool buffer, which a
joint counter holds, its uint64 words are tested first, and only the few
words with a zero are read column by column.

Singularity is decided one way on every path, from degree-d rows.  Every
column is a normalized point P, whose leading coordinate x_v (the first
nonzero one of x, y, z) is 1, so g(P) = (x_v g)(P) for any form g, and
x_v f_w is a degree-d form: its monomials are the lifts x_v m / x_w of f's
monomials m with an odd exponent of x_w.  Only two partials are read: by
Euler's identity x f_x + y f_y + z f_z = d f, at a zero f_v(P) is the sum
over w != v of x_w f_w(P), so f_v vanishes where the other two do.  Every
zero is read as affine (v = x) first, and those on the line x = 0 are read
again (v = y); at (0:0:1), where every basis monomial but z^d vanishes,
the answer is read off f's coefficients.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .gf2m import FieldTable
from .polyrep import (
    PolyMask,
    basis_size,
    bit_indices,
    monomial_index,
    monomials,
    partials,  # unused here; perfbench/layers.py wraps `count.partials`
)

TABLE_CHUNK = 1 << 16  # columns per chunk of a field in a table build

class PointCount(NamedTuple):
    """Per-field tally for one curve; total = smooth + len(singular_points).
    A point's degree is the least k with the point in P^2(F_{2^k}).
    `singular_degrees[i]` is the degree of `singular_points[i]`, and
    `smooth_by_degree[e]` the number of smooth points of degree e, e = 0..m
    over F_{2^m}; both are None when read back from a catalog."""

    q: int
    total: int
    smooth: int
    singular_points: tuple[tuple[int, int, int], ...]
    singular_degrees: tuple[int, ...] | None = None
    smooth_by_degree: tuple[int, ...] | None = None


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
    = q^2 + q + 1.  A counter evaluates each curve's own monomials and
    keeps no monomial tables; a member of a `JointCounter` reads its
    columns of the joint tables through `monomial_table`.
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
        # Its first column on the line x = 0, its column of (0:0:1), which
        # is its last, and its end: the edges `_singular` reads.
        self._edges = np.array([n_affine, n - 1, n])
        # degree -> the evaluator's (exp, log) tables, built by its first use
        self._evaluators: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # The `JointCounter` that holds this counter's columns, and which of
        # its columns they are, if any.  The reference is weak, so that no
        # cycle keeps the joint tables alive after the joint counter goes.
        self._joint: tuple[weakref.ref[JointCounter], slice] | None = None

    def _monomial_rows(self, d: int, cols: Iterable[int],
                       sel: slice | np.ndarray = slice(None)) -> Iterator[np.ndarray]:
        """Values of the degree-d basis monomials `cols` at the
        representatives `sel` (a slice or an index array), one fresh row
        per monomial: this counter's row source."""
        exp, indices = self._log_indices(d, cols, sel)
        return (exp.take(idx) for idx in indices)

    def _log_indices(self, d: int, cols: Iterable[int], sel: slice | np.ndarray
                     ) -> tuple[np.ndarray, Iterator[np.ndarray]]:
        """(exp, indices): x^i y^j z^k = exp[d log y + i (log x - log y) +
        k (log z - log y)] at `sel`, one index array per monomial of `cols`,
        the same array stepped in place (by log z - log y within one exponent
        of x).  No reduction mod q - 1 and no patching of zeros: exp repeats
        up to s = d (q - 2) + 1, one more than any sum of d true logs, and is
        0 from s to d s; log 0 is s, so a sum that takes it (a zero
        coordinate with a positive exponent) lands there.  Both tables are
        built once per degree."""
        if d not in self._evaluators:
            s = d * (self.q - 2) + 1
            exp = np.zeros(d * s + 1, dtype=np.uint16)
            exp[:s] = np.resize(self.field.exp, s)
            log = np.array(self.field.log, dtype=np.int32)
            log[0] = s
            self._evaluators[d] = exp, log
        exp, log = self._evaluators[d]
        # `take` gathers twice as fast as `log[...]` from uint16 indices;
        # one row at a time bounds their intp copy to one row.
        x, y, z = (log.take(self.coords[v][sel]) for v in range(3))
        x -= y
        z -= y
        basis = monomials(d)

        def indices() -> Iterator[np.ndarray]:
            idx, at = d * y, (0, 0)  # y^d: (i, k) = (0, 0)
            for c in cols:
                i, _, k = basis[c]
                for step, lg in ((i - at[0], x), (k - at[1], z)):
                    if step:
                        idx += lg if step == 1 else step * lg
                at = (i, k)
                yield idx

        return exp, indices()

    def monomial_table(self, d: int) -> np.ndarray | None:
        """This counter's columns of its joint counter's degree-d table,
        which the first call for d builds for every field; None for a
        counter outside a live `JointCounter`."""
        joint = self._joint and self._joint[0]()
        return None if joint is None else joint.monomial_table(d)[:, self._joint[1]]

    def count(self, f: PolyMask) -> PointCount:
        """Totals plus the singular points, from the evaluator's rows."""
        if f.bits == 0:
            raise ValueError("zero polynomial")
        cols = bit_indices(f.bits)
        rows = self._monomial_rows(f.degree, cols)
        acc = next(rows)
        for row in rows:
            acc ^= row
        zeros = _zeros(acc, _scan_buffer(len(acc)))
        singular = _singular(self._monomial_rows, self._edges, f, cols, zeros)
        return _tally([self], (0, len(acc)), self.coords, self.weights,
                      zeros, singular)[self.q]


class JointCounter:
    """One count of a curve over several fields, in one pass.

    `coords` and `weights` concatenate the fields' representatives, in the
    order given; field i owns the columns `offsets[i]:offsets[i + 1]`, and
    its counter in `counters` holds views of them.  Each degree's
    accumulator keeps the values of the last curve counted, so that a curve
    in sieve order costs about as many row XORs as it has monomials not in
    the curve before it.
    """

    def __init__(self, fields: Iterable[FieldTable]):
        counters = [PointCounter(field) for field in fields]
        self.offsets = np.cumsum([0] + [len(c.weights) for c in counters])
        self.coords = np.concatenate([c.coords for c in counters], axis=1)
        self.weights = np.concatenate([c.weights for c in counters])
        for c, lo, hi in zip(counters, self.offsets, self.offsets[1:]):
            cols = slice(lo, hi)
            c.coords, c.weights = self.coords[:, cols], self.weights[cols]
            c._joint = (weakref.ref(self), cols)
        self.counters = {c.q: c for c in counters}
        self._edges = np.concatenate([c._edges + lo
                                      for c, lo in zip(counters, self.offsets)])
        self._tables: dict[int, np.ndarray] = {}
        # degree -> the last curve counted (0 before the first) and its values
        self._last: dict[int, int] = {}
        self._acc: dict[int, np.ndarray] = {}
        self._hit = _scan_buffer(len(self.weights))

    def _build_table(self, d: int) -> np.ndarray:
        """The degree-d table, monomial-major (row t = values of basis
        monomial t at every column), so that accumulating a curve is a
        sequence of contiguous XOR passes.  Each field's columns are filled
        TABLE_CHUNK at a time, so no temporary spans a field, and each row
        is gathered from the exp table straight into place (its indices are
        all in range, and "clip" lets `take` write `out` unbuffered)."""
        out = np.empty((basis_size(d), len(self.weights)), dtype=np.uint16)
        for c, lo in zip(self.counters.values(), self.offsets):
            for a in range(0, len(c.weights), TABLE_CHUNK):
                b = min(a + TABLE_CHUNK, len(c.weights))
                exp, indices = c._log_indices(d, range(len(out)), slice(a, b))
                for t, idx in enumerate(indices):
                    exp.take(idx, out=out[t, lo + a: lo + b], mode="clip")
        return out

    def monomial_table(self, d: int) -> np.ndarray:
        """Build (once) and keep the degree-d table over every field's
        columns."""
        if d not in self._tables:
            self._tables[d] = self._build_table(d)
        return self._tables[d]

    def drop_tables(self) -> None:
        """Let go of every table held.  The next count of a degree builds
        its table again, with the same values."""
        self._tables.clear()

    def _rows(self, d: int, monos: list[int], sel: slice | np.ndarray = slice(None)
              ) -> Iterator[np.ndarray]:
        """Values of the degree-d basis monomials `monos` at every column
        (the default), read in place, or at the ascending columns `sel`,
        one row of the degree-d table per monomial."""
        table = self.monomial_table(d)
        if isinstance(sel, slice):
            return (table[t] for t in monos)
        return (table[t].take(sel) for t in monos)

    def _values(self, f: PolyMask, cols: list[int]) -> np.ndarray:
        """f's values at every column: the last degree-d curve's, updated by
        the rows of the monomials in which the two differ, or from zero by
        f's own rows where those are fewer.  The result is the accumulator
        itself."""
        d = f.degree
        if d not in self._acc:  # the zero curve's values
            self._acc[d] = np.zeros(len(self.weights), dtype=np.uint16)
            self._last[d] = 0
        acc = self._acc[d]
        delta = self._last[d] ^ f.bits
        if delta.bit_count() > len(cols):
            acc.fill(0)
            delta = f.bits
        for row in self._rows(d, bit_indices(delta)):
            acc ^= row
        self._last[d] = f.bits
        return acc

    def count_all(self, f: PolyMask) -> dict[int, PointCount]:
        """f's count over every field, by field order: one accumulation and
        zero scan over all the columns, one singularity test of all the
        zeros, then one tally of them all."""
        if f.bits == 0:
            raise ValueError("zero polynomial")
        cols = bit_indices(f.bits)
        zeros = _zeros(self._values(f, cols), self._hit)
        singular = _singular(self._rows, self._edges, f, cols, zeros)
        return _tally(self.counters.values(), self.offsets, self.coords,
                      self.weights, zeros, singular)


def _scan_buffer(n: int) -> np.ndarray:
    """`_zeros`' buffer for n columns: False, in whole uint64 words."""
    return np.zeros(n + -n % 8, dtype=bool)


def _zeros(acc: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """The columns where `acc` is 0, ascending, by a two-level scan: the
    mask goes into `hit` (its padding stays False), its uint64 words are
    tested, and only the words with a hit are read bit by bit.  Zeros are
    sparse, about one column in a thousand in the largest fields."""
    np.equal(acc, 0, out=hit[: len(acc)])
    words = np.flatnonzero(hit.view(np.uint64) != 0)
    at = np.flatnonzero(hit.reshape(-1, 8)[words])
    return words[at >> 3] * 8 + (at & 7)


def _tally(counters: Iterable[PointCounter], offsets, coords: np.ndarray,
           weights: np.ndarray, zeros: np.ndarray, singular: np.ndarray
           ) -> dict[int, PointCount]:
    """The counts, by field order, from the ascending columns `zeros` on
    the curve, of which those marked in `singular` are singular; field i
    owns the columns offsets[i]:offsets[i + 1] of `coords` and `weights`.
    Each field's smooth points by degree, and so its smooth count, come
    from one bincount over the smooth zeros' field and weight.  Each singular
    representative is expanded back into its orbit by squaring, and each
    field's singular points are listed in canonical order, which needs a
    sort only where a conjugate was expanded."""
    counters = list(counters)
    width = 1 + max(c.field.m for c in counters)  # a weight divides m
    field = np.searchsorted(offsets, zeros, "right") - 1
    key = field * width + weights[zeros]
    orbits = np.bincount(key[~singular], minlength=len(counters) * width)
    by_degree = (orbits.reshape(-1, width) * np.arange(width)).tolist()
    found: list[list] = [[] for _ in counters]
    expanded = [False] * len(counters)  # whether a field lists a conjugate
    at = zeros[singular]
    for (x, y, z), k, c in zip(coords[:, at].T.tolist(), weights[at].tolist(),
                               field[singular].tolist()):
        points = found[c]
        points.append(((x, y, z), k))
        if k > 1:
            expanded[c] = True
            mul = counters[c].field.mul
            for _ in range(k - 1):
                x, y, z = mul(x, x), mul(y, y), mul(z, z)
                points.append(((x, y, z), k))
    counts = {}
    for c, row, points, unsorted in zip(counters, by_degree, found, expanded):
        # Representatives come in canonical order; only conjugates break it.
        if unsorted:
            points.sort(key=lambda pk: _point_index(pk[0], c.q))
        points, degrees = zip(*points) if points else ((), ())
        n = sum(row)
        counts[c.q] = PointCount(c.q, n + len(points), n, points, degrees,
                                 tuple(row[:c.field.m + 1]))
    return counts


def _singular(rows, edges: np.ndarray, f: PolyMask, cols: list[int],
              zeros: np.ndarray) -> np.ndarray:
    """Which of f's `zeros`, ascending columns, are singular, from a row
    source `rows(d, monos, sel)` and the column `edges` of each field (its
    first column on the line x = 0, its column of (0:0:1), its end): at a
    zero with leading coordinate x_v, the partials f_w, w != v, are read as
    x_v f_w (see the module docstring).  Every zero is read as affine first;
    those on the line x = 0 are then read again."""
    d = f.degree
    lifts = _lifts(d)
    singular = _vanishing(rows, d, lifts[0], cols, zeros)
    cuts = zeros.searchsorted(edges).tolist()
    line = [p for start, last in zip(cuts[::3], cuts[1::3])
            for p in range(start, last)]
    if line:
        singular[line] = _vanishing(rows, d, lifts[1], cols, zeros[line])
    # At (0:0:1) every basis monomial but the last, z^d, vanishes.
    apex = all(lift[t] != basis_size(d) - 1 for lift in lifts[2] for t in cols)
    for last, end in zip(cuts[1::3], cuts[2::3]):
        if end > last:
            singular[last] = apex
    return singular


def _vanishing(rows, d: int, lifts: tuple[tuple[int, ...], ...], cols: list[int],
               sel: np.ndarray) -> np.ndarray:
    """Where, at the columns `sel`, both x_v f_w vanish, for x_v's `_lifts`
    and the basis monomials `cols` of f: each form is a list of rows, and
    each row the two use is read from `rows` once."""
    forms = [[r for t in cols if (r := lift[t]) >= 0] for lift in lifts]
    need = sorted(set().union(*forms))
    at = dict(zip(need, rows(d, need, sel)))
    nonzero = None
    for form in forms:
        if form:
            acc = at[form[0]]
            for r in form[1:]:
                acc = acc ^ at[r]
            nonzero = acc if nonzero is None else nonzero | acc
    return np.ones(len(sel), dtype=bool) if nonzero is None else nonzero == 0


@lru_cache(maxsize=None)
def _lifts(d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """`_lifts(d)[v]`, for x_0, x_1, x_2 = x, y, z, holds one map for each
    w != v, in ascending order: entry t is the degree-d basis index of
    x_v dm/dx_w for the basis monomial m = m_t, or -1 where m's exponent
    of x_w is even and its derivative vanishes mod 2.  A lift is
    injective, so x_v f_w is the set of lifts of f's monomials."""
    basis, index = monomials(d), monomial_index(d)

    def lift(v: int, w: int, e: tuple[int, int, int]) -> int:
        if e[w] % 2 == 0:
            return -1
        e = list(e)
        e[w] -= 1
        e[v] += 1
        return index[tuple(e)]

    return tuple(tuple(tuple(lift(v, w, e) for e in basis)
                       for w in range(3) if w != v) for v in range(3))


def count_points(f: PolyMask, field: FieldTable) -> PointCount:
    """One-shot count for a single curve, by the evaluator; bulk counting
    over one field goes through `JointCounter([field])`, whose tables pay
    for themselves over many counts."""
    return PointCounter(field).count(f)
