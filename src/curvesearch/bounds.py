"""Upper bounds on rational point counts and genus/point-count intervals.

All bounds use exact integer arithmetic: floor(2 sqrt(q)) is isqrt(4q) and
the Ihara formula's square root is an integer isqrt, so no floating point
can shift a bound by one.  Lauter bounds are reference data, shipped as a
plain text file "q g bound" and validated on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .gf2m import FIELD_ORDERS, MAX_M


def serre_bound(q: int, g: int) -> int:
    """q + 1 + g * floor(2 sqrt(q))."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return q + 1 + g * math.isqrt(4 * q)


def ihara_bound(q: int, g: int) -> int:
    """floor(q + 1 + (sqrt((8q+1) g^2 + 4(q^2-q) g) - g) / 2).

    Beats the Serre bound once g is large relative to q.  The outer floor
    commutes with flooring the inner square root because g is an integer.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    disc = (8 * q + 1) * g * g + 4 * (q * q - q) * g
    return q + 1 + (math.isqrt(disc) - g) // 2


class GenusInterval(NamedTuple):
    lo: int
    hi: int


class GenusInconsistency(ValueError):
    """Observed counts force genus_lo > genus_hi: the curve is not
    absolutely irreducible, and no bound is computed for it."""


@dataclass
class BoundTable:
    """Best-known upper bounds N_q(g) from the Serre/Ihara formulas plus an
    optional table of Lauter reference values that override them when smaller."""

    lauter: dict[tuple[int, int], int] = field(default_factory=dict)
    # (q, g) -> `effective`'s answer; a table is not changed once built.
    _memo: dict[tuple[int, int], tuple[int, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def effective(self, q: int, g: int) -> tuple[int, str]:
        hit = self._memo.get((q, g))
        if hit is not None:
            return hit
        bound, source = serre_bound(q, g), "serre"
        ih = ihara_bound(q, g)
        if ih < bound:
            bound, source = ih, "ihara"
        lt = self.lauter.get((q, g))
        if lt is not None and lt < bound:
            bound, source = lt, "lauter"
        self._memo[(q, g)] = bound, source
        return bound, source


def load_lauter(path: str | Path | None = None) -> BoundTable:
    """Parse a "q g bound" file ('#' comments); rejects a q other than
    2, 4, ..., 2048, a negative bound, duplicates and any entry that is not
    an improvement on the Serre bound."""
    if path is None:
        text = resources.files("curvesearch.data").joinpath("lauter.txt").read_text()
    else:
        text = Path(path).read_text()
    table: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            q, g, bound = (int(p) for p in line.split())
            serre = serre_bound(q, g)
            if q not in FIELD_ORDERS:
                raise ValueError(f"q = {q} is not 2^m for m = 1..{MAX_M}")
            if bound < 0:
                raise ValueError(f"negative bound {bound}")
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: expected 'q g bound', got {raw!r} ({exc})"
            ) from None
        if (q, g) in table:
            raise ValueError(f"line {lineno}: duplicate entry for ({q}, {g})")
        if bound > serre:
            raise ValueError(
                f"line {lineno}: bound {bound} exceeds the Serre bound "
                f"{serre} for ({q}, {g})"
            )
        table[(q, g)] = bound
    return BoundTable(lauter=table)


def genus_interval(d: int, r: int, per_field_smooth: dict[int, int]
                   ) -> GenusInterval:
    """[lo, hi] for the smooth-model genus from observed plane data.

    hi = (d-1)(d-2)/2 - r, with r a (deduplicated) count of observed
    singular points, which can only understate the truth and so keeps hi an
    upper bound.  lo is the least g whose Serre bound admits the observed
    smooth count, over every scanned field: smooth plane points inject into
    the smooth model.  lo > hi is raised, not swallowed.
    """
    hi = (d - 1) * (d - 2) // 2 - r
    lo = 0
    for q, s in per_field_smooth.items():
        if s > q * q + q + 1:
            raise ValueError(f"smooth count {s} exceeds |P^2(F_{q})|")
        excess = s - (q + 1)
        if excess > 0:
            denom = math.isqrt(4 * q)
            lo = max(lo, -(-excess // denom))
    if lo > hi:
        raise GenusInconsistency(
            f"genus bounds lo={lo} > hi={hi}: curve cannot be absolutely "
            "irreducible with the observed counts"
        )
    return GenusInterval(lo, hi)


def smooth_model_range(q: int, smooth: int, credited: int, d: int, r: int,
                       genus_hi: int, table: BoundTable) -> tuple[int, int]:
    """(N_lo, N_hi) for the smooth-model point count over F_q.

    N_lo adds only blowup points from ordinary singularities (exact_known).
    N_hi caps by the multiplicity-sum bound over r observed singular points
    and by the effective bound at the genus upper end.  The multiplicity-sum
    bound floor(d/2) * r + 1 holds for r >= 2 only (its proof is pairwise
    Bezout); for r = 1 the sound cap is the single multiplicity, at most
    d - 1 on an irreducible curve, and for r = 0 the plane count itself.
    """
    n_lo = smooth + credited
    if r == 0:
        cap = smooth
    elif r == 1:
        cap = smooth + d - 1
    else:
        cap = smooth + (d // 2) * r + 1
    bound, _ = table.effective(q, genus_hi)
    return n_lo, min(cap, bound)
