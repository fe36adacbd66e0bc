"""Arithmetic for the binary fields F_{2^m}, m = 1..11.

Elements are m-bit coefficient vectors packed into Python ints, low bit =
constant term, so addition is a single XOR and serialization is bit-exact.
Multiplication goes through exponent/discrete-log tables built from a fixed
primitive defining polynomial: tuples of ints, which the scalar operations
index directly and bulk evaluation copies into numpy arrays.

The defining polynomial for each degree is the lexicographically smallest
primitive one, coefficient bits compared high-to-low, i.e. the smallest
integer encoding.  One walk decides primitivity: x^0, x^1, ... modulo an
odd candidate of degree m returns to 1 (x is a unit), and the candidate is
primitive iff the walk has 2^m - 1 terms.  Then every nonzero residue is a
power of x, hence a unit, so the candidate is irreducible too, and the
walk is the field's exp table.  Point counts downstream are representation
independent (tested), so nothing but determinism rides on this choice;
`build_field` accepts a `poly_index` to construct alternative
representations for the isomorphism-invariance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_M = 11
FIELD_ORDERS = frozenset(1 << m for m in range(1, MAX_M + 1))  # 2, 4, ..., 2048


def _x_powers(poly: int, m: int) -> list[int]:
    """x^0, x^1, ... modulo poly, an odd polynomial of degree m, up to the
    first return to 1: x is a unit, so it returns within 2^m - 1 steps."""
    powers, t = [], 1
    while True:
        powers.append(t)
        t <<= 1
        if t >> m:
            t ^= poly
        if t == 1:
            return powers


def primitive_polys(m: int, count: int = 1) -> list[int]:
    """The `count` smallest primitive polynomials of degree m, as ints."""
    found = []
    for cand in range((1 << m) + 1, 1 << (m + 1), 2):
        if len(_x_powers(cand, m)) == (1 << m) - 1:
            found.append(cand)
            if len(found) == count:
                return found
    raise ValueError(f"fewer than {count} primitive polynomials of degree {m}")


@dataclass(frozen=True, eq=False)
class FieldTable:
    """Read-only lookup tables for one field F_{2^m}; safe to share across
    threads.  Fields compare and hash by identity: `build_field` makes one
    object per field, and comparing the tables would walk them."""

    m: int
    order: int
    defining_poly: int
    exp: tuple[int, ...]  # length order-1, exp[i] = g^i for the generator g = x
    log: tuple[int, ...]  # length order, log[a] = discrete log of a; log[0] is a sentinel

    # -- scalar operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_{2^m}")
        return self.exp[-self.log[a] % (self.order - 1)]

    # -- vectorized operations (uint16 element arrays) ---------------------

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product of two arrays of element encodings."""
        exp, log = np.array(self.exp, np.uint16), np.array(self.log, np.int64)
        out = exp[(log[a] + log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, out).astype(np.uint16)


@lru_cache(maxsize=None)
def build_field(m: int, poly_index: int = 0) -> FieldTable:
    """Construct the tables for F_{2^m}.

    The generator is x itself (the defining polynomial is primitive), so
    exp[i] = x^i mod defining_poly covers every nonzero element exactly once.
    """
    if not 1 <= m <= MAX_M:
        raise ValueError(f"extension degree must be in 1..{MAX_M}, got {m}")
    poly = primitive_polys(m, poly_index + 1)[poly_index]
    exp = _x_powers(poly, m)
    log = [0] * (1 << m)
    for i, t in enumerate(exp):
        log[t] = i
    return FieldTable(m=m, order=1 << m, defining_poly=poly, exp=tuple(exp),
                      log=tuple(log))
