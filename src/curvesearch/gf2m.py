"""Arithmetic for the binary fields F_{2^m}, m = 1..11.

Elements are m-bit coefficient vectors packed into Python ints, low bit =
constant term, so addition is a single XOR and serialization is bit-exact.
Multiplication goes through exponent/discrete-log tables built from a fixed
primitive defining polynomial: tuples of ints, which the scalar operations
index directly and bulk evaluation copies into numpy arrays.

The defining polynomial for each degree is the lexicographically smallest
primitive one, coefficient bits compared high-to-low, i.e. the smallest
integer encoding.  Point counts downstream are representation independent
(tested), so nothing but determinism rides on this choice; `build_field`
accepts a `poly_index` to construct alternative representations for the
isomorphism-invariance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_M = 11


def _polymod(a: int, mod: int) -> int:
    """Remainder of binary polynomial a modulo mod."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _is_irreducible(poly: int) -> bool:
    """Trial division by every lower-degree binary polynomial of degree >= 1."""
    deg = poly.bit_length() - 1
    for g in range(2, 1 << (deg // 2 + 1)):
        if _polymod(poly, g) == 0:
            return False
    return True


def _x_order(poly: int, m: int) -> int:
    """Multiplicative order of x modulo poly (poly irreducible of degree m)."""
    limit = (1 << m) - 1
    t = _polymod(2, poly)
    k = 1
    while t != 1:
        t = _polymod(t << 1, poly)
        k += 1
        if k > limit:
            raise ArithmeticError(f"order of x exceeds group order for poly {poly:#x}")
    return k


def primitive_polys(m: int, count: int = 1) -> list[int]:
    """The `count` smallest primitive polynomials of degree m, as ints."""
    if m == 1:
        # x + 1: the only degree-1 polynomial with nonzero constant term.
        return [0b11][:count]
    found = []
    for cand in range((1 << m) + 1, 1 << (m + 1), 2):
        if not _is_irreducible(cand):
            continue
        if _x_order(cand, m) == (1 << m) - 1:
            found.append(cand)
            if len(found) == count:
                break
    if len(found) < count:
        raise ValueError(f"fewer than {count} primitive polynomials of degree {m}")
    return found


@dataclass(frozen=True)
class FieldTable:
    """Read-only lookup tables for one field F_{2^m}; safe to share across threads."""

    m: int
    order: int
    defining_poly: int
    exp: tuple[int, ...]  # length order-1, exp[i] = g^i for the generator g = x
    log: tuple[int, ...]  # length order, log[a] = discrete log of a; log[0] is a sentinel

    # -- scalar operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

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

    def pow_arr(self, a: np.ndarray, e: int) -> np.ndarray:
        """Elementwise a**e, with 0**0 = 1."""
        if e == 0:
            return np.ones_like(a)
        exp, log = np.array(self.exp, np.uint16), np.array(self.log, np.int64)
        return np.where(a == 0, 0, exp[(log[a] * e) % (self.order - 1)]
                        ).astype(np.uint16)

    # -- structure ----------------------------------------------------------

    def elements(self) -> range:
        return range(self.order)


@lru_cache(maxsize=None)
def build_field(m: int, poly_index: int = 0) -> FieldTable:
    """Construct the tables for F_{2^m}.

    The generator is x itself (the defining polynomial is primitive), so
    exp[i] = x^i mod defining_poly covers every nonzero element exactly once.
    """
    if not 1 <= m <= MAX_M:
        raise ValueError(f"extension degree must be in 1..{MAX_M}, got {m}")
    poly = primitive_polys(m, poly_index + 1)[poly_index]
    order = 1 << m
    exp, log = [], [0] * order
    t = 1
    for i in range(order - 1):
        exp.append(t)
        log[t] = i
        t <<= 1
        if t & order:
            t ^= poly
    if t != 1:
        raise ArithmeticError(f"polynomial {poly:#x} is not primitive for m={m}")
    return FieldTable(m=m, order=order, defining_poly=poly, exp=tuple(exp),
                      log=tuple(log))
