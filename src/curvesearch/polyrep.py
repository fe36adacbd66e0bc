"""Bit-exact masks for homogeneous polynomials over F_2 in x, y, z.

A degree-d polynomial is a presence bitmask over the fixed monomial basis:
the exponent triples (i, j, k) with i + j + k = d, ordered graded-lex
descending in i, then in j, so index 0 is always x^d and the last index is
z^d.  Degree 6 has binomial(8, 2) = 28 monomials, hence 28-bit masks.

Linear substitution uses the row-vector convention: substitute(f, M) is
f((x, y, z) M), which makes substitute(substitute(f, A), B) equal to
substitute(f, B A).  Matrices are triples of 3-bit row ints (bit j of
row r is the entry M[r][j]).

Substitution is F_2-linear on masks, so the GL_3(F_2) action on degree d
is one table, `gl3_table(d)`: each basis monomial's image under each of the
168 matrices, built for all of them at once (19 KB and about 2 ms at
degree 6).  `gl3_images` XORs its columns at a mask's monomials, giving all
168 images in one call; `substitute`, `orbit_of` and the sieve read it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple

import numpy as np

from .gf2m import FieldTable

MAX_DEGREE = 6

Triple = tuple[int, int, int]
Mat3 = tuple[int, int, int]  # three 3-bit rows over F_2


class PolyMask(NamedTuple):
    degree: int
    bits: int

    def __str__(self) -> str:
        return format_poly(self)

    @property
    def mask_id(self) -> str:
        return f"d{self.degree}:0x{self.bits:08x}"


def basis_size(d: int) -> int:
    return (d + 1) * (d + 2) // 2


@lru_cache(maxsize=None)
def monomials(d: int) -> tuple[Triple, ...]:
    """The degree-d exponent triples in the fixed basis order (degree 0 allowed
    so that partial derivatives of linear forms stay representable)."""
    if not 0 <= d <= MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {d}")
    out = [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]
    assert len(out) == basis_size(d)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(d: int) -> dict[Triple, int]:
    return {t: n for n, t in enumerate(monomials(d))}


def encode(triples: Iterable[Triple]) -> PolyMask:
    """Bitmask of a monomial list; rejects mixed degrees and duplicates."""
    triples = list(triples)
    if not triples:
        raise ValueError("empty monomial list")
    d = sum(triples[0])
    if any(min(t) < 0 for t in triples):
        raise ValueError("negative exponent")
    if any(sum(t) != d for t in triples):
        raise ValueError("mixed degrees in monomial list")
    idx = monomial_index(d)
    bits = 0
    for t in triples:
        b = 1 << idx[t]
        if bits & b:
            raise ValueError(f"duplicate monomial {t}")
        bits |= b
    return PolyMask(d, bits)


def decode(f: PolyMask) -> list[Triple]:
    basis = monomials(f.degree)
    return [basis[n] for n in bit_indices(f.bits)]


def bit_indices(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def full_mask(d: int) -> int:
    return (1 << basis_size(d)) - 1


# -- evaluation -------------------------------------------------------------


def evaluate(f: PolyMask, point: tuple[int, int, int], field: FieldTable) -> int:
    """f(x, y, z) in the given field; bulk paths live in the count module."""
    x, y, z = point
    if x == y == z == 0:
        raise ValueError("(0, 0, 0) is not a projective point")
    acc = 0
    for i, j, k in decode(f):
        acc ^= field.mul(field.mul(field.pow(x, i), field.pow(y, j)), field.pow(z, k))
    return acc


# -- formal partial derivatives ----------------------------------------------


@lru_cache(maxsize=None)
def _partial_maps(d: int) -> tuple[tuple[int, ...], ...]:
    # For each variable v, entry t is the degree-(d-1) image mask of basis
    # monomial t (0 when the exponent is even and the term vanishes mod 2).
    lower = monomial_index(d - 1)
    maps = []
    for var in range(3):
        images = []
        for mono in monomials(d):
            e = list(mono)
            if e[var] % 2 == 0:
                images.append(0)
                continue
            e[var] -= 1
            images.append(1 << lower[tuple(e)])
        maps.append(tuple(images))
    return tuple(maps)


def partials(f: PolyMask) -> tuple[PolyMask, PolyMask, PolyMask]:
    """Formal characteristic-2 partials (f_x, f_y, f_z), each of degree d-1."""
    cols = bit_indices(f.bits)
    out = []
    for m in _partial_maps(f.degree):
        bits = 0
        for t in cols:
            bits ^= m[t]
        out.append(PolyMask(f.degree - 1, bits))
    return tuple(out)  # type: ignore[return-value]


# -- linear substitution ------------------------------------------------------

GL3_ORDER = 168  # (2^3 - 1)(2^3 - 2)(2^3 - 4)


@lru_cache(maxsize=1)
def enumerate_gl3() -> tuple[Mat3, ...]:
    """All 168 invertible 3x3 matrices over F_2, in ascending row order:
    each row is nonzero and outside the span of the rows before it."""
    return tuple((a, b, c) for a, b, c in product(range(1, 8), repeat=3)
                 if b != a and c not in (a, b, a ^ b))


@lru_cache(maxsize=None)
def gl3_table(d: int) -> np.ndarray:
    """Image mask of each degree-d basis monomial under v -> v M, for every M
    of `enumerate_gl3()`: shape (168, basis_size(d)), read-only uint32."""
    basis = monomials(d)
    # Column c of M is the linear form that replaces variable c: entry
    # [g, r, c] is its coefficient M_g[r][c] on variable r.
    u64 = np.uint64
    lin = (np.array(enumerate_gl3(), dtype=u64)[:, :, None]
           >> np.arange(3, dtype=u64)) & u64(1)
    # A form's coefficient of x^i y^j z^k is bit 8i + j of a uint64, one per
    # matrix, so multiplying by x, y or z shifts by 8, 1 or 0.  Each degree-e
    # monomial's image is a lower one's times a linear form: three masked,
    # shifted XORs.
    shift = np.array([8, 1, 0], dtype=u64)
    imgs = [np.ones(GL3_ORDER, dtype=u64)]
    for e in range(1, d + 1):
        lower = monomial_index(e - 1)
        nxt = []
        for mono in monomials(e):
            c = 0 if mono[0] else 1 if mono[1] else 2  # the variable divided out
            p = imgs[lower[tuple(x - (v == c) for v, x in enumerate(mono))]]
            terms = lin[:, :, c] * (p[:, None] << shift)  # the x, y and z terms
            nxt.append(np.bitwise_xor.reduce(terms, axis=1))
        imgs = nxt
    grid = np.stack(imgs, axis=1)
    table = np.zeros(grid.shape, dtype=np.uint32)
    for t, (i, j, _) in enumerate(basis):
        table |= ((grid >> u64(8 * i + j)) & u64(1)).astype(np.uint32) << np.uint32(t)
    table.setflags(write=False)
    return table


def gl3_images(f: PolyMask) -> np.ndarray:
    """The masks of f((x, y, z) M) for the 168 M of `enumerate_gl3()`, in
    that order: the XOR of the table's columns at f's monomials."""
    return np.bitwise_xor.reduce(gl3_table(f.degree)[:, bit_indices(f.bits)], axis=1)


def substitute(f: PolyMask, m: Mat3) -> PolyMask:
    """f((x, y, z) M) reduced over F_2; M must be invertible."""
    if m not in enumerate_gl3():
        raise ValueError(f"singular matrix {m}")
    row = gl3_table(f.degree)[enumerate_gl3().index(m)]
    return PolyMask(f.degree, int(np.bitwise_xor.reduce(row[bit_indices(f.bits)])))


# -- cheap reducibility filters ----------------------------------------------


@lru_cache(maxsize=None)
def _filter_masks(d: int) -> tuple[int, int, int, int]:
    all_even = 0
    div = [0, 0, 0]
    for t, mono in enumerate(monomials(d)):
        if all(e % 2 == 0 for e in mono):
            all_even |= 1 << t
        for var in range(3):
            if mono[var] >= 1:
                div[var] |= 1 << t
    return (all_even, *div)


def is_trivially_reducible(f: PolyMask) -> bool:
    """All exponents even (a perfect square mod 2) or divisible by a variable.

    Degree-1 forms never fire: dividing out the variable leaves a unit, so a
    linear form is irreducible and the filter exists only to drop reducibles.
    """
    if f.degree < 2:
        return False
    masks = _filter_masks(f.degree)
    return any(f.bits & ~m == 0 for m in masks)


# -- text and id forms ---------------------------------------------------------

_VARS = ("x", "y", "z")


@lru_cache(maxsize=None)
def _monomial_texts(d: int) -> tuple[str, ...]:
    """The catalog text of each degree-d basis monomial, such as "x^2*y"."""
    texts = []
    for mono in monomials(d):
        factors = [var if e == 1 else f"{var}^{e}"
                   for var, e in zip(_VARS, mono) if e]
        texts.append("*".join(factors) or "1")
    return tuple(texts)


def format_poly(f: PolyMask) -> str:
    """Canonical catalog form, monomials in basis order joined by " + "."""
    if f.bits == 0:
        return "0"
    texts = _monomial_texts(f.degree)
    return " + ".join([texts[n] for n in bit_indices(f.bits)])


def parse_poly(text: str) -> PolyMask:
    """Parse the canonical textual form (also accepts extra whitespace)."""
    triples = []
    for term in text.replace("-", "+").split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in polynomial text: {text!r}")
        exps = {"x": 0, "y": 0, "z": 0}
        for factor in term.split("*"):
            factor = factor.strip()
            if factor == "1":
                continue
            if "^" in factor:
                var, _, e = factor.partition("^")
                var = var.strip()
                exp = int(e)
            else:
                var, exp = factor, 1
            if var not in exps:
                raise ValueError(f"unknown variable {var!r} in {term!r}")
            exps[var] += exp
        triples.append((exps["x"], exps["y"], exps["z"]))
    return encode(triples)


def parse_mask_id(text: str) -> PolyMask:
    """Parse the "d6:0x0f00a031" serialization."""
    head, _, hexpart = text.partition(":")
    if not head.startswith("d") or not hexpart.startswith("0x"):
        raise ValueError(f"bad mask id {text!r}")
    d = int(head[1:])
    bits = int(hexpart, 16)
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"bad degree in mask id {text!r}")
    if not 1 <= bits <= full_mask(d):
        raise ValueError(f"mask bits out of range in {text!r}")
    return PolyMask(d, bits)
