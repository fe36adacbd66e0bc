"""GL_3(F_2) orbits and the orbit sieve of the degree-d mask space.

The sieve scans masks in ascending order over a live table with one entry
per mask.  The live table is a numpy bool array, one byte per mask, so
degree 6 holds 2^28 bytes = 256 MiB.  A mask whose entry is still set when
the scan reaches it is the minimum of its orbit and is emitted as the
orbit representative; all 168 images are then cleared.  Emission is an
intrinsic property of the mask (being its orbit's minimum), so the result
is independent of scan interleaving and of how ranges are batched, and
sieving again up to a scan position rebuilds the table left there.

The kernel applies all 168 substitutions to blocks of candidate masks via
per-matrix byte lookup tables: a degree-d substitution is F_2-linear on
masks, so the image of a mask is the XOR of per-byte precomputed images.
The candidates that are their orbits' minima are the block's
representatives, and only their images are cleared.

A block holds 512 candidates.  Each block's clearing removes the next
block's candidates that are images of representatives already found, and
most live masks are such images, so small blocks image far fewer masks:
the full degree-5 sieve images 31,016 candidates at 2^9 against 151,464 at
2^16, and the full degree-6 sieve takes half the time.  Blocks of 2^8 and
2^10 were no faster, and below that the per-block numpy overhead grows.
The (168, 512) image array is 344 KB.  A representative's orbit size is
168 over the number of matrices that fix it (orbit-stabilizer), read off
the same image block.

All of this reads the one GL_3(F_2) action table of `polyrep.gl3_table`:
the byte tables are built from it, and `orbit_of` takes all 168 images
of a mask from it in one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .polyrep import (  # enumerate_gl3 is re-exported for callers of this module
    GL3_ORDER,
    PolyMask,
    basis_size,
    enumerate_gl3,
    full_mask,
    gl3_images,
    gl3_table,
    _filter_masks,
)

# Candidate masks per kernel pass (see the module docstring for the size).
BLOCK = 1 << 9


def orbit_of(f: PolyMask) -> set[PolyMask]:
    """{ f((x,y,z) M) : M in GL_3(F_2) }; size divides 168."""
    return {PolyMask(f.degree, b) for b in gl3_images(f).tolist()}


@dataclass(frozen=True)
class OrbitInfo:
    """One orbit as emitted by the sieve."""

    degree: int
    rep_bits: int  # orbit minimum (the scan representative)
    orbit_size: int
    trivially_reducible: bool  # some member fires the cheap reducibility filter

    @property
    def rep(self) -> PolyMask:
        return PolyMask(self.degree, self.rep_bits)


@lru_cache(maxsize=4)
def _byte_luts(d: int) -> np.ndarray:
    """Per-matrix, per-byte-position image tables, shape (168, nbytes, 256)."""
    n = basis_size(d)
    cols = gl3_table(d)
    luts = np.zeros((GL3_ORDER, (n + 7) // 8, 256), dtype=np.uint32)
    byte = np.arange(256)
    for t in range(n):
        # Every byte value with bit t % 8 set gains the image of monomial t.
        luts[:, t // 8, (byte & (1 << t % 8)) > 0] ^= cols[:, t:t + 1]
    return luts


class SieveEngine:
    """Range-driven orbit sieve over the full degree-d mask space.

    Owns the live table; `run_range` processes one span of the scan and
    returns the orbits whose minimum lies inside it.  `position` only
    advances when a range completes, which is the checkpoint granularity.
    """

    def __init__(self, degree: int):
        if not 1 <= degree <= 6:
            raise ValueError(f"sieve degree must be 1..6, got {degree}")
        self.degree = degree
        self.space = full_mask(degree)  # masks 1 .. space inclusive
        self.table = np.ones(self.space + 1, dtype=bool)
        self.table[0] = False
        self.position = 1

    @property
    def done(self) -> bool:
        return self.position > self.space

    def run_range(self, span: int) -> list[OrbitInfo]:
        """Process masks [position, position + span) and advance position."""
        lo = self.position
        hi = min(lo + span, self.space + 1)
        out: list[OrbitInfo] = []
        luts = _byte_luts(self.degree)
        nbytes = luts.shape[1]
        ev_mask, dx, dy, dz = _filter_masks(self.degree)
        inv_filters = [
            np.uint32(~m & 0xFFFFFFFF) for m in (ev_mask, dx, dy, dz)
        ]

        cand_all = np.flatnonzero(self.table[lo:hi]).astype(np.int64) + lo
        for start in range(0, len(cand_all), BLOCK):
            cand = cand_all[start : start + BLOCK]
            cand = cand[self.table[cand]]  # drop masks claimed by earlier blocks
            if len(cand) == 0:
                continue
            cand32 = cand.astype(np.uint32)

            imgs = np.zeros((GL3_ORDER, len(cand)), dtype=np.uint32)
            for bp in range(nbytes):
                byte = ((cand32 >> np.uint32(8 * bp)) & np.uint32(0xFF)).astype(np.intp)
                imgs ^= luts[:, bp, :][:, byte]

            orbit_min = imgs.min(axis=0)
            rep_sel = orbit_min == cand32
            reps = cand32[rep_sel]
            if len(reps):
                rimgs = np.ascontiguousarray(imgs[:, rep_sel])

                # Orbit-stabilizer: |O| = 168 / #{M : rep M = rep}.
                sizes = GL3_ORDER // np.count_nonzero(rimgs == reps, axis=0)

                triv = np.zeros(len(reps), dtype=bool)
                if self.degree >= 2:
                    for inv in inv_filters:
                        triv |= ((rimgs & inv) == 0).any(axis=0)

                for rb, sz, tv in zip(reps.tolist(), sizes.tolist(), triv.tolist()):
                    out.append(OrbitInfo(self.degree, rb, int(sz), bool(tv)))

                # Clearing only the representatives' images leaves the table
                # that clearing every candidate's would.  A live candidate
                # that is not its orbit's minimum m was not cleared by m in
                # an earlier block, and a minimum is never cleared before it
                # is scanned, so m is among this block's `reps`.
                self.table[rimgs.reshape(-1)] = False

        self.position = hi
        return out

    def pack_state(self) -> tuple[int, bytes]:
        """(position, table packed one bit per mask, LSB first)."""
        packed = np.packbits(self.table, bitorder="little")
        return self.position, packed.tobytes()


def _scan(degree: int) -> Iterator[OrbitInfo]:
    eng = SieveEngine(degree)
    while not eng.done:
        yield from eng.run_range(1 << 20)


def sieve(degree: int) -> Iterator[tuple[PolyMask, int]]:
    """Stream (representative, orbit size) for every orbit of nonzero masks,
    except orbits in which some member fires the cheap reducibility filter."""
    return ((info.rep, info.orbit_size) for info in _scan(degree)
            if not info.trivially_reducible)
