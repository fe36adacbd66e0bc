"""GL_3(F_2) orbits and the orbit sieve of the degree-d mask space.

The sieve scans masks in ascending order over a claimed-bit table with one
bit per mask, LSB first: degree 6 holds 2^28 bits = 32 MiB.  The table
starts as zeros, whose pages are mapped only as the scan writes them.  A
mask whose bit is still clear when the scan reaches it is the minimum of
its orbit and is emitted as the orbit representative, after which its
images are claimed.  Emission is an intrinsic property of the mask (being
its orbit's minimum), so the result is independent of scan interleaving and
of how ranges are batched, and sieving again up to a scan position rebuilds
the table left there.

The x-divisible masks are the low basis_size(d - 1) bits, the x-region
[1, x_end) below every other mask, and an orbit's minimum lies there iff a
line divides its masks (GL_3(F_2) is transitive on the 7 F_2 lines).  So
the scan drops line-divisible masks past x_end before imaging, as none is a
minimum, and an x-region minimum claims only its images below x_end, other
minima all 168: 2.1M claims on the first 2^21 degree-6 masks, not 14.3M.
The line test XORs byte tables whose lane i holds the image's bits at or
past x_end under a matrix taking line i to x: line i divides iff it is 0.
So x-region orbits, trivially reducible, claim nothing past x_end: a scan
of degree >= 2 may start there and take their number from a verified table
(`skip_line_divisible`); at degree 1 the x-region is the line orbit.

The kernel applies all 168 substitutions to blocks of candidate masks via
per-byte lookup tables: a degree-d substitution is F_2-linear on masks, so
the image of a mask is the XOR of per-byte precomputed images.  A table
row holds one byte value's 168 images, so a block is imaged by one
contiguous row gather per mask byte.  The candidates that are their
orbits' minima are the block's representatives, and only their images are
claimed, in one fancy-index OR per bit position within a byte.

A block holds 512 candidates.  Each block's claims remove the next
block's candidates that are images of representatives already found, and
most live masks are such images, so small blocks image far fewer masks:
the full degree-5 sieve images 31,016 candidates at 2^9 against 151,464 at
2^16, and the full degree-6 sieve takes half the time.  Blocks of 2^8 and
2^10 were no faster, and below that the per-block numpy overhead grows.
The (512, 168) image array is 344 KB.  A representative's orbit size is
168 over the number of matrices that fix it (orbit-stabilizer), read off
the same image block.  Its trivial flag is read off the representative
alone: squares are GL_3(F_2)-invariant, an orbit with a member divisible
by y or z has one divisible by x (the swaps x <-> y and x <-> z lie in
GL_3(F_2)), and the x-region lies below every other mask, so some member
fires the filter iff the minimum does.

A range's live bits are unpacked 2^16 masks at a time, each sub-span's
from the table as the claims before it left it, into one int64 index per
live mask: 512 KB at most, whatever the span.  Unpacking a 2^22-mask
range at once took 32 MiB of indices in its first range and peaked a
fresh degree-6 engine at 139 MB RSS.  Emission depends only on the mask,
so the sub-spans change neither the output nor the table a range leaves.

All of this reads the one GL_3(F_2) action table of `polyrep.gl3_table`:
the byte tables are built from it, and `orbit_of` takes all 168 images
of a mask from it in one gather.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Iterator, NamedTuple

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

# Candidate masks per kernel pass, and masks per unpacking of the live bits
# (see the module docstring for both sizes).
BLOCK = 1 << 9
UNPACK = 1 << 16

# Orbits whose minimum lies in the x-region [1, x_end), by degree >= 2.
LINE_DIVISIBLE_ORBITS = {2: 2, 3: 9, 4: 64, 5: 1446, 6: 85_000}


def orbit_of(f: PolyMask) -> set[PolyMask]:
    """{ f((x,y,z) M) : M in GL_3(F_2) }; size divides 168."""
    return {PolyMask(f.degree, b) for b in gl3_images(f).tolist()}


class OrbitInfo(NamedTuple):
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
    """Per-byte-position, per-byte-value images under every matrix, shape
    (nbytes, 256, 168): a byte value's row holds its 168 images."""
    n = basis_size(d)
    cols = gl3_table(d)
    luts = np.zeros(((n + 7) // 8, 256, GL3_ORDER), dtype=np.uint32)
    byte = np.arange(256)
    for t in range(n):
        # Every byte value with bit t % 8 set gains the image of monomial t.
        luts[t // 8, (byte & (1 << t % 8)) > 0] ^= cols[:, t]
    return luts


@lru_cache(maxsize=4)
def _line_luts(d: int) -> np.ndarray:
    """Line lanes per byte position and value, shape (nbytes, 256) uint64:
    byte i holds the high bits (at or past x_end) of the image under a matrix
    taking line i + 1 to x.  Byte 7 is 0xFF at position 0 only, so it is
    0xFF in every mask's XOR and never reads as a zero lane."""
    to_x = [int(np.argmax(gl3_images(PolyMask(1, line)) == 1)) for line in range(1, 8)]
    luts = _byte_luts(d)
    lanes = np.zeros(luts.shape[:2] + (8,), dtype=np.uint8)
    lanes[..., :7] = luts[..., to_x] >> basis_size(d - 1)
    lanes[0, :, 7] = 0xFF
    return lanes.view("<u8")[..., 0]


def _line_divisible(d: int, masks: np.ndarray) -> np.ndarray:
    """Whether a line divides each degree-d mask: whether some lane of the XOR
    of its bytes' `_line_luts` entries is 0, by the exact zero-byte test."""
    luts = _line_luts(d)
    mbytes = masks.astype("<u4").view(np.uint8).reshape(-1, 4)
    acc = luts[0][mbytes[:, 0]]
    for bp in range(1, len(luts)):
        acc ^= luts[bp][mbytes[:, bp]]
    ones = np.uint64(0x0101010101010101)
    return ((acc - ones) & ~acc & (ones << np.uint64(7))) != 0


class SieveEngine:
    """Range-driven orbit sieve over the full degree-d mask space.

    Owns the claimed-bit table; `run_range` processes one span of the scan
    and returns the orbits whose minimum lies inside it.  `position` only
    advances when a range completes, which is the checkpoint granularity.
    """

    def __init__(self, degree: int):
        if not 1 <= degree <= 6:
            raise ValueError(f"sieve degree must be 1..6, got {degree}")
        self.degree = degree
        self.space = full_mask(degree)  # masks 1 .. space inclusive
        # Bit m (LSB first) is set once mask m is claimed; mask 0 never lives.
        self.table = np.zeros((self.space + 8) // 8, dtype=np.uint8)
        self.table[0] = 1
        self.position = 1
        self.x_end = 1 << basis_size(degree - 1)
        # The flag reads the minimum's all-even and x tests (see the module
        # docstring); degree 1 never fires.
        self._inv_filters = ([np.uint32(~m & 0xFFFFFFFF)
                              for m in _filter_masks(degree)[:2]]
                             if degree >= 2 else [])

    @property
    def done(self) -> bool:
        return self.position > self.space

    def skip_line_divisible(self) -> int:
        """Move a fresh degree >= 2 scan to x_end, returning the number of
        orbits it passes over, all trivially reducible (module docstring)."""
        if self.degree < 2 or self.position != 1:
            raise ValueError("only a fresh scan of degree >= 2 skips its x-region")
        self.position = self.x_end
        return LINE_DIVISIBLE_ORBITS[self.degree]

    def run_range(self, span: int) -> list[OrbitInfo]:
        """Process masks [position, position + span) and advance position."""
        if span < 1:
            raise ValueError(f"sieve span must be positive, got {span}")
        lo = self.position
        hi = min(lo + span, self.space + 1)
        out: list[OrbitInfo] = []
        for sub in range(lo, hi, UNPACK):
            self._run_span(sub, min(sub + UNPACK, hi), out)
        self.position = hi
        return out

    def _run_span(self, lo: int, hi: int, out: list[OrbitInfo]) -> None:
        """Sieve masks [lo, hi), appending the orbits whose minimum lies
        there to `out`."""
        luts = _byte_luts(self.degree)
        x_end = self.x_end
        first = lo & ~7
        live = np.unpackbits(~self.table[first >> 3 : (hi + 7) >> 3],
                             bitorder="little")
        cand_all = np.flatnonzero(live[lo - first : hi - first])
        cand_all += lo
        if hi > x_end:  # line-divisible masks past x_end are never minima
            cand_all = cand_all[(cand_all < x_end)
                                | ~_line_divisible(self.degree, cand_all)]
        cand_bit = np.left_shift(np.uint8(1), cand_all.astype(np.uint8) & 7)
        for start in range(0, len(cand_all), BLOCK):
            cand = cand_all[start : start + BLOCK]
            # Drop masks claimed by earlier blocks.
            claimed = self.table[cand >> 3] & cand_bit[start : start + BLOCK]
            cand = cand[claimed == 0]
            if len(cand) == 0:
                continue
            cand32 = cand.astype("<u4")

            cbytes = cand32.view(np.uint8).reshape(-1, 4)
            imgs = luts[0][cbytes[:, 0]]
            for bp in range(1, len(luts)):
                imgs ^= luts[bp][cbytes[:, bp]]

            rep_sel = imgs.min(axis=1) == cand32
            reps = cand32[rep_sel]
            if len(reps):
                rimgs = imgs[rep_sel]

                # Orbit-stabilizer: |O| = 168 / #{M : rep M = rep}.
                sizes = GL3_ORDER // np.count_nonzero(rimgs == reps[:, None], axis=1)

                triv = np.zeros(len(reps), dtype=bool)
                for inv in self._inv_filters:
                    triv |= (reps & inv) == 0
                out.extend(map(OrbitInfo, repeat(self.degree), reps.tolist(),
                               sizes.tolist(), triv.tolist()))

                # Claiming only the representatives' images leaves the table
                # that claiming every candidate's would.  A live candidate
                # that is not its orbit's minimum m was not claimed by m in
                # an earlier block, and a minimum is never claimed before it
                # is scanned, so m is among this block's `reps`.  One pass
                # per bit position: repeated bytes in a pass all set the
                # same bit, so the last write of each is correct.  An
                # x-region minimum claims only its images below x_end.
                if reps[0] < x_end:
                    rimgs = rimgs[(rimgs < x_end) | (reps >= x_end)[:, None]]
                flat = rimgs.reshape(-1)
                at = (flat >> 3).astype(np.intp)
                bit = (flat & 7).astype(np.uint8)
                for k in range(8):
                    self.table[at[bit == k]] |= np.uint8(1 << k)

    def pack_state(self) -> tuple[int, bytes]:
        """(position, live table packed one bit per mask, LSB first); a live
        bit at or past x_end may be a line-divisible mask the scan dropped,
        and after `skip_line_divisible` every bit below x_end is live."""
        return self.position, (~self.table).tobytes()


def sieve(degree: int) -> Iterator[tuple[PolyMask, int]]:
    """Stream (representative, orbit size) for every orbit of nonzero masks,
    except orbits in which some member fires the cheap reducibility filter."""
    eng = SieveEngine(degree)
    if degree > 1:
        eng.skip_line_divisible()
    while not eng.done:
        yield from ((info.rep, info.orbit_size) for info in eng.run_range(1 << 20)
                    if not info.trivially_reducible)
