"""Pipeline orchestration: sieve -> count -> bound -> analyze -> certify.

Orbits stream out of the sieve in ascending-mask order; each is counted
over every configured field in one joint pass on its orbit-minimum mask
(updated from the previous orbit's values, since consecutive minima share
most monomials), filtered against the keep rule, and survivors get the full
analysis from those same counts, so the record's singular coordinates
match its printed polynomial.
Each counted singular point carries its degree: the analysis reads it as
the point's field of definition, and the singular points r seen over the
counted fields are counted exactly, each degree from one field that holds
it.  A record is emitted only when absolute irreducibility is certified and
some (q, g) pair inside the genus interval is within the configured margin
of the effective bound (genus 0 never qualifies).

The catalog is one JSON object per line in sieve order, the canonical
(degree, mask) order, and moves only as bytes.  Checkpoints need a catalog
file: they store the sieve scan position and the number and CRC-32 of the
catalog lines below it, and end with a CRC-32 of their own bytes.  A resume
keeps exactly the counted lines, cuts the rest, and sieves again up to the
position, discarding what it emits, so interrupted and resumed runs
converge to byte-identical files.  Checkpoints refuse to load when damaged
or under a changed configuration or Lauter table, and a resume refuses a
catalog whose lines below the position are not those the checkpoint
counted.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import struct
import warnings
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Iterable, Iterator

from .bounds import (
    BoundTable,
    GenusInconsistency,
    GenusInterval,
    genus_interval,
    load_lauter,
    smooth_model_range,
)
from .count import JointCounter, PointCount
from .gf2m import build_field
from .irred import _normal_forms, certify_absolute
# `orbit_of` is unused here; perfbench/layers.py wraps `search.orbit_of`.
from .orbit import OrbitInfo, SieveEngine, orbit_of
from .polyrep import (
    GL3_ORDER,
    PolyMask,
    format_poly,
    full_mask,
    gl3_images,
    is_trivially_reducible,
    parse_mask_id,
    parse_poly,
)
from .singular import (
    SingularPoint,
    analyze_singular_point,
    blowup_points_estimate,
    check_theorem1,
)

SUPPORTED_FIELDS = tuple(1 << m for m in range(3, 12))

CHECKPOINT_MAGIC = b"CSCHKPT4"


class ConfigError(ValueError):
    """Invalid search configuration (CLI exit code 2)."""


class CheckpointError(RuntimeError):
    """Unusable or incompatible checkpoint file (CLI exit code 3)."""


class WorkerLost(RuntimeError):
    """A pool worker died while counting (CLI exit code 4)."""


@dataclass(frozen=True)
class SearchConfig:
    degree: int
    fields: tuple[int, ...]
    keep_margin: int = 15
    jobs: int = 1
    checkpoint_path: str | None = None
    lauter_path: str | None = None
    out_path: str | None = None
    range_bits: int = 22  # sieve span per checkpoint interval
    stop_after_ranges: int | None = None  # testing hook: abort mid-run

    def __post_init__(self) -> None:
        if not 1 <= self.degree <= 6:
            raise ConfigError(f"degree must be 1..6, got {self.degree}")
        if not self.fields:
            raise ConfigError("at least one field is required")
        bad = [q for q in self.fields if q not in SUPPORTED_FIELDS]
        if bad:
            raise ConfigError(
                f"unsupported field orders {bad}; supported: {list(SUPPORTED_FIELDS)}"
            )
        if len(set(self.fields)) != len(self.fields):
            raise ConfigError("duplicate field orders")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if not -(1 << 31) <= self.keep_margin < 1 << 31:
            # a checkpoint stores the margin as a signed 32-bit integer
            raise ConfigError(
                f"keep_margin must be in -2^31..2^31-1, got {self.keep_margin}"
            )
        if self.range_bits < 0:
            raise ConfigError(f"range_bits must be >= 0, got {self.range_bits}")
        if self.stop_after_ranges is not None and self.stop_after_ranges < 1:
            raise ConfigError(
                f"stop_after_ranges must be None or >= 1, got {self.stop_after_ranges}"
            )
        if self.checkpoint_path and not self.out_path:
            # Only the catalog file holds the records below a checkpoint.
            raise ConfigError("a checkpoint needs a catalog file (out_path, --out)")
        object.__setattr__(self, "fields", tuple(sorted(self.fields)))

    @property
    def long_run(self) -> bool:
        # Degree 6 over fields past 2^9: see the warning in `run_search`.
        return self.degree == 6 and any(q > 512 for q in self.fields)


@dataclass
class SearchStats:
    """Tallies of the orbits whose minimum lies at or past a run's start
    position; a run from mask 1 counts the x-region's without scanning."""

    orbits_seen: int = 0
    orbits_trivial: int = 0
    counted: int = 0
    kept: int = 0
    dropped_threshold: int = 0
    dropped_reducible: int = 0
    dropped_inconsistent: int = 0


@dataclass(frozen=True)
class CurveRecord:
    """One catalog entry: a full per-orbit (or per-curve) analysis."""

    degree: int
    mask: int
    orbit_size: int
    counts: dict[int, PointCount]
    singular: tuple[SingularPoint, ...]
    r_distinct: int
    genus: GenusInterval
    n_range: dict[int, tuple[int, int]]
    absolute: str
    certificate_field: int | None
    witness: str | None
    flags: tuple[str, ...]
    theorem1_ok: bool | None

    @property
    def poly(self) -> PolyMask:
        return PolyMask(self.degree, self.mask)

    def n_lo(self, q: int) -> int:
        return self.n_range[q][0]

    def to_json(self) -> str:
        """The catalog line: one JSON object, keys in a fixed order, ", "
        and ": " separators, formatted directly; every string but the mask
        id goes through `json.dumps`."""
        counts = ", ".join([
            f'"{q}": {{"total": {total}, "smooth": {smooth}, "singular": '
            f'[{", ".join([f"[{x}, {y}, {z}]" for x, y, z in points])}]}}'
            for q, (_, total, smooth, points, *_) in sorted(self.counts.items())])
        singular = ", ".join([
            f'{{"q": {q}, "point": [{x}, {y}, {z}], "k": {k}, "multiplicity": {m}, '
            f'"cone_type": {_json_str(name)}, "ordinary": {_JSON_BOOL[ordinary]}}}'
            for (x, y, z), q, k, m, _, name, ordinary in self.singular])
        n_range = ", ".join([f'"{q}": [{lo}, {hi}]'
                             for q, (lo, hi) in sorted(self.n_range.items())])
        k = "null" if self.certificate_field is None else self.certificate_field
        witness = "null" if self.witness is None else json.dumps(self.witness)
        return (
            f'{{"mask": "{self.poly.mask_id}", "poly": {json.dumps(format_poly(self.poly))}, '
            f'"degree": {self.degree}, "orbit_size": {self.orbit_size}, '
            f'"counts": {{{counts}}}, "singular": [{singular}], '
            f'"r_distinct": {self.r_distinct}, '
            f'"genus": [{self.genus.lo}, {self.genus.hi}], "n_range": {{{n_range}}}, '
            f'"irreducibility": {{"absolute": {_json_str(self.absolute)}, '
            f'"k": {k}, "witness": {witness}}}, '
            f'"flags": {json.dumps(self.flags)}, '
            f'"theorem1_ok": {_JSON_BOOL[self.theorem1_ok]}}}'
        )

    @staticmethod
    def from_json(line: str | bytes) -> "CurveRecord":
        """Read one catalog line, checking the types and shapes that
        `to_json` writes and that the degree is the mask's."""
        obj = json.loads(line)
        pm = parse_mask_id(_typed(obj["mask"], str))
        _typed(obj["poly"], str)
        if _typed(obj["degree"], int) != pm.degree:
            raise ValueError(f"degree {obj['degree']} on a degree-{pm.degree} mask")
        counts = {
            int(q): PointCount(
                q=int(q),
                total=_typed(c["total"], int),
                smooth=_typed(c["smooth"], int),
                singular_points=tuple(_ints(p, 3) for p in _typed(c["singular"], list)),
            )
            for q, c in obj["counts"].items()
        }
        singular = tuple(
            SingularPoint(
                point=_ints(s["point"], 3),
                q=_typed(s["q"], int),
                k=_typed(s["k"], int),
                multiplicity=_typed(s["multiplicity"], int),
                directions=None,
                cone_type=_typed(s["cone_type"], str),
                ordinary=_typed(s["ordinary"], bool),
            )
            for s in _typed(obj["singular"], list)
        )
        irr = obj["irreducibility"]
        return CurveRecord(
            degree=pm.degree,
            mask=pm.bits,
            orbit_size=_typed(obj["orbit_size"], int),
            counts=counts,
            singular=singular,
            r_distinct=_typed(obj["r_distinct"], int),
            genus=GenusInterval(*_ints(obj["genus"], 2)),
            n_range={int(q): _ints(v, 2) for q, v in obj["n_range"].items()},
            absolute=_typed(irr["absolute"], str),
            certificate_field=_typed(irr["k"], int, nullable=True),
            witness=_typed(irr["witness"], str, nullable=True),
            flags=tuple(_typed(f, str) for f in _typed(obj["flags"], list)),
            theorem1_ok=_typed(obj["theorem1_ok"], bool, nullable=True),
        )


_JSON_BOOL = {True: "true", False: "false", None: "null"}


@lru_cache(maxsize=None)
def _json_str(text: str) -> str:
    """`json.dumps` of the strings a record repeats (cone types, verdicts)."""
    return json.dumps(text)


def _typed(value, kind: type, nullable: bool = False):
    """`value`, whose JSON type must be `kind`, or null where `nullable` (a
    bool is no int here)."""
    if type(value) is not kind and not (nullable and value is None):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _ints(value, n: int) -> tuple[int, ...]:
    """A JSON list of n integers (no bools), as a tuple."""
    if type(value) is not list or len(value) != n:
        raise TypeError(f"expected {n} integers, got {value!r}")
    for v in value:
        if type(v) is not int:
            raise TypeError(f"expected {n} integers, got {value!r}")
    return tuple(value)


# -- per-curve analysis ---------------------------------------------------------


def distinct_singular_points(counts: dict[int, PointCount]
                             ) -> list[tuple[int, tuple[int, int, int]]]:
    """The singular points seen over the counted fields, each once, as
    (q, point) pairs: the points of each degree k are read from the first
    field (ascending q) that holds one.  A degree-k point is
    F_{2^M}-rational iff k | M, so every such field lists the same ones."""
    first: dict[int, int] = {}
    return [(q, p) for q in sorted(counts)
            for p, k in zip(counts[q].singular_points, counts[q].singular_degrees)
            if first.setdefault(k, q) == q]


class CurvePipeline:
    """Analysis of single curves over a fixed field set.

    `joint` counts a curve over every field in one pass (see
    `count.JointCounter`), and `counters` are its per-field counters, which
    tally each field's share of that pass.  The joint pass keeps the last
    curve's values, so a pipeline counts fastest in sieve order; forked
    workers each keep their own.
    """

    def __init__(self, fields: Iterable[int], bound_table: BoundTable):
        self.orders = tuple(sorted(fields))
        self.bound_table = bound_table
        self.joint = JointCounter(build_field(q.bit_length() - 1)
                                  for q in self.orders)
        self.counters = self.joint.counters

    def count_all(self, f: PolyMask) -> dict[int, PointCount]:
        return self.joint.count_all(f)

    def quick_genus(self, d: int, counts: dict[int, PointCount]) -> GenusInterval:
        r = len(distinct_singular_points(counts))
        return genus_interval(d, r, {q: pc.smooth for q, pc in counts.items()})

    def meets_threshold(self, counts: dict[int, PointCount], gi: GenusInterval,
                        margin: int) -> bool:
        for q, pc in counts.items():
            for g in range(max(gi.lo, 1), gi.hi + 1):
                if pc.smooth >= self.bound_table.effective(q, g)[0] - margin:
                    return True
        return False

    def analyze(self, f: PolyMask, orbit_size: int, counts: dict[int, PointCount],
                gi: GenusInterval) -> CurveRecord | None:
        """Full record for one curve from its `count_all` counts and the
        genus interval `quick_genus` made of them; None when some N range
        crosses (the curve cannot be absolutely irreducible).

        Frobenius, (x:y:z) -> (x^2:y^2:z^2), fixes f: it keeps a singular
        point's multiplicity, cone type, ordinariness and F_q-rational
        tangent directions, which are all a `SingularPoint` holds besides
        its coordinates.  So each Frobenius orbit is analysed once per
        field, at its first listed point, and its conjugates copy that
        entry; an F_2 point's analysis is a lookup in its cone's cache."""
        flags: list[str] = []
        singular: list[SingularPoint] = []
        credited: dict[int, int] = {}
        first: dict[int, int] = {}  # degree -> the first field listing it
        mults: list[int] = []  # theorem 1's, one per distinct point
        for q in self.orders:
            field = self.counters[q].field
            credit = 0
            seen: dict[tuple, SingularPoint] = {}  # conjugates analysed so far
            for p, k in zip(counts[q].singular_points, counts[q].singular_degrees):
                s = seen.get(p)
                if s is None:
                    s = analyze_singular_point(f, p, field, k)
                    point = p
                    for _ in range(k - 1):  # the orbit's other points
                        point = tuple(field.mul(c, c) for c in point)
                        seen[point] = s._replace(point=point)
                singular.append(s)
                if first.setdefault(k, q) == q:
                    mults.append(s.multiplicity)
                lower, exact = blowup_points_estimate(s, field)
                if exact:
                    credit += lower
                else:
                    flags.append(
                        f"nonordinary-singularity q={q} point=({p[0]}:{p[1]}:{p[2]})"
                    )
            credited[q] = credit
        r = len(mults)

        n_range = {
            q: smooth_model_range(
                q, counts[q].smooth, credited[q], f.degree, r, gi.hi,
                self.bound_table,
            )
            for q in self.orders
        }

        status = certify_absolute(f, counts)
        if any(lo > hi for lo, hi in n_range.values()):
            # Both ends are sound for absolutely irreducible curves, so a
            # crossed range proves reducibility, like a crossed genus interval.
            if status.absolute == "yes":
                for q, (lo, _) in n_range.items():
                    bound, source = self.bound_table.effective(q, gi.hi)
                    if source == "lauter" and lo > bound:
                        raise ValueError(
                            f"Lauter entry N_{q}({gi.hi}) <= {bound} is below "
                            f"the {lo} points of certified curve {f.mask_id}"
                        )
                raise RuntimeError(
                    f"certified curve {f.mask_id} has N_lo > N_hi; pipeline bug"
                )
            return None
        if gi.lo < gi.hi:
            flags.append("genus-ambiguous")

        theorem1_ok = check_theorem1(mults, f.degree) if r >= 2 else None

        return CurveRecord(
            degree=f.degree,
            mask=f.bits,
            orbit_size=orbit_size,
            counts=counts,
            singular=tuple(singular),
            r_distinct=r,
            genus=gi,
            n_range=n_range,
            absolute=status.absolute,
            certificate_field=status.certificate_field,
            witness=(None if status.witness is None
                     else f"F_{{2^1}}: {format_poly(status.witness)}"),
            flags=tuple(flags),
            theorem1_ok=theorem1_ok,
        )


# -- worker pool plumbing ----------------------------------------------------------


def _process_orbits(batch: list[OrbitInfo], pipe: CurvePipeline, margin: int
                    ) -> tuple[list[CurveRecord], SearchStats]:
    """Count and keep-or-drop a batch of orbits, none trivially reducible."""
    stats = SearchStats(orbits_seen=len(batch), counted=len(batch))
    records: list[CurveRecord] = []
    for info in batch:
        counts = pipe.count_all(info.rep)
        try:
            gi = pipe.quick_genus(info.degree, counts)
        except GenusInconsistency:
            stats.dropped_inconsistent += 1
            continue
        if not pipe.meets_threshold(counts, gi, margin):
            stats.dropped_threshold += 1
            continue
        record = pipe.analyze(info.rep, info.orbit_size, counts, gi)
        if record is None:
            stats.dropped_inconsistent += 1
            continue
        if record.absolute == "reducible":
            stats.dropped_reducible += 1
            continue
        if record.theorem1_ok is False:
            raise RuntimeError(
                f"certified curve {record.poly.mask_id} violates the "
                "multiplicity-sum bound; pipeline bug"
            )
        stats.kept += 1
        records.append(record)
    return records, stats


def _encode_orbits(batch: list[OrbitInfo], pipe: CurvePipeline, margin: int
                   ) -> tuple[bytes, int, SearchStats]:
    """`_process_orbits`, with the kept records as their catalog lines:
    (lines, number kept, stats).  Workers and the jobs=1 loop both return
    this, so the parent only writes bytes."""
    records, stats = _process_orbits(batch, pipe, margin)
    text = "".join(rec.to_json() + "\n" for rec in records).encode()
    return text, len(records), stats


# Set once in each pool worker by `_init_worker`; a forked worker inherits
# the pipeline's tables instead of receiving them pickled.
_worker_args: tuple[CurvePipeline, int] | None = None


def _init_worker(pipe: CurvePipeline, margin: int, started) -> None:
    global _worker_args
    _worker_args = (pipe, margin)
    with started.get_lock():
        started.value += 1


def _pooled_results(pending, started, jobs: int) -> Iterator:
    """`pool.imap`'s results, in order.  A pool replaces a worker that dies
    but never returns its batch, so the wait polls for a respawn."""
    while True:
        try:
            yield pending.next(timeout=0.5)
        except StopIteration:
            return
        except multiprocessing.TimeoutError:
            if started.value > jobs:
                raise WorkerLost("a search worker died; run again to resume "
                                 "from the last checkpoint") from None


def _process_in_worker(batch: list[OrbitInfo]) -> tuple[bytes, int, SearchStats]:
    return _encode_orbits(batch, *_worker_args)


def _merge_stats(total: SearchStats, part: SearchStats) -> None:
    for name in vars(part):
        setattr(total, name, getattr(total, name) + getattr(part, name))


# -- checkpointing -------------------------------------------------------------------


def _lauter_digest(table: BoundTable) -> bytes:
    """SHA-256 of the loaded Lauter entries ("q g bound" lines, sorted): the
    same table read from any file has the same digest."""
    import hashlib  # loads OpenSSL (~3.5 MB RSS), which only checkpoints need

    text = "".join(f"{q} {g} {b}\n" for (q, g), b in sorted(table.lauter.items()))
    return hashlib.sha256(text.encode()).digest()


def _checkpoint_save(path: str, cfg: SearchConfig, bounds: BoundTable,
                     position: int, kept: int, crc: int) -> None:
    """`kept` records lie below the sieve's scan `position`, and `crc` is the
    CRC-32 of their catalog lines as written.  A CRC-32 of all preceding
    bytes closes the file."""
    blob = (
        CHECKPOINT_MAGIC
        + struct.pack("<BBi", cfg.degree, len(cfg.fields), cfg.keep_margin)
        + struct.pack(f"<{len(cfg.fields)}H", *cfg.fields)
        + _lauter_digest(bounds)
        + struct.pack("<QQI", position, kept, crc)
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob + struct.pack("<I", zlib.crc32(blob)))
    os.replace(tmp, path)


def _checkpoint_load(path: str, cfg: SearchConfig, bounds: BoundTable
                     ) -> tuple[int, int, int]:
    """The saved (position, kept, crc)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 6 or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: bad checkpoint magic {blob[:8]!r}, "
                              f"expected {CHECKPOINT_MAGIC!r}")
    off = len(CHECKPOINT_MAGIC)
    degree, n_fields, margin = struct.unpack_from("<BBi", blob, off)
    off += struct.calcsize("<BBi")
    tail = f"<{n_fields}H32sQQII"
    if (len(blob) != off + struct.calcsize(tail)
            or zlib.crc32(blob[:-4]) != struct.unpack_from("<I", blob, len(blob) - 4)[0]):
        raise CheckpointError(f"{path}: truncated or damaged checkpoint")
    *fields, stored_digest, position, kept, crc, _ = struct.unpack_from(tail, blob, off)
    if degree != cfg.degree or tuple(fields) != cfg.fields or margin != cfg.keep_margin:
        raise CheckpointError(
            f"{path}: checkpoint was written for degree={degree}, "
            f"fields={fields}, margin={margin}; current config differs"
        )
    if stored_digest != _lauter_digest(bounds):
        raise CheckpointError(
            f"{path}: checkpoint was written under a different Lauter table"
        )
    end = full_mask(degree) + 1
    if not 1 <= position <= end:
        raise CheckpointError(
            f"{path}: scan position {position} outside 1..{end} for degree {degree}"
        )
    return position, kept, crc


# -- the search driver ------------------------------------------------------------------


def run_search(cfg: SearchConfig, *, stats: SearchStats | None = None) -> bytes:
    """Run the full pipeline and return the catalog's bytes, one record per
    line in sieve order, which is the canonical order.  With cfg.out_path
    set, each range's lines are only appended to that file and b"" is
    returned; without it, the returned bytes are exactly that file.  With
    cfg.checkpoint_path set, progress resumes from a compatible checkpoint
    (see `_open_catalog`).

    The parent sieves; the workers count and encode.  Trivially reducible
    orbits are tallied in the parent, and only the countable ones go to the
    workers, in batches of at most 64 in sieve order; a range with none is
    not dispatched.  Each worker counts an orbit over every field in one
    joint pass, updated from the last orbit it counted (see
    `CurvePipeline`).  The parent builds the joint degree-d monomial table
    and the certificate's normal-form table, then forks the pool, whose
    workers share those pages read-only, and then drops the monomial table,
    which it never reads: it keeps only the sieve's claimed-bit table.  A
    worker the pool respawns forks without the monomial table and builds its
    own on its first count.  With jobs=1 the parent keeps the table and
    counts, encodes and writes one batch at a time.  A
    worker returns a batch's kept records as catalog lines, with their
    number and the batch's stats (`_encode_orbits`), so the parent neither
    encodes nor parses a record.  The parent sieves exactly one range
    ahead: it sieves range k + 1 while the workers count range k, then
    writes, CRCs and merges each of range k's batches as it arrives, in
    order (so it holds one batch's lines, not a range's), and checkpoints
    the scan position at the end of k, so the catalog keeps its order.

    A resume forks first and then sieves again up to the saved position,
    discarding those orbits, so the workers never map the claimed-bit pages
    the replay writes.  The sieve's output does not depend on how its scan
    is split, and the replay's clearing keeps the rest of the scan from
    imaging every mask whose orbit minimum lies below the position.

    At degree >= 2 a fresh run and a resume at or past x_end scan from
    x_end (`SieveEngine.skip_line_divisible`); a fresh run tallies the
    x-region's orbits in the range that reaches x_end, and a resume inside
    it scans from mask 1.  Ranges keep their bounds 1 + k * 2^range_bits: one
    below x_end scans nothing but counts towards `stop_after_ranges`.

    The lookahead never sieves past `stop_after_ranges`, and on an error,
    WorkerLost for a dead worker included, the pool is terminated without
    waiting for the range in flight.
    """
    if cfg.long_run:
        warnings.warn(
            "degree-6 search over fields beyond 2^9 is a long run: over the "
            "nine fields the last full run took 695 s (about 12 minutes) wall "
            "on 2 cores, 0.715 ms of worker CPU per counted orbit, and the "
            "host's speed moves these figures by up to 2x; checkpointing is "
            "recommended"
        )
    bound_table = load_lauter(cfg.lauter_path)
    pipeline = CurvePipeline(cfg.fields, bound_table)

    # The scan position to resume at, the records below it and the CRC-32
    # of their lines.
    position, kept, crc = 1, 0, 0
    if cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path):
        position, kept, crc = _checkpoint_load(cfg.checkpoint_path, cfg, bound_table)

    total_stats = stats if stats is not None else SearchStats()
    span = 1 << cfg.range_bits
    pool = None
    engine = SieveEngine(cfg.degree)
    sink = (_open_catalog(cfg.out_path, position, kept, crc) if cfg.out_path
            else io.BytesIO())
    try:
        # Every count reads its rows off the joint degree-d table (see
        # `count.JointCounter`): one table, 29.5 MB at degree 6 over the
        # nine fields.  Built before forking, workers share the parent's
        # read-only pages instead of each building their own.
        pipeline.joint.monomial_table(cfg.degree)
        _normal_forms(cfg.degree)  # the certificate's F_2 factor table, shared too
        if cfg.jobs > 1:
            ctx = multiprocessing.get_context("fork")
            started = ctx.Value("i", 0)  # workers started, respawns included
            pool = ctx.Pool(cfg.jobs, _init_worker,
                            (pipeline, cfg.keep_margin, started))
            pipeline.joint.drop_tables()  # the workers keep their pages
        skipped = (engine.skip_line_divisible() if cfg.degree > 1 and (
            position == 1 or position >= engine.x_end) else 0)
        while engine.position < position:  # in the ranges' bounds, 1 + k * span
            engine.run_range(min(span - (engine.position - 1) % span,
                                 position - engine.position))

        def sieve_range(lo: int):
            """Sieve the range from `lo` and dispatch its countable orbits:
            (trivial orbits, batches, pending results, end position).  A
            range below the engine's position scans nothing."""
            hi = min(lo + span, engine.space + 1)
            infos = (engine.run_range(hi - engine.position)
                     if hi > engine.position else [])
            countable = [info for info in infos if not info.trivially_reducible]
            batches = [countable[i: i + 64] for i in range(0, len(countable), 64)]
            pending = (_pooled_results(pool.imap(_process_in_worker, batches,
                                                 chunksize=1), started, cfg.jobs)
                       if pool is not None and batches else None)
            return (len(infos) - len(countable) + (
                skipped if lo < engine.x_end <= hi else 0), batches, pending, hi)

        ranges_done = 0
        ahead = None if engine.done else sieve_range(position)
        while ahead is not None:
            trivial, batches, pending, end = ahead
            ranges_done += 1
            stopping = ranges_done == cfg.stop_after_ranges
            ahead = None if engine.done or stopping else sieve_range(end)
            results = (pending if pending is not None
                       else (_encode_orbits(b, pipeline, cfg.keep_margin)
                             for b in batches))
            total_stats.orbits_seen += trivial
            total_stats.orbits_trivial += trivial
            for text, n, st in results:
                _merge_stats(total_stats, st)
                kept += n
                sink.write(text)
                crc = zlib.crc32(text, crc)
            sink.flush()
            if cfg.checkpoint_path:
                _checkpoint_save(cfg.checkpoint_path, cfg, bound_table, end,
                                 kept, crc)
            if stopping:
                raise InterruptedError(
                    f"stopped after {ranges_done} ranges (testing hook)"
                )
        return b"" if cfg.out_path else sink.getvalue()
    except BaseException:
        if pool is not None:
            pool.terminate()  # do not wait for the range in flight
        raise
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        sink.close()


def _open_catalog(path: str, position: int, kept: int, crc: int) -> IO[bytes]:
    """Open the catalog for appending after the `kept` lines, of CRC-32
    `crc`, that the checkpoint counted below the sieve's scan `position`,
    and cut what follows them: a torn last line, records written but not yet
    checkpointed, and on a fresh run (position 1) the old file.  Counted
    lines that are missing or differ raise CheckpointError, as does a next
    complete line below the position, a record the checkpoint did not count.
    That line is the only one parsed, and raises ValueError when malformed.
    """
    with open(path, "a+b") as fh:
        fh.seek(0)
        found = 0
        for n in range(kept):
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise CheckpointError(
                    f"{path}: {n} complete catalog lines below scan position "
                    f"{position}, but the checkpoint counted {kept}"
                )
            found = zlib.crc32(line, found)
        if found != crc:
            raise CheckpointError(
                f"{path}: the {kept} catalog lines below scan position "
                f"{position} differ from those the checkpoint counted"
            )
        keep = fh.tell()
        line = fh.readline() if position > 1 else b""
        if line.endswith(b"\n") and _parse_record(path, kept + 1, line).mask < position:
            raise CheckpointError(
                f"{path}: more catalog lines below scan position {position} "
                f"than the {kept} the checkpoint counted"
            )
        fh.truncate(keep)
    return open(path, "ab")


def _parse_record(path: str, n: int, line: str | bytes) -> CurveRecord:
    try:
        return CurveRecord.from_json(line)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"{path}: line {n}: malformed catalog record "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def finalize_catalog(records: Iterable[CurveRecord]) -> list[CurveRecord]:
    """Canonical order (degree, mask), first record wins on duplicate masks."""
    seen: dict[tuple[int, int], CurveRecord] = {}
    for rec in records:
        seen.setdefault((rec.degree, rec.mask), rec)
    return [seen[k] for k in sorted(seen)]


def write_catalog(path: str, records: list[CurveRecord]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
    os.replace(tmp, path)


def iter_catalog(path: str) -> Iterator[CurveRecord]:
    """The catalog's records one at a time, each line parsed strictly."""
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                yield _parse_record(path, n, line)


def read_catalog(path: str, *, lenient_tail: bool = False) -> list[CurveRecord]:
    """Load a catalog file; lenient_tail tolerates one torn final line left
    behind by an interrupted writer (the range it came from gets rerun)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh, 1) if ln.strip()]
    for i, (n, line) in enumerate(lines):
        try:
            out.append(_parse_record(path, n, line))
        except ValueError:
            if lenient_tail and i == len(lines) - 1:
                break
            raise
    return out


# -- single-curve verification -----------------------------------------------------------


@lru_cache(maxsize=1)
def _bundled_bounds() -> BoundTable:
    """The bundled Lauter table, parsed once per process."""
    return load_lauter(None)


@lru_cache(maxsize=None)
def _verify_pipeline(q: int) -> CurvePipeline:
    """`verify`'s pipeline over F_q under the bundled table, one per q per
    process; a single-curve analysis leaves nothing in it."""
    return CurvePipeline((q,), _bundled_bounds())


def verify(poly: str | PolyMask, q: int, *, lauter_path: str | None = None
           ) -> CurveRecord:
    """Full analysis of one curve over one field (regression entry point);
    an explicit `lauter_path` is parsed on each call."""
    if isinstance(poly, str):
        poly = poly.strip()
        f = parse_mask_id(poly) if poly.startswith("d") and ":" in poly \
            else parse_poly(poly)
    else:
        f = poly
    if not 1 <= f.degree <= 6:
        raise ConfigError(f"degree must be 1..6, got {f.degree}")
    if f.bits == 0:
        raise ConfigError("zero polynomial")
    if is_trivially_reducible(f):
        raise ConfigError(f"{format_poly(f)} is trivially reducible")
    if q not in SUPPORTED_FIELDS and q not in (2, 4):
        raise ConfigError(f"unsupported field order {q}")
    pipeline = (_verify_pipeline(q) if lauter_path is None
                else CurvePipeline((q,), load_lauter(lauter_path)))
    counts = {q: pipeline.counters[q].count(f)}
    # Orbit-stabilizer, as the sieve reads it: |O| = 168 / #{M : f M = f}.
    orbit_size = GL3_ORDER // int((gl3_images(f) == f.bits).sum())
    try:
        gi = pipeline.quick_genus(f.degree, counts)
    except GenusInconsistency:
        record = None
    else:
        record = pipeline.analyze(f, orbit_size, counts, gi)
    if record is None:
        # Surface the inconsistency as a flagged record rather than an error:
        # corpus tooling reports it, nothing downstream trusts the bounds.
        r = len(distinct_singular_points(counts))
        return CurveRecord(
            degree=f.degree, mask=f.bits, orbit_size=orbit_size,
            counts=counts, singular=(), r_distinct=r,
            genus=GenusInterval(0, (f.degree - 1) * (f.degree - 2) // 2),
            n_range={}, absolute="reducible", certificate_field=None,
            witness=None, flags=("bounds-inconsistent",), theorem1_ok=None,
        )
    return record


# -- reporting ------------------------------------------------------------------------------


def report(records: Iterable[CurveRecord], bound_table: BoundTable | None = None
           ) -> str:
    """Best-vs-bound tally over (q, g), g = 1..10, plus the ambiguous-genus
    appendix.  The records are folded one at a time, keeping only the best
    value of each (q, g) and the appendix line of each ambiguous record, so
    `records` may be a generator over a catalog file (`iter_catalog`)."""
    bound_table = bound_table or _bundled_bounds()
    genera = range(1, 11)

    seen = False
    orders: set[int] = set()
    pinned: dict[tuple[int, int], int] = {}
    ambiguous: list[tuple[tuple[int, int], str]] = []
    for rec in records:
        seen = True
        orders.update(rec.n_range)
        if rec.genus.lo == rec.genus.hi:
            g = rec.genus.lo
            for q in rec.n_range:
                key = (q, g)
                if rec.n_lo(q) > pinned.get(key, -1):
                    pinned[key] = rec.n_lo(q)
        else:
            n_parts = ", ".join(
                f"q={q}: N>={rec.n_lo(q)}" for q in sorted(rec.n_range)
            )
            ambiguous.append((
                (rec.degree, rec.mask),
                f"  {rec.poly.mask_id} genus [{rec.genus.lo}, {rec.genus.hi}] "
                f"{n_parts}",
            ))
    if not seen:
        raise ValueError("empty catalog")

    lines = []
    header = ["q".rjust(5)] + [
        f"best {g}".rjust(8) + f"bound {g}".rjust(9) + "gap".rjust(5)
        for g in genera
    ]
    lines.append(" |".join(header))
    for q in sorted(orders):
        cells = [str(q).rjust(5)]
        for g in genera:
            bound, _src = bound_table.effective(q, g)
            best = pinned.get((q, g))
            if best is None:
                cells.append("—".rjust(8) + str(bound).rjust(9) + "—".rjust(5))
            else:
                cells.append(
                    str(best).rjust(8) + str(bound).rjust(9)
                    + str(bound - best).rjust(5)
                )
        lines.append(" |".join(cells))

    if ambiguous:
        lines.append("")
        lines.append("ambiguous genus (interval not pinned; best values not tallied):")
        lines.extend(line for _, line in sorted(ambiguous, key=lambda item: item[0]))

    best_cells = sorted(k for k in pinned)
    if best_cells:
        lines.append("")
        lines.append("code parameters from pinned records (derived):")
        for q, g in best_cells:
            n = pinned[(q, g)]
            if n - 1 >= 2 * g and g >= 1:
                lines.append(
                    f"  (q={q}, g={g}, N={n}): [n, k-{g - 1}, n-k] codes for "
                    f"{2 * g} <= n <= {n - 1} and {2 * g - 2} < k < n"
                )
    return "\n".join(lines)
