"""Regression corpus: reference curves with known counts and singularities.

The corpus is a data file, not code, so every asserted value can be reviewed
line by line.  `run_corpus` re-derives everything through the ordinary
verify pipeline and compares: smooth counts exactly, singular locations and
cone-type strings exactly, genus by interval containment (exact genus
computation is out of scope), and stated smooth-model lower bounds via
N_lo >= asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .gf2m import FIELD_ORDERS
from .polyrep import parse_poly, is_trivially_reducible
from .search import CurveRecord, verify


@dataclass(frozen=True)
class SingularAssertion:
    point: tuple[int, int, int]
    cone_type: str


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    q: int
    genus: int
    poly: str
    smooth: int
    singular: tuple[SingularAssertion, ...] = ()
    n_lower: int | None = None


@dataclass
class CorpusResult:
    entry: CorpusEntry
    record: CurveRecord
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _parse_point(text: str) -> tuple[int, int, int]:
    inner = text.strip().lstrip("(").rstrip(")")
    parts = [int(p) for p in inner.split(":")]
    if len(parts) != 3:
        raise ValueError(f"bad point {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def load_corpus(path: str | Path | None = None) -> list[CorpusEntry]:
    if path is None:
        text = resources.files("curvesearch.data").joinpath("corpus.txt").read_text()
    else:
        text = Path(path).read_text()
    entries: list[CorpusEntry] = []
    current: dict | None = None

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        for key in ("q", "genus", "poly", "smooth"):
            if key not in current:
                raise ValueError(f"corpus entry {current.get('id')}: missing {key}")
        entries.append(
            CorpusEntry(
                id=current["id"],
                q=current["q"],
                genus=current["genus"],
                poly=current["poly"],
                smooth=current["smooth"],
                singular=tuple(current.get("singular", [])),
                n_lower=current.get("n_lower"),
            )
        )
        current = None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip() if raw.lstrip().startswith("#") else raw.strip()
        if not line:
            continue
        if line.startswith("["):
            flush()
            current = {"id": line.strip("[]")}
            continue
        if current is None:
            raise ValueError(f"corpus data before any [id] header: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "singular":
            point_text, _, cone = value.partition(")")
            current.setdefault("singular", []).append(
                SingularAssertion(_parse_point(point_text + ")"), cone.strip())
            )
        elif key not in ("q", "genus", "poly", "smooth", "n_lower"):
            raise ValueError(f"unknown corpus key {key!r}")
        elif key in current:
            raise ValueError(f"corpus entry {current['id']}: repeated {key}")
        else:
            current[key] = value if key == "poly" else int(value)
    flush()

    ids = [e.id for e in entries]
    for e in entries:
        if ids.count(e.id) > 1:
            raise ValueError(f"{e.id}: duplicate corpus id")
        if e.q not in FIELD_ORDERS:
            raise ValueError(f"{e.id}: unsupported field order {e.q}")
        f = parse_poly(e.poly)  # parse failures here are corpus bugs
        if f.degree > 6:
            raise ValueError(f"{e.id}: degree {f.degree} exceeds 6")
        if is_trivially_reducible(f):
            raise ValueError(f"{e.id}: trivially reducible polynomial")
    return entries


def check_entry(entry: CorpusEntry) -> CorpusResult:
    record = verify(entry.poly, entry.q)
    failures: list[str] = []

    if record.counts[entry.q].smooth != entry.smooth:
        failures.append(
            f"smooth count: expected {entry.smooth}, "
            f"got {record.counts[entry.q].smooth}"
        )
    if record.absolute != "yes":  # then the record has no analysis to check
        failures.append(f"absolute irreducibility not certified: {record.absolute}")
        return CorpusResult(entry=entry, record=record, failures=failures)

    found = {s.point: s.cone_type for s in record.singular}
    for want in entry.singular:
        got = found.get(want.point)
        if got is None:
            failures.append(f"singular point {want.point} not detected")
        elif got != want.cone_type:
            failures.append(
                f"cone type at {want.point}: expected {want.cone_type!r}, got {got!r}"
            )

    if not (record.genus.lo <= entry.genus <= record.genus.hi):
        failures.append(
            f"genus {entry.genus} outside interval "
            f"[{record.genus.lo}, {record.genus.hi}]"
        )

    if entry.n_lower is not None and record.n_lo(entry.q) < entry.n_lower:
        failures.append(
            f"N_lo {record.n_lo(entry.q)} below asserted bound {entry.n_lower}"
        )
    if record.certificate_field > 3:
        failures.append(f"certificate field k={record.certificate_field} exceeds 3")

    return CorpusResult(entry=entry, record=record, failures=failures)


def run_corpus(entries: list[CorpusEntry] | None = None) -> list[CorpusResult]:
    entries = entries if entries is not None else load_corpus()
    return [check_entry(entry) for entry in entries]
