"""Damaged input files through the CLI: only the documented exit codes.

Checkpoints, catalogs and Lauter files are truncated or have one bit
flipped, then fed to `cli.main`; a damaged catalog is read both by `report`
and as the `--out` file that a `search --checkpoint` resume cuts back.
Whatever the damage, the command ends with exit code 0 (the damage left a
usable file), 2 (configuration or input error) or 3 (checkpoint error); no
exception escapes.  A damaged checkpoint always exits 3, since it ends with
a CRC-32 of its own bytes.  A resume that exits 0 has rebuilt the full
catalog.
The searches are degree 3 over F_8 (a few milliseconds each), and the
examples are derandomized so that the suite stays deterministic.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvesearch.cli import main
from curvesearch.search import SearchConfig, run_search, write_catalog

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# (truncate?, position): the position is reduced modulo the byte count for a
# cut, modulo the bit count for a flip.
DAMAGE = st.tuples(st.booleans(), st.integers(min_value=0, max_value=1 << 20))
SEARCH = ["search", "--degree", "3", "--fields", "8"]


def damage(blob: bytes, cut: bool, pos: int) -> bytes:
    if cut:
        return blob[: pos % len(blob)]
    bit = pos % (8 * len(blob))
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ck = root / "ck.bin"
    with pytest.raises(InterruptedError):
        run_search(SearchConfig(degree=3, fields=(8,), range_bits=4,
                                checkpoint_path=str(ck), stop_after_ranges=1))
    cat = root / "cat.jsonl"
    write_catalog(str(cat), run_search(SearchConfig(degree=3, fields=(8,))))
    # Interrupted at scan position 113: three of the six records lie below
    # it, so the resume keeps some and appends the rest.
    part, part_ck = root / "part.jsonl", root / "part-ck.bin"
    with pytest.raises(InterruptedError):
        run_search(SearchConfig(degree=3, fields=(8,), range_bits=4,
                                checkpoint_path=str(part_ck), out_path=str(part),
                                stop_after_ranges=7))
    # (8, 1) is the genus that degree-3 records have; 14 is N_8(1).
    lauter = root / "lauter.txt"
    lauter.write_text("# q g bound\n8 1 14\n8 4 28\n16 4 46\n")
    return root, {"ck": ck.read_bytes(), "cat": cat.read_bytes(),
                  "lauter": lauter.read_bytes(), "part": part.read_bytes(),
                  "part-ck": part_ck.read_bytes()}


def _run(capsys, argv: list[str]) -> int:
    rc = main(argv)
    capsys.readouterr()
    return rc


def test_undamaged_fuzz_inputs_succeed(files, capsys):
    root, blobs = files
    for name, blob in blobs.items():
        (root / name).write_bytes(blob)
    assert _run(capsys, SEARCH + ["--checkpoint", str(root / "ck")]) == 0
    assert _run(capsys, ["report", "--catalog", str(root / "cat")]) == 0
    assert _run(capsys, SEARCH + ["--lauter", str(root / "lauter")]) == 0
    assert _run(capsys, SEARCH + ["--checkpoint", str(root / "part-ck"),
                                  "--out", str(root / "part")]) == 0
    assert (root / "part").read_bytes() == blobs["cat"]


@FUZZ
@given(DAMAGE)
def test_damaged_checkpoint_exit_codes(files, capsys, how):
    root, blobs = files
    path = root / "ck"
    path.write_bytes(damage(blobs["ck"], *how))
    assert _run(capsys, SEARCH + ["--checkpoint", str(path)]) == 3


@FUZZ
@given(DAMAGE)
def test_damaged_catalog_exit_codes(files, capsys, how):
    root, blobs = files
    path = root / "cat"
    path.write_bytes(damage(blobs["cat"], *how))
    assert _run(capsys, ["report", "--catalog", str(path)]) in (0, 2)


@FUZZ
@given(DAMAGE)
def test_damaged_lauter_file_exit_codes(files, capsys, how):
    root, blobs = files
    path = root / "lauter"
    path.write_bytes(damage(blobs["lauter"], *how))
    assert _run(capsys, SEARCH + ["--lauter", str(path)]) in (0, 2)
    assert _run(capsys, ["verify", "--poly", "x^3 + y^3 + z^3", "--field", "8",
                         "--lauter", str(path)]) in (0, 2)


@FUZZ
@given(DAMAGE)
def test_damaged_catalog_resume_exit_codes(files, capsys, how):
    # Every record of the interrupted catalog lies below the checkpoint's
    # scan position, so a cut that removes a complete record must be refused.
    root, blobs = files
    ck, path = root / "part-ck", root / "part"
    ck.write_bytes(blobs["part-ck"])
    damaged = damage(blobs["part"], *how)
    path.write_bytes(damaged)
    rc = _run(capsys, SEARCH + ["--checkpoint", str(ck), "--out", str(path)])
    assert rc in (0, 2, 3)
    cut = how[0]
    if cut and damaged.count(b"\n") < blobs["part"].count(b"\n"):
        assert rc == 3
    if rc == 0:
        assert path.read_bytes() == blobs["cat"]
