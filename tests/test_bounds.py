"""Serre/Ihara/Lauter bounds, genus intervals, smooth-model ranges."""

import math

import pytest

from curvesearch.bounds import (
    BoundTable,
    GenusInconsistency,
    genus_interval,
    ihara_bound,
    load_lauter,
    serre_bound,
    smooth_model_range,
)

# Reference grid of best-known upper bounds: cells for genus 3..10 over the nine
# fields (the second half of the grid stops at q = 512).
BOUND_GRID = {
    8: {3: 24, 4: 28, 5: 32, 6: 35, 7: 39, 8: 43, 9: 47, 10: 50},
    16: {3: 41, 4: 46, 5: 54, 6: 65, 7: 70, 8: 76, 9: 81, 10: 87},
    32: {3: 65, 4: 76, 5: 87, 6: 98, 7: 110, 8: 121, 9: 132, 10: 143},
    64: {3: 113, 4: 129, 5: 145, 6: 161, 7: 177, 8: 193, 9: 209, 10: 225},
    128: {3: 195, 4: 217, 5: 239, 6: 261, 7: 283, 8: 305, 9: 327, 10: 349},
    256: {3: 353, 4: 385, 5: 417, 6: 449, 7: 481, 8: 513, 9: 545, 10: 577},
    512: {3: 648, 4: 693, 5: 738, 6: 783, 7: 828, 8: 873, 9: 918, 10: 963},
    1024: {3: 1217, 4: 1281, 5: 1345, 6: 1409},
    2048: {3: 2319, 4: 2409, 5: 2499, 6: 2589},
}


def test_serre_bound_examples():
    assert serre_bound(8, 3) == 24
    assert serre_bound(16, 6) == 65
    assert serre_bound(1024, 5) == 1345
    for q in (8, 32, 128, 512, 2048):
        assert serre_bound(q, 0) == q + 1


def test_floor_two_sqrt_q_is_exact():
    # isqrt(4q) must equal floor(2 sqrt(q)) with no float drift.
    expected = {8: 5, 16: 8, 32: 11, 64: 16, 128: 22, 256: 32, 512: 45,
                1024: 64, 2048: 90}
    for q, want in expected.items():
        assert math.isqrt(4 * q) == want
        assert serre_bound(q, 1) - (q + 1) == want


def test_ihara_bound_examples():
    assert ihara_bound(8, 5) == 32
    assert ihara_bound(8, 7) == 39
    assert ihara_bound(16, 7) == 70
    for q in (8, 64, 2048):
        assert ihara_bound(q, 0) == q + 1


def test_bounds_monotone_in_genus_and_field():
    qs = sorted(BOUND_GRID)
    for q in qs:
        for g in range(0, 11):
            assert serre_bound(q, g) <= serre_bound(q, g + 1)
            assert ihara_bound(q, g) <= ihara_bound(q, g + 1)
    for g in range(0, 11):
        for qa, qb in zip(qs, qs[1:]):
            assert serre_bound(qa, g) <= serre_bound(qb, g)
            assert ihara_bound(qa, g) <= ihara_bound(qb, g)


def test_effective_bound_reproduces_reference_grid():
    table = load_lauter()
    for q, row in BOUND_GRID.items():
        for g, want in row.items():
            got, _src = table.effective(q, g)
            assert got == want, (q, g, want, got)


def test_effective_bound_sources():
    table = load_lauter()
    assert table.effective(8, 4) == (28, "lauter")
    assert table.effective(8, 6) == (35, "lauter")
    assert table.effective(64, 3) == (113, "serre")
    assert table.effective(8, 8) == (43, "ihara")
    assert BoundTable().effective(64, 3) == (113, "serre")


def test_lauter_loader_validation(tmp_path):
    good = tmp_path / "ok.txt"
    good.write_text("# comment\n8 4 28\n")
    assert load_lauter(good).lauter == {(8, 4): 28}

    dup = tmp_path / "dup.txt"
    dup.write_text("8 4 28\n8 4 27\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_lauter(dup)

    toobig = tmp_path / "big.txt"
    toobig.write_text("8 4 30\n")  # Serre bound is 29
    with pytest.raises(ValueError, match="exceeds"):
        load_lauter(toobig)

    malformed = tmp_path / "bad.txt"
    # A field order other than 2, 4, ..., 2048 (the typo "6 4 13" for 64)
    # and a negative bound are malformed too.
    for text in ("8 4\n", "8 4 28 1\n", "# ok\n8 x 20\n", "8 4 28\n\n8 -1 5\n",
                 "6 4 13\n", "8 4 28\n1 0 2\n", "4096 1 4200\n", "# ok\n64 0 -3\n"):
        malformed.write_text(text)
        lineno = text.count("\n")
        with pytest.raises(ValueError, match=f"^line {lineno}: expected"):
            load_lauter(malformed)


def test_genus_interval_examples():
    assert genus_interval(4, 0, {64: 113}) == (3, 3)
    assert genus_interval(5, 1, {1024: 1343}) == (5, 5)
    assert genus_interval(6, 0, {8: 9, 16: 17}) == (0, 10)
    with pytest.raises(GenusInconsistency):
        genus_interval(5, 2, {1024: 1343})
    with pytest.raises(ValueError):
        genus_interval(4, 0, {8: 100})  # more points than the plane has


def test_smooth_model_range_examples():
    table = load_lauter()
    assert smooth_model_range(1024, 1343, 2, 5, 1, 5, table) == (1345, 1345)
    assert smooth_model_range(16, 57, 2, 6, 1, 9, table) == (59, 62)
    # Smooth curve: no singular slack, capped by the bound at genus hi.
    assert smooth_model_range(64, 113, 0, 4, 0, 3, table) == (113, 113)
    assert smooth_model_range(64, 10, 0, 4, 0, 3, table) == (10, 10)
    # Two observed singular points: the pairwise-Bezout cap applies.
    assert smooth_model_range(16, 50, 4, 6, 2, 8, table) == (54, 57)
    # One multiplicity-4 ordinary singularity on a rational quintic: the cap
    # must admit all four blowup points (the r >= 2 formula would not).
    lo, hi = smooth_model_range(16, 13, 4, 5, 1, 5, table)
    assert (lo, hi) == (17, 17)


def test_bound_table_without_lauter_is_formula_minimum():
    empty = BoundTable()
    assert empty.effective(8, 4) == (min(serre_bound(8, 4), ihara_bound(8, 4)),
                                     "serre" if serre_bound(8, 4) <= ihara_bound(8, 4)
                                     else "ihara")
