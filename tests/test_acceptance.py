"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines live.
Criteria 4 and 5 are long and marked slow, but run in the default suite;
the README's list of slow tests gives their measured times.
"""

import time

import pytest
from oracles import column_image_table

from curvesearch.bounds import load_lauter
from curvesearch.corpus import load_corpus, run_corpus
from curvesearch.orbit import GL3_ORDER, SieveEngine, enumerate_gl3, orbit_of
from curvesearch.polyrep import basis_size, full_mask, parse_poly
from curvesearch.search import SearchConfig, run_search

# Pinned by our verified degree-6 sieve run and confirmed exactly by the
# Burnside-lemma oracle below.
DEGREE6_ORBIT_COUNT = 1_606_431
DEGREE6_TRIVIAL_ORBITS = 85_012

ALL_FIELDS = tuple(1 << m for m in range(3, 12))

# Best smooth-model values from the reference tally whose witness curves have
# degree <= 5 (the degree-6 cells are covered by criteria 1, 3, 4).
DEGREE_LE5_BEST = {
    (16, 6): 65, (32, 4): 71, (64, 4): 118, (128, 4): 215, (256, 3): 350,
    (512, 4): 663, (1024, 3): 1211, (1024, 4): 1273, (1024, 5): 1345,
    (1024, 6): 1383, (2048, 3): 2294, (2048, 4): 2380, (2048, 5): 2422,
    (2048, 6): 2556,
}


def _emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def test_criterion1_corpus_regression():
    t0 = time.time()
    results = run_corpus()
    elapsed = time.time() - t0
    failures = [(r.entry.id, r.failures) for r in results if not r.passed]
    n = len(results)
    _emit(
        "criterion 1 (corpus regression)",
        not failures,
        f"{n - len(failures)}/{n} entries exact in {elapsed:.0f}s"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert n == 83
    assert not failures, failures
    assert elapsed < 600  # "under 10 minutes on a desktop"


def test_criterion2_bound_table_reproduction():
    table = load_lauter()
    grid = {
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
    mismatches = []
    cells = 0
    for q, row in grid.items():
        for g, want in row.items():
            cells += 1
            got, _ = table.effective(q, g)
            if got != want:
                mismatches.append((q, g, want, got))
    _emit(
        "criterion 2 (bound table)",
        not mismatches,
        f"{cells - len(mismatches)}/{cells} cells exact"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
    assert not mismatches


def test_criterion3_degree4_f64_search():
    t0 = time.time()
    records = run_search(SearchConfig(degree=4, fields=(64,)))
    hits = [
        r for r in records if r.counts[64].smooth == 113 and r.genus == (3, 3)
    ]
    ok = len(hits) == 2 and all(r.absolute == "yes" for r in hits)
    _emit(
        "criterion 3 (degree-4/F64 search)",
        ok,
        f"{len(hits)} orbit-inequivalent 113-point genus-[3,3] quartics "
        f"in {time.time() - t0:.0f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion4_degree6_sieve_scale():
    t0 = time.time()
    engine = SieveEngine(6)
    total = trivial = size_sum = 0
    while not engine.done:
        for info in engine.run_range(1 << 22):
            total += 1
            trivial += info.trivially_reducible
            size_sum += info.orbit_size
    elapsed = time.time() - t0

    # Independent oracle: Burnside's lemma over the 168 substitution matrices,
    # each substitution built from products of linear forms.
    n = basis_size(6)
    burnside = 0
    for mat in enumerate_gl3():
        cols = [c ^ (1 << t) for t, c in enumerate(column_image_table(6, mat))]
        pivots, rank = [], 0
        for col in cols:
            cur = col
            for p, pc in pivots:
                if (cur >> p) & 1:
                    cur ^= pc
            if cur:
                pivots.append((cur.bit_length() - 1, cur))
                rank += 1
        burnside += 1 << (n - rank)
    burnside = burnside // GL3_ORDER - 1

    ok = (
        size_sum == full_mask(6)
        and 1_500_000 <= total <= 1_700_000
        and total == DEGREE6_ORBIT_COUNT == burnside
        and trivial == DEGREE6_TRIVIAL_ORBITS
        and elapsed < 7200
    )
    _emit(
        "criterion 4 (degree-6 sieve)",
        ok,
        f"{total} orbits (burnside {burnside}), {trivial} trivially reducible, "
        f"partition sum {size_sum}, {elapsed:.0f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion5_degree_le5_full_search():
    t0 = time.time()
    records = []
    for d in (1, 2, 3, 4, 5):
        # Margin 80 > the largest best-to-bound gap among the reference
        # degree <= 5 record curves (77 at (2048, 5)); the default margin 15
        # is deliberately tighter and stays configurable.
        cfg = SearchConfig(degree=d, fields=ALL_FIELDS, keep_margin=80, jobs=2)
        records.extend(run_search(cfg))
    elapsed = time.time() - t0

    for rec in records:
        for q, (n_lo, n_hi) in rec.n_range.items():
            assert rec.counts[q].smooth <= n_lo <= n_hi, rec.poly.mask_id

    missing = []
    overshoot = []
    for (q, g), best in DEGREE_LE5_BEST.items():
        hits = [
            r for r in records
            if q in r.n_range and r.n_lo(q) == best
            and r.genus.lo <= g <= r.genus.hi
        ]
        if not hits:
            missing.append((q, g, best))
        pinned_over = [
            r for r in records
            if r.genus == (g, g) and q in r.n_range and r.n_lo(q) > best
        ]
        if pinned_over:
            overshoot.append((q, g, [r.poly.mask_id for r in pinned_over]))
    # Every reference curve of degree <= 5 appears orbit-equivalently in the
    # catalog (records are keyed by orbit-minimum masks).
    catalog_masks = {(r.degree, r.mask) for r in records}
    absent = []
    for entry in load_corpus():
        f = parse_poly(entry.poly)
        if f.degree > 5:
            continue
        rep = min(p.bits for p in orbit_of(f))
        if (f.degree, rep) not in catalog_masks:
            absent.append(entry.id)

    ok = not missing and not overshoot and not absent
    _emit(
        "criterion 5 (degree <= 5 full search)",
        ok,
        f"{len(DEGREE_LE5_BEST) - len(missing)}/{len(DEGREE_LE5_BEST)} best "
        f"values reproduced over {len(records)} records in {elapsed:.0f}s"
        + (f"; missing: {missing}" if missing else "")
        + (f"; pinned overshoot: {overshoot}" if overshoot else "")
        + (f"; corpus curves absent from catalog: {absent}" if absent else ""),
    )
    assert ok


def test_criterion6_property_suites_present():
    # The property suites themselves live in the per-module test files and run
    # with the default pytest invocation; this records the inventory.
    import test_bounds
    import test_count
    import test_gf2m
    import test_irred
    import test_orbit
    import test_polyrep
    import test_search
    import test_singular

    inventory = {
        "gf2m": ("test_field_axioms_exhaustive_pairs",
                 "test_representation_invariance_of_counts"),
        "polyrep": ("test_encode_decode_round_trip", "test_euler_identity",
                    "test_substitution_evaluation_compatibility"),
        "orbit": ("test_group_closure", "test_orbit_count_union_find_oracle"),
        "count": ("test_counts_invariant_on_orbits",),
        "singular": ("test_factor_binary_form_against_product_oracle",
                     "test_rational_direction_count_against_factor_oracle",
                     "test_cone_type_against_factor_oracle"),
        "irred": ("test_exhaustive_degree_le4_against_product_oracle",
                  "test_parity_checks_against_trial_division",
                  "test_certificate_exact_on_conjugate_norms"),
        "bounds": ("test_bounds_monotone_in_genus_and_field",
                   "test_floor_two_sqrt_q_is_exact"),
        "search": ("test_parallel_catalog_identity",
                   "test_checkpoint_resume_identity"),
    }
    modules = {
        "gf2m": test_gf2m, "polyrep": test_polyrep, "orbit": test_orbit,
        "count": test_count, "singular": test_singular, "irred": test_irred,
        "bounds": test_bounds, "search": test_search,
    }
    missing = [
        (mod, name)
        for mod, names in inventory.items()
        for name in names
        if not hasattr(modules[mod], name)
    ]
    _emit(
        "criterion 6 (property suites)",
        not missing,
        "all property suites present and part of the default run"
        + (f"; missing: {missing}" if missing else ""),
    )
    assert not missing
