"""Corpus loading and spot verification (the full run is the acceptance gate)."""

import pytest

from curvesearch.bounds import load_lauter
from curvesearch.corpus import check_entry, load_corpus, run_corpus
from curvesearch.polyrep import parse_poly
from curvesearch.search import SUPPORTED_FIELDS, CurvePipeline


def test_load_corpus_shape():
    entries = load_corpus()
    assert len(entries) == 83
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    by_q = {}
    for e in entries:
        by_q.setdefault(e.q, 0)
        by_q[e.q] += 1
    assert by_q == {8: 12, 16: 8, 32: 10, 64: 12, 128: 10, 256: 9, 512: 9,
                    1024: 6, 2048: 7}
    for e in entries:
        f = parse_poly(e.poly)
        assert 1 <= f.degree <= 6
        assert 0 < e.smooth <= e.q * e.q + e.q + 1


def test_every_stated_lower_bound_entry_present():
    entries = {e.id: e for e in load_corpus()}
    stated = {
        "f16-g9-1": 59, "f16-g9-2": 59, "f32-g6": 84, "f128-g6-1": 243,
        "f128-g6-2": 243, "f512-g6": 767, "f1024-g5": 1345,
        "f2048-g3-1": 2294, "f2048-g3-2": 2294,
    }
    for eid, n in stated.items():
        assert entries[eid].n_lower == n


@pytest.mark.parametrize(
    "eid",
    ["f8-g3", "f16-g6", "f16-g9-1", "f64-g4", "f128-g3", "f256-g8", "f1024-g5"],
)
def test_spot_entries(eid):
    entries = {e.id: e for e in load_corpus()}
    res = check_entry(entries[eid])
    assert res.passed, res.failures


def test_bad_corpus_file_rejected(tmp_path):
    bad = tmp_path / "corpus.txt"
    bad.write_text("[x]\nq = 8\ngenus = 1\npoly = x^6\nsmooth = 1\n")
    with pytest.raises(ValueError, match="trivially reducible"):
        load_corpus(bad)
    bad.write_text("q = 8\n")
    with pytest.raises(ValueError, match="before any"):
        load_corpus(bad)


def test_unrunnable_corpus_entries_rejected_at_load(tmp_path):
    # An entry `check_entry` could not run, or one whose id is taken, fails
    # the load with a message that names it, before any entry runs.
    path = tmp_path / "corpus.txt"
    entry = "q = {q}\ngenus = 6\npoly = x^5 + y^5 + z^5\nsmooth = 1\n"
    path.write_text("[odd]\n" + entry.format(q=3))
    with pytest.raises(ValueError, match="odd: unsupported field order 3"):
        load_corpus(path)
    path.write_text("[a]\n" + entry.format(q=8) + "[a]\n" + entry.format(q=16))
    with pytest.raises(ValueError, match="a: duplicate corpus id"):
        load_corpus(path)
    for q in (2, 4, 8, 2048):
        path.write_text("[a]\n" + entry.format(q=q))
        assert [e.q for e in load_corpus(path)] == [q]


def test_repeated_corpus_key_rejected(tmp_path):
    # Within one entry each key but `singular` is given once: a repeat fails
    # the load with the entry's id and the key, instead of the last winning.
    path = tmp_path / "corpus.txt"
    entry = ("q = 8\ngenus = 6\npoly = x^5 + y^5 + z^5\nsmooth = 1\n"
             "singular = (0:0:1) a\nsingular = (0:1:0) b\nn_lower = 1\n")
    path.write_text("[a]\n" + entry)
    assert len(load_corpus(path)[0].singular) == 2
    for key, value in (("q", "16"), ("genus", "3"), ("poly", "x^5 + y^5 + z^5"),
                       ("smooth", "3"), ("n_lower", "2")):
        path.write_text(f"[ok]\n{entry}[a]\n{entry}{key} = {value}\n")
        with pytest.raises(ValueError, match=f"corpus entry a: repeated {key}$"):
            load_corpus(path)


def test_bounds_inconsistent_entry_fails(tmp_path):
    # A curve whose genus interval crosses is not absolutely irreducible, and
    # `verify` gives it no analysis; an entry asserting a singular point and
    # a lower bound for it fails on the certificate alone, and raises nothing.
    path = tmp_path / "corpus.txt"
    path.write_text("[crossed]\nq = 8\ngenus = 1\n"
                    "poly = x^2*z + x*y^2 + x*y*z + y^2*z + y*z^2 + z^3\n"
                    "smooth = 14\nsingular = (1:1:1) u v\nn_lower = 1\n")
    (result,) = run_corpus(load_corpus(path))
    assert (result.record.n_range, result.record.flags) == ({}, ())
    assert result.failures == ["absolute irreducibility not certified: reducible"]
    assert not result.passed


def test_degree6_entries_through_the_nine_field_analysis():
    # The paper's degree-6 record curves, each counted and analysed as the
    # search does it over the nine fields (`count_all`, `quick_genus`,
    # `analyze`), not through `verify`'s one field: each record has the
    # entry's smooth count at its q, a genus interval holding the stated
    # genus, N_lo(q) at least the stated lower bound, the asserted cone
    # types, and a certified absolute irreducibility.
    pipe = CurvePipeline(SUPPORTED_FIELDS, load_lauter())
    entries = [e for e in load_corpus() if parse_poly(e.poly).degree == 6]
    assert len(entries) == 60
    for e in entries:
        f = parse_poly(e.poly)
        counts = pipe.count_all(f)
        gi = pipe.quick_genus(6, counts)
        rec = pipe.analyze(f, 1, counts, gi)
        assert rec.counts[e.q].smooth == e.smooth, e.id
        assert gi.lo <= e.genus <= gi.hi, (e.id, gi)
        if e.n_lower is not None:
            assert rec.n_lo(e.q) >= e.n_lower, e.id
        found = {s.point: s.cone_type for s in rec.singular if s.q == e.q}
        for want in e.singular:
            assert found[want.point] == want.cone_type, (e.id, want)
        assert rec.absolute == "yes", e.id
