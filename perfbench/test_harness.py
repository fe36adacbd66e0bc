"""Self-tests of the benchmark harness on tiny workload variants.

    python3 -m pytest perfbench/test_harness.py

They exercise the run, check and trace paths in seconds: a degree-3
search over {8, 16}, three corpus entries and a full degree-4 sieve.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

W = workloads.WORKLOADS


@pytest.fixture(scope="module")
def tiny_catalog(tmp_path_factory) -> list[str]:
    out = workloads.run_search_workload(W["tiny-search"], tmp_path_factory.mktemp("s"))
    assert out["failed"] == 0, out["problems"]
    assert out["catalog"], "the tiny search should keep some curves"
    return out["catalog"]


def _edit(line: str, **changes) -> str:
    obj = json.loads(line)
    for key, value in changes.items():
        obj[key] = value
    return json.dumps(obj)


# -- correctness oracles ----------------------------------------------------------


def test_search_matches_pinned_reference(tiny_catalog):
    assert tiny_catalog == workloads.load_reference(W["tiny-search"])


def test_tampered_reference_is_a_failure(tiny_catalog, tmp_path):
    ref = list(tiny_catalog)
    ref[0] = _edit(ref[0], r_distinct=json.loads(ref[0])["r_distinct"] + 1)
    out = workloads.run_search_workload(W["tiny-search"], tmp_path, reference=ref)
    assert out["failed"] == 1
    assert "differs" in out["problems"][0]


def test_missing_extra_and_torn_records_fail(tiny_catalog):
    ref = tiny_catalog
    assert workloads.compare_catalogs(ref[1:], ref)[1] == 1  # missing
    assert workloads.compare_catalogs(ref, ref[1:])[1] == 1  # extra
    assert workloads.compare_catalogs(ref[:-1] + ["{torn"], ref)[1] == 2


def test_only_unknown_to_yes_is_allowed(tiny_catalog):
    line = tiny_catalog[0]
    obj = json.loads(line)
    unknown = _edit(line, irreducibility={"absolute": "unknown", "k": None,
                                          "witness": None},
                    flags=obj["flags"] + ["irreducibility-unknown"])
    yes = _edit(line, irreducibility={"absolute": "yes", "k": 2, "witness": None})
    assert workloads.compare_catalogs([yes], [unknown])[1] == 0
    assert workloads.compare_catalogs([unknown], [yes])[1] == 1
    kept_flag = _edit(yes, flags=obj["flags"] + ["irreducibility-unknown"])
    assert workloads.compare_catalogs([kept_flag], [unknown])[1] == 1


def test_corpus_counts_crashes_as_failures():
    def broken(entry):
        raise RuntimeError("boom")

    out = workloads.run_corpus_workload(W["tiny-corpus"], seed=3, check=broken)
    assert (out["attempted"], out["failed"]) == (3, 3)
    assert "boom" in out["problems"][0]


def test_corpus_order_follows_the_seed():
    w = W["corpus"]
    a, b = workloads.corpus_entries(w, 1), workloads.corpus_entries(w, 2)
    assert [e.id for e in a] == [e.id for e in workloads.corpus_entries(w, 1)]
    assert [e.id for e in a] != [e.id for e in b]
    assert sorted(e.id for e in a) == sorted(e.id for e in b)


def test_full_sieve_passes_the_partition_check():
    out = workloads.run_sieve_workload(W["tiny-sieve"])
    assert out["failed"] == 0, out["problems"]
    assert out["size_sum"] == out["items"] == (1 << 15) - 1


# -- tracing -------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["tiny-search", "tiny-corpus", "tiny-sieve"])
def test_self_times_add_up_to_the_traced_wall(name, tmp_path):
    from curvesearch import search

    original = search.certify_absolute
    out = layers.traced_run(W[name], 1, tmp_path)
    assert search.certify_absolute is original, "tracer left a patch installed"
    assert out["failed"] == 0, out["problems"]
    m = out["metrics"]
    self_times = [m[f"{layer}.self_s"] for layer in layers.LAYERS]
    assert all(t >= 0 for t in self_times)
    assert m["trace.untraced_s"] >= 0
    assert sum(self_times) + m["trace.untraced_s"] == pytest.approx(m["trace.wall_s"])
    assert set(m) == set(layers.METRICS)


def test_tracer_records_parents_and_skips_calls_outside_a_root():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    t = Tracer()
    t.wrap(Box, "outer", "a", "outer", root=True)
    t.wrap(Box, "inner", "b", "inner")
    try:
        Box().inner()  # no root open: not recorded
        assert Box().outer() == 2
    finally:
        t.uninstall()
    outer, inner = t.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent) == ("inner", outer.id)
    assert t.counters["inner.calls"] == 1
    assert outer.self_s == pytest.approx(outer.duration - inner.duration)
    assert Box.inner.__qualname__.endswith("Box.inner")


# -- the runner ------------------------------------------------------------------------


def _checkout(dst: Path, with_sources: bool = True) -> Path:
    """A checkout holding BENCHMARK.json, perfbench/ and, unless
    with_sources is False, src/."""
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dst / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dst / "src", ignore=skip)
    return dst


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_every_declared_metric(trace, tmp_path):
    root = _checkout(tmp_path)
    proc = _run(root, "--workload", "tiny-sieve", "--seed", "5", "--seconds", "0.1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert not (root / ".perfbench_tmp").exists()


def test_runner_repeats_at_least_the_workload_minimum(tmp_path):
    root = _checkout(tmp_path)
    proc = _run(root, "--workload", "tiny-corpus", "--seed", "5", "--seconds", "0.1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert f"# tiny-corpus: {W['tiny-corpus'].reps} repetitions" in proc.stdout


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.METRICS)
    for m in bench["per_layer"]:
        want = "higher" if m["name"] in layers.HIGHER_IS_BETTER else "lower"
        assert m["better"] == want, m["name"]
    assert {w["name"] for w in bench["workloads"]} <= set(W)


def test_runner_fails_without_sources(tmp_path):
    root = _checkout(tmp_path, with_sources=False)
    proc = _run(root, "--workload", "d6-sieve", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
