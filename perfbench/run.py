"""curvesearch benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  Every repetition runs in a fresh interpreter (perfbench/child.py),
so no module-level cache survives from one repetition to the next.

--trace 0 measures set-up time in separate processes, then repeats the
workload's entry call until S seconds have passed and it has run at least
the workload's `reps` times, and prints the end-to-end metrics as medians
over repetitions.  --trace 1 runs the entry call once untraced and once
traced (single process) and prints the per-layer metrics.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DEADLINE_S = 170.0  # every run must end within 180 s

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (no curvesearch import at module level)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}


class ChildFailed(RuntimeError):
    pass


def _start(mode: str, name: str, seed: int, tmp: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(CHILD), mode, name, str(seed), str(tmp)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its own process group, pool workers included
    )


def _finish(proc: subprocess.Popen, deadline: float) -> dict:
    """Wait for a child; on timeout or error kill its whole process group."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        _kill_group(proc)
        proc.communicate()
        raise
    finally:
        _kill_group(proc)  # stray pool workers, if any
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-3:]
        raise ChildFailed(f"child exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child(mode: str, name: str, seed: int, tmp: Path, deadline: float) -> dict:
    return _finish(_start(mode, name, seed, tmp), deadline)


def measure_setup(w: workloads.Workload, tmp: Path, deadline: float) -> list[float]:
    """Set-up samples, two fresh processes at a time (the machine has two
    cores; the heavy set-ups build several hundred MB of tables each)."""
    samples: list[float] = []
    remaining = w.setup_samples
    while remaining:
        procs = [_start("setup", w.name, 0, tmp) for _ in range(min(2, remaining))]
        for p in procs:
            samples.append(_finish(p, deadline)["setup_s"])
        remaining -= len(procs)
    return samples


def measure(w: workloads.Workload, seed: int, seconds: float, tmp: Path,
            deadline: float) -> dict:
    setup = measure_setup(w, tmp, deadline)
    reps: list[dict] = []
    t0 = time.monotonic()
    while len(reps) < w.reps or time.monotonic() - t0 < seconds:
        rep_t = time.monotonic()
        reps.append(child("run", w.name, seed, tmp, deadline))
        last = time.monotonic() - rep_t
        if time.monotonic() + last > deadline:
            break  # another repetition would not finish in time
    for n, rep in enumerate(reps):
        _report_rep(w.name, n, rep)
    med = statistics.median
    metrics = {
        "wall_s": med(r["wall_s"] for r in reps),
        "setup_s": med(setup),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "items_per_s": med(r["items"] / r["wall_s"] for r in reps),
    }
    print(f"# {w.name}: {len(reps)} repetitions, setup samples "
          + ", ".join(f"{s:.3f}" for s in setup))
    return _result(reps, metrics, END_TO_END)


def trace(w: workloads.Workload, seed: int, tmp: Path, deadline: float) -> dict:
    import layers

    plain = child("run", w.name, seed, tmp, deadline)
    traced = child("trace", w.name, seed, tmp, deadline)
    _report_rep(w.name, "untraced", plain)
    _report_rep(w.name, "traced", traced)
    m = traced["metrics"]
    jobs = plain.get("jobs", 1)
    m["search.par_eff"] = plain["cpu_s"] / (plain["wall_s"] * jobs)
    m["trace.cpu_ratio"] = traced["cpu_s"] / plain["cpu_s"]
    lat_ms = [1e3 * s for s in plain.get("latencies_s", [])]
    if lat_ms:
        m["corpus.verify_p50_ms"] = statistics.median(lat_ms)
        m["corpus.verify_tail_pct"], m["corpus.verify_tail_ms"] = layers.tail(lat_ms)
    return _result([plain, traced], m, layers.METRICS)


def _report_rep(name: str, label, rep: dict) -> None:
    line = (f"# {name} [{label}] wall {rep['wall_s']:.3f} s, cpu {rep['cpu_s']:.3f} s, "
            f"items {rep['items']}, checks {rep['attempted']} ({rep['failed']} failed)")
    print(line)
    for problem in rep.get("problems", []):
        print(f"#   {problem}")


def _result(reps: list[dict], metrics: dict, units: dict) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "curvesearch" / "__init__.py").is_file():
        print(f"error: no curvesearch sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            result = trace(w, args.seed, tmp, deadline)
        else:
            result = measure(w, args.seed, args.seconds, tmp, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    print(f"# seed {args.seed}, fail_frac {result['failed'] / result['attempted']:.6f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
