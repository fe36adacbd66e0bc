"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED TMPDIR

MODE is `setup` (time the import plus the entry call's construction),
`run` (the entry call, untraced), `trace` (the entry call with spans,
single process) or `pin` (run unchecked and write the outputs to
reference/, from the commit whose outputs are the reference).  The result
is printed as one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

T_START = time.perf_counter()  # before curvesearch (and numpy) are imported

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main(argv: list[str]) -> int:
    mode, name, seed, tmp = argv[0], argv[1], int(argv[2]), Path(argv[3])
    w = workloads.WORKLOADS[name]
    if mode == "setup":
        workloads.setup(w)
        out = {"setup_s": time.perf_counter() - T_START}
    elif mode == "run":
        out = workloads.run(w, seed, tmp)
        out["peak_rss_mb"] = max(_rss_mb(resource.RUSAGE_SELF),
                                 _rss_mb(resource.RUSAGE_CHILDREN))
    elif mode == "pin":
        out = workloads.pin(w, seed, tmp)
    elif mode == "trace":
        import layers

        out = layers.traced_run(w, seed, tmp)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out.pop("catalog", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
