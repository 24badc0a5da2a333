"""One pass of one workload in a fresh interpreter.

    python3 perfbench/one_pass.py WORKLOAD SEED MODE SPAWNED TMPDIR

MODE is `run`, `trace` (run with tracer.py's spans installed) or `setup`
(stop once the inputs are ready, to sample set-up time alone).  SPAWNED
is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux), so set-up time covers
interpreter start, imports, bundled CSV loads and preparing the cache
directory.  Prints one JSON line with the pass's measurements; failures
of single results are reported on stderr and counted, never raised.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_items(items) -> tuple[int, str]:
    """Compute and check every item; returns (failed, digest of results)."""
    failed = 0
    digest = []
    for item in items:
        try:
            result = item.compute()
            ok = bool(item.check(result))
        except Exception:
            traceback.print_exc()
            result, ok = "raised", False
        if not ok:
            failed += 1
            print(f"perfbench: FAILED {item.label}: {result!r:.200}", file=sys.stderr)
        digest.append(f"{item.label}={result!r}")
    return failed, hashlib.sha256("\n".join(sorted(digest)).encode()).hexdigest()[:16]


def main(argv: list[str]) -> None:
    workload, seed, mode, spawned, tmp = argv
    # import the whole library here, so that imports are set-up time and
    # no workload pays them inside wall_s
    import siegelforms.cohom  # noqa: F401
    import siegelforms.harder  # noqa: F401
    import siegelforms.hecke_satake  # noqa: F401
    import siegelforms.siegel_g2  # noqa: F401

    from workloads import WORKLOADS

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install_all

        tracer = Tracer()
        install_all(tracer)
    items = WORKLOADS[workload](Path(tmp)).ordered(int(seed))
    setup_s = time.monotonic() - float(spawned)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    t0 = tracer.start_pass() if tracer else time.perf_counter()
    failed, digest = run_items(items)
    wall_s = time.perf_counter() - t0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "attempted": len(items),
        "failed": failed,
        "digest": digest,
    }
    if tracer:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer, wall_s)
        out["absent"] = tracer.absent
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
