"""Benchmark of the siegelforms workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass runs one workload
(see workloads.py) single-threaded in a fresh interpreter, so no
`lru_cache` carries over between passes, with a temporary cache directory
under `.perfbench_tmp/` that is removed afterwards.  Passes repeat until
`--seconds` is used up; the run reports the median of each metric over
its passes.  Set-up time is short and noisy, so a run also starts
SETUP_SAMPLES interpreters that stop once their inputs are ready, and
setup_s is the median over those and the passes.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
untraced and traced passes alternate, and the metrics are the per-layer
ones from tracer.py plus trace.overhead_frac, the traced over the
untraced median wall time, minus one.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the environment, the
seed and per-pass detail.  Exits 2 without a result when the checkout has
no `src/siegelforms`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from tracer import COMPUTED, LAYER_METRICS, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

WORKLOADS = ("eigen_cold", "trace_sweep_warm", "expansions")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 3  # untraced passes per run, so that a median exists
MIN_TRACED_ROUNDS = 2  # (untraced, traced) pairs per traced run
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170  # a whole run, so that it ends within three minutes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict | None:
    """One pass in a fresh interpreter (mode: run, trace or setup); None
    when it crashed or hung."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
             mode, repr(spawned), tmp],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: pass exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_at_start": os.getloadavg(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Sample set-up, then run passes until `seconds` is used up; returns
    (set-up seconds, untraced passes, traced passes, crashed passes)."""
    least = MIN_TRACED_ROUNDS if trace else MIN_PASSES
    setups, untraced, traced, crashed = [], [], [], 0
    start = time.monotonic()

    def one(mode: str) -> None:
        nonlocal crashed
        rec = run_pass(workload, seed, mode, RUN_LIMIT_S - (time.monotonic() - start))
        if rec is None:
            crashed += 1
        elif mode == "trace":
            traced.append(rec)
        else:
            setups.append(rec["setup_s"])
            if mode == "run":
                untraced.append(rec)

    for _ in range(0 if trace else SETUP_SAMPLES):  # setup_s is not a traced metric
        one("setup")
    n = 0
    while True:
        r0 = time.monotonic()
        one("run")
        if trace:
            one("trace")
        n += 1
        took = time.monotonic() - r0
        elapsed = time.monotonic() - start
        if elapsed + took > RUN_LIMIT_S or (n >= least and elapsed + took > seconds):
            return setups, untraced, traced, crashed


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "siegelforms" / "__init__.py").is_file():
        print(f"perfbench: no siegelforms sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    try:
        setups, untraced, traced, crashed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        with contextlib.suppress(OSError):  # left if another run still uses it
            TMP_ROOT.rmdir()
    if not untraced or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes) + crashed
    failed = sum(p["failed"] for p in passes) + crashed
    digests = sorted({p["digest"] for p in passes})

    if args.trace:
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_frac"] = median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1
        metrics = {name: {"value": values[name], "unit": unit(name)} for name in LAYER_METRICS}
    else:
        metrics = {
            name: {"value": median_of(untraced, name), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        metrics["setup_s"]["value"] = statistics.median(setups)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "crashed_passes": crashed,
        "result_digests": digests,
        "failed_frac": failed / attempted,
        "wall_s_per_pass": [p["wall_s"] for p in untraced],
        "setup_s_samples": setups,
        "absent_bindings": traced[0]["absent"] if traced else [],
        "computed_not_measured": list(COMPUTED),
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
