"""signorini benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload diag1d_fine --seed 0 --seconds 60 --trace 0

Run from the root of a checkout (the package source must be in `src/`).
The workload runs in a fresh interpreter (worker.py) with BLAS threads
capped, and set-up time is the median of several fresh-interpreter
`import signorini`s. With `--trace 0` the result carries the end-to-end
metrics; with `--trace 1` a traced run wraps each module's public
functions from outside and the result carries the per-layer metrics.
The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = THREAD_CAP
    return env


def _python(args, timeout=60) -> subprocess.CompletedProcess:
    """Run a fresh interpreter to completion (killed and reaped on timeout)."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout, check=True)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter's `import signorini`."""
    code = "import time; t = time.perf_counter(); import signorini; print(time.perf_counter() - t)"
    return statistics.median(float(_python(["-c", code]).stdout) for _ in range(SETUP_REPEATS))


def import_profile() -> dict:
    """Cumulative import times (s) of signorini and scipy.interpolate from -X importtime."""
    samples = {"setup.import_s": [], "setup.import_scipy_interpolate_s": []}
    for _ in range(SETUP_REPEATS):
        err = _python(["-X", "importtime", "-c", "import signorini"]).stderr
        cum = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if m:
                cum[m.group(2)] = int(m.group(1)) * 1e-6
        samples["setup.import_s"].append(cum.get("signorini", 0.0))
        samples["setup.import_scipy_interpolate_s"].append(cum.get("scipy.interpolate", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = _python(
        [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT_DIR)],
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(versions: dict) -> dict:
    return {**versions, "nproc": os.cpu_count(),
            "thread_caps": {var: THREAD_CAP for var in THREAD_VARS}}


def _finite(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "signorini" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'signorini'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    res = run_worker(args.workload, args.seed, args.seconds, args.trace)
    metrics = dict(res["metrics"])
    if args.trace:
        metrics.update(import_profile())
    else:
        metrics["setup_s"] = setup_seconds()
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    fail_frac = res["failed"] / max(res["attempted"], 1)
    print(json.dumps({"env": environment(res["versions"]), "workload": args.workload,
                      "seed": args.seed, "config": res["config"], "walls_s": res["walls"],
                      "bench_s": round(time.perf_counter() - t0, 3)}))
    for name, unit in units.items():
        print(f"{args.workload:12s} {name:40s} {metrics.get(name)!s:>24} {unit}")
    print(f"{args.workload:12s} {'fail_frac':40s} {fail_frac:>24} 1")

    missing = [n for n in units if _finite(metrics.get(n)) is None]
    if missing:
        print(f"metrics missing or non-finite: {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0 and not missing,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": _finite(metrics.get(n)), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
