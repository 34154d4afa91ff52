"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with `src` on PYTHONPATH. Calls the package's public
entry point `signorini.cli.run` on the generated config until the time
budget is spent, checks every call's outputs, and prints one JSON object
as its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import signorini
import signorini.cli as cli
from signorini.oracle import exact_solution

from spans import Tracer, median_metrics
from workloads import WORKLOADS, make_config


def _call(cfg, out: pathlib.Path) -> float:
    """One call of the public entry point, config to all artifacts; returns wall seconds."""
    t0 = time.perf_counter()
    cli.run(cfg, out, quiet=True)
    return time.perf_counter() - t0


def _oracle_nodes(cfg: dict) -> np.ndarray:
    """Node coordinates (node_shape + (n+1,)) rebuilt from the config alone."""
    R = cfg["R"]
    nx, ny = max(1, round(R / cfg["hx"])), max(1, round(R / cfg["hy"]))
    xs = -R + (R / nx) * np.arange(2 * nx + 1)
    ys = (R / ny) * np.arange(ny + 1)
    return np.stack(np.meshgrid(*([xs] * cfg["n"]), ys, indexing="ij"), axis=-1)


def check_outputs(workload: str, cfg: dict, out: pathlib.Path) -> tuple:
    """Output checks and accuracy of one call.

    Returns (problems, oracle_linf_err, ntilde_err); problems is a list of
    failed-check messages, empty when the call passed.
    """
    U = np.load(out / "U.npy")
    if not np.all(np.isfinite(U)):
        return ["U has non-finite entries"], None, None
    a = cfg["a"]
    ref = exact_solution(cfg["boundary"].split(":", 1)[1], a)
    oracle_err = float(np.abs(U - ref(_oracle_nodes(cfg))).max())
    points = json.loads((out / "freeboundary.json").read_text())["points"]
    if not points:
        return ["no free-boundary points classified"], None, None
    ntildes = [p["Ntilde_rmin"] for p in points if "Ntilde_rmin" in p]
    ntilde_err = max((abs(v - (3.0 - a) / 2.0) for v in ntildes), default=None)
    problems = []
    if workload == "diag2d_tilt":
        unresolved = [p["x0"] for p in points if p["class"] not in ("Regular", "Degenerate")]
        if unresolved:
            problems.append(f"unresolved points {unresolved}")
    else:
        nearest = min(points, key=lambda p: float(np.linalg.norm(p["x0"])))
        if nearest["class"] != "Regular":
            problems.append(f"point nearest the origin {nearest['x0']} is {nearest['class']}")
    return problems, oracle_err, ntilde_err


def _artifacts(out: pathlib.Path) -> tuple:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    cfg_dict = make_config(args.workload, args.seed)
    cfg = cli.ExperimentConfig.from_dict(cfg_dict)
    base = pathlib.Path(args.out)
    out = base / args.workload
    tracer = Tracer() if args.trace else None

    walls, traced_walls, layer, oracle_errs, ntilde_errs = [], [], [], [], []
    attempted = failed = 0
    # Calls continue while the next one (as long as the last) fits in the budget;
    # there is always at least one. Trace mode runs an untraced call, then the
    # same call traced.
    t_start = time.perf_counter()
    last_round = 0.0
    while not walls or time.perf_counter() - t_start + last_round <= args.seconds:
        t_round = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            shutil.rmtree(out, ignore_errors=True)
            attempted += 1
            try:
                if traced:
                    tracer.install(run_id=len(traced_walls))
                    try:
                        wall = _call(cfg, out)
                    finally:
                        tracer.uninstall()
                else:
                    wall = _call(cfg, out)
                    if not walls:  # peak of one fresh-interpreter call, before any check
                        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                problems, oerr, nerr = check_outputs(args.workload, cfg_dict, out)
            except Exception as exc:  # a failed run is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                print(f"[{args.workload}] check failed: {problems}", file=sys.stderr)
                continue
            oracle_errs.append(oerr)
            ntilde_errs.append(nerr)
            if traced:
                traced_walls.append(wall)
                m = tracer.layer_metrics()
                m["cli.artifact_files"], m["cli.artifact_bytes"] = _artifacts(out)
                layer.append(m)
            else:
                walls.append(wall)
        last_round = time.perf_counter() - t_round
        if failed and not walls:
            break

    if tracer is not None:
        spans_path = base / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run"], "spans": tracer.spans}))

    metrics = {}
    if walls:
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "oracle_linf_err": statistics.median(oracle_errs),
            "ntilde_err": statistics.median(ntilde_errs),
        }
    if layer:
        metrics.update(median_metrics(layer))
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - metrics["wall_s"]
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "calls_timed": len(walls),
        "walls": walls,
        "metrics": metrics,
        "config": cfg_dict,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "signorini": signorini.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
