"""Benchmark of dilsamp convergence studies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src``.  Every measurement runs in a fresh worker process
(``worker.py``) with the BLAS and OpenMP pools pinned to one thread:

* set-up probes, each importing ``dilsamp`` and building the plan;
* with ``--trace 0``, one process that repeats ``convergence_study`` for
  S seconds: the end-to-end metrics;
* with ``--trace 1``, one process that pairs each study with a traced
  replay of its level loop: the per-layer metrics.

Each study's verdict must be ``pass``, its per-level errors must match the
committed reference where one applies, and all errors of a run must
repeat bit for bit, the replay's included.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
spans included, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up probes, half before and half after the measuring worker.  Each
# costs about 0.3 s of wall time.
SETUP_PROBES = 20
PROBE_TIMEOUT_S = 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
COUNTS = (
    "expansion.lattice_pts",
    "expansion.coef_count",
    "quadrature.nodes",
    "analysis.grid_pts",
    "expansion.eval_terms",
)
LAYERS = (
    "expansion.lattice",
    "expansion.coef",
    "analysis.grid",
    "expansion.eval",
    "signals.eval",
    "analysis.lp",
    "analysis.fit",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _worker(mode: str, args, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(probes: list, run: dict) -> dict:
    setup = [p["import_s"] + p["plan_s"] for p in probes]
    return {
        "study_s": (statistics.median(s["study_s"] for s in run["samples"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def _per_layer(probes: list, run: dict) -> dict:
    traced = [s for s in run["samples"] if "counts" in s]
    if not traced:
        raise BenchError("no traced replay completed")
    counts = traced[0]["counts"]
    if any(s["counts"] != counts for s in traced):
        raise BenchError("work counts differ between replays")
    out = {
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "setup.plan_s": (statistics.median(p["plan_s"] for p in probes), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}_s"] = (statistics.median(s["layer_s"][layer] for s in traced), "s")
    for name in COUNTS:
        out[name] = (counts[name], "count")
    out["expansion.coef_live_frac"] = (
        counts["expansion.coef_live"] / counts["expansion.coef_count"], "ratio")
    out["trace.total_s"] = (statistics.median(s["total_s"] for s in traced), "s")
    out["trace.overhead_s"] = (
        statistics.median(s["total_s"] - s["study_s"] for s in traced), "s")
    return out


def _run(args) -> dict:
    if not (ROOT / "src" / "dilsamp" / "__init__.py").is_file():
        raise BenchError(f"no dilsamp sources under {ROOT / 'src'}")

    def probe():
        return _worker("setup", args, PROBE_TIMEOUT_S)["setup"]

    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    # The worker runs at least two studies (sinc1d's take about 13 s each),
    # and a study slower than the median can end past --seconds.
    run = _worker("trace" if args.trace else "study", args, 2 * args.seconds + 60)
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    samples = run["samples"]
    done = [s for s in samples if "errors" in s]
    failed = sum(s["failed"] for s in samples)
    repeat = all(s["errors"] == done[0]["errors"] for s in done)
    devs = [s["err_rel_dev"] for s in done if s["err_rel_dev"] is not None]
    metrics = (_per_layer if args.trace else _end_to_end)(probes, run)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(run["env"], nproc=os.cpu_count(),
                    affinity=len(os.sched_getaffinity(0)),
                    pinned_to_one_thread=list(THREAD_VARS)),
        "correct": failed == 0 and repeat,
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "errors_repeat": repeat,
        "err_rel_dev": max(devs) if devs else None,
        "slopes": [s["slope"] for s in done],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "probes": probes,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
        "spans": [sp for s in samples for sp in s.get("spans", ())],
    }


def _report(res: dict) -> None:
    env = res["env"]
    print(f"perfbench {res['workload']} seed={res['seed']} trace={res['trace']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']!r}")
    for name, m in res["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    dev = res["err_rel_dev"]
    print(f"  {'err_rel_dev':28s} "
          + (f"{dev:>16.6g} 1" if dev is not None else "     not checked (no reference for this seed)"))
    print(f"  {'failed_frac':28s} {res['failed_frac']:>16.6g} 1"
          f"   ({res['failed']} of {res['attempted']} studies)")
    for s in res["samples"]:
        if "error" in s:
            print(s["error"], file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = _run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1))
    _report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
