"""One measurement process of the benchmark.

    python3 perfbench/worker.py {setup,study,trace} WORKLOAD SEED SECONDS

``run.py`` starts it with the checkout's ``src`` first on PYTHONPATH and
the BLAS and OpenMP pools pinned to one thread.  It prints one JSON
object as the last line of its standard output:

* ``setup``: the time to import ``dilsamp`` and to build the plan;
* ``study``: ``convergence_study`` with tracing off, repeated until
  SECONDS have been measured (at least twice, which also checks that the
  errors repeat), with the peak resident memory after the second study;
* ``trace``: pairs of an untraced study and a traced replay, repeated the
  same way (at least once), with the spans of every replay.
"""
from __future__ import annotations

import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
# Largest relative change of a per-level error that still counts as equal.
ERR_REL_BOUND = 1e-9

# ``workloads`` and ``tracing`` import dilsamp, so they are imported inside
# functions, after ``_setup`` has timed that import.


def _setup(name: str, seed: int):
    t0 = time.perf_counter()
    import dilsamp as ds

    import_s = time.perf_counter() - t0
    if SRC not in Path(ds.__file__).resolve().parents:
        raise RuntimeError(f"dilsamp was imported from {ds.__file__}, not {SRC}")
    import workloads

    t0 = time.perf_counter()
    plan = workloads.build(name, seed)
    plan_s = time.perf_counter() - t0
    return plan, {"import_s": import_s, "plan_s": plan_s}


def _reference(name: str, seed: int):
    import workloads

    if not workloads.has_reference(name, seed):
        return None
    return json.loads(REFERENCE.read_text())[name]


def _check(rep, ref) -> dict:
    """Verdict and, where a reference applies, the deviation from it."""
    dev = None
    if ref is not None:
        if list(rep.levels) != ref["levels"]:
            dev = math.inf
        else:
            dev = max(abs(e - r) / abs(r) for e, r in zip(rep.errors, ref["errors"]))
    return {
        "errors": list(rep.errors),
        "verdict": rep.verdict,
        "slope": rep.fitted_slope,
        "err_rel_dev": dev,
        "failed": rep.verdict != "pass" or (dev is not None and dev > ERR_REL_BOUND),
    }


def _sample(name: str, plan, ref, run: int, traced: bool) -> dict:
    """One study and, with ``traced``, one replay: first on odd runs."""
    import dilsamp as ds

    out = {}
    t0 = time.perf_counter()
    try:
        if traced and run % 2:
            out.update(_replay(name, plan, run))
        t0 = time.perf_counter()
        rep = ds.convergence_study(plan)
        out["study_s"] = time.perf_counter() - t0
        out.update(_check(rep, ref))
        if traced and not run % 2:
            out.update(_replay(name, plan, run))
        if traced:
            out["replay_matches"] = out.pop("replay_errors") == out["errors"]
            out["failed"] |= not out["replay_matches"]
    except Exception:  # a failing study is counted, and the run goes on
        out = {"study_s": time.perf_counter() - t0, "failed": True,
               "error": traceback.format_exc()}
    return out


def _replay(name: str, plan, run: int) -> dict:
    import tracing

    tracer = tracing.Tracer(name, run)
    errors, counts = tracing.replay(plan, tracer)
    return {"replay_errors": errors, "total_s": tracer.total(),
            "layer_s": dict(tracer.seconds()), "counts": dict(counts),
            "spans": tracer.spans}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _measure(name: str, plan, seed: int, seconds: float, traced: bool):
    """The samples, and the peak RSS after the second one.

    Every untraced run makes at least two studies, so the peak RSS is read
    after the second: a later study can raise it by a few MB of allocator
    fragmentation, and the number of studies depends on their speed.
    """
    ref = _reference(name, seed)
    least = 1 if traced else 2
    samples = []
    rss = None
    start = time.perf_counter()
    while len(samples) < least or (
        time.perf_counter() - start
        + statistics.median(s["study_s"] + s.get("total_s", 0.0) for s in samples)
        <= seconds
    ):
        samples.append(_sample(name, plan, ref, len(samples), traced))
        if len(samples) == 2:
            rss = _peak_rss_mb()
    return samples, rss


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration")
        or f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode not in ("setup", "study", "trace"):
        raise ValueError(f"unknown mode {mode!r}")
    plan, setup = _setup(name, seed)
    out = {"setup": setup}
    if mode != "setup":
        # The peak RSS is read before _environment imports scipy.
        out["samples"], out["peak_rss_mb"] = _measure(
            name, plan, seed, seconds, mode == "trace")
        out["env"] = _environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
