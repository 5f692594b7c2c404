"""Run every workload, each in its own process, and print one table.

    python3 perfbench/table.py [--seed N] [--trace 0|1]

The workloads and the run length come from ``BENCHMARK.json``.  With
``--trace 0`` the rows are the end-to-end metrics plus the correctness
figures ``err_rel_dev`` and ``failed_frac``; with ``--trace 1`` they are
the per-layer metrics, the sum of the layer times against the untraced
``study_s`` of the same run, and the seconds of each layer at each level,
read from the spans.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def _row(name: str, unit: str, cells) -> str:
    return f"{name:26s} {unit:6s}" + "".join(f"{c:>14}" for c in cells)


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _levels(res: dict) -> None:
    """Seconds per layer and level, medians over the replays of the run."""
    by = defaultdict(list)
    for sp in res["spans"]:
        if sp["level"] is not None and sp["name"] != "level":
            by[sp["name"], sp["level"]].append(sp["end"] - sp["start"])
    levels = sorted({lv for _, lv in by})
    print(f"\n{res['workload']}: seconds per layer and level")
    print(_row("layer", "", (f"j={lv}" for lv in levels)))
    for layer in sorted({n for n, _ in by}):
        cells = (sorted(by[layer, lv])[len(by[layer, lv]) // 2] for lv in levels)
        print(_row(layer, "s", (f"{c:.4g}" for c in cells)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    results = []
    for w in workloads:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            print(f"table: workload {w} failed", file=sys.stderr)
            return 1
        out = HERE / "out" / f"{w}-seed{args.seed}-trace{args.trace}.json"
        results.append(json.loads(out.read_text()))
    print(_row("metric", "unit", workloads))
    for name, m in results[0]["metrics"].items():
        print(_row(name, m["unit"], (_fmt(r["metrics"][name]["value"]) for r in results)))
    if args.trace:
        sums = [sum(v["value"] for k, v in r["metrics"].items()
                    if k.endswith("_s") and not k.startswith(("setup.", "trace.")))
                for r in results]
        study = [r["metrics"]["trace.total_s"]["value"]
                 - r["metrics"]["trace.overhead_s"]["value"] for r in results]
        print(_row("layer sum", "s", (_fmt(s) for s in sums)))
        print(_row("study_s (untraced)", "s", (_fmt(s) for s in study)))
    print(_row("err_rel_dev", "1", (_fmt(r["err_rel_dev"]) for r in results)))
    print(_row("failed_frac", "1", (_fmt(r["failed_frac"]) for r in results)))
    if args.trace:
        for r in results:
            _levels(r)
    return 0


if __name__ == "__main__":
    sys.exit(main())
