"""Traced replay of ``convergence_study``'s level loop.

The replay calls the same public functions the study calls, in the same
order, and opens a span around each call, so the time of every layer is
measured from outside the library.  Returned values are passed on
unread; work is counted through ``len`` only, apart from the live
fraction of the coefficients (see :func:`_live`).
"""
from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager

import numpy as np

import dilsamp as ds
# Not exported; used only to count the nodes of the rule the library applies.
from dilsamp._quadrature import ball_rule

# Coefficients at or below this share of the largest modulus are dead.
_LIVE_SHARE = 2.0**-52


class Tracer:
    """Spans kept in memory: name, workload, level, start, end, parent."""

    def __init__(self, workload: str, run: int):
        self.workload = workload
        self.run = run
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, level: int | None = None):
        rec = {
            "id": len(self.spans),
            "run": self.run,
            "name": name,
            "workload": self.workload,
            "level": level,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self) -> Counter:
        """Summed duration per span name."""
        out = Counter()
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def total(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)


def _taps(g: ds.Generator, lattice_size: int) -> int:
    """Generator translates summed per evaluation point (computed)."""
    if g.support_radius is None:
        return lattice_size
    return (math.floor(2 * g.support_radius) + 1) ** g.d


def _nodes(rule, d: int, lattice_size: int) -> int:
    """Ball-average quadrature nodes: lattice size times the unsplit rule."""
    if not isinstance(rule, ds.FalsifiedRule):
        return 0
    return lattice_size * len(ball_rule(d, rule.h, rule.quad)[1])


def _live(cs) -> int:
    """Coefficients whose modulus exceeds ``2**-52`` times the largest.

    The one place the harness reads coefficient values: those of a
    mapping, or anything numpy turns into an array.
    """
    vals = list(cs.values()) if isinstance(cs, Mapping) else cs
    mod = np.abs(np.asarray(vals)).ravel()
    return int(np.count_nonzero(mod > _LIVE_SHARE * mod.max()))


def replay(plan: ds.StudyPlan, tracer: Tracer):
    """Run the study's level loop and rate fit under spans.

    Returns the per-level errors, to be compared bit for bit with the
    study's, and the per-layer work counts summed over levels.
    """
    g, m, f = plan.generator, plan.dilation, plan.signal
    domain = ds.study_domain(plan)
    levels = list(range(plan.j_min, plan.j_max + 1))
    scales, errors = [], []
    counts = Counter()
    for j in levels:
        with tracer.span("level", j):
            with tracer.span("expansion.lattice", j):
                lat = ds.lattice_support(g, m, j, domain, plan.truncation_tol)
            with tracer.span("expansion.coef", j):
                cs = ds.coefficients(plan.rule, f, m, j, lat)
            with tracer.span("analysis.grid", j):
                spacing = ds.operator_norm(m.power(-j)) / plan.grid_per_scale
                pts = ds.make_grid(domain, spacing)
            with tracer.span("expansion.eval", j):
                qv = ds.evaluate(g, m, j, cs, pts)
            with tracer.span("signals.eval", j):
                fv = f.eval(pts)
            with tracer.span("analysis.lp", j):
                errors.append(ds.lp_distance(fv, qv, plan.p, spacing, g.d))
            scales.append(m.scale(j))
        counts["expansion.lattice_pts"] += len(lat)
        counts["expansion.coef_count"] += len(cs)
        counts["expansion.coef_live"] += _live(cs)
        counts["quadrature.nodes"] += _nodes(plan.rule, g.d, len(lat))
        counts["analysis.grid_pts"] += len(pts)
        counts["expansion.eval_terms"] += len(pts) * _taps(g, len(lat))
    with tracer.span("analysis.fit"):
        ds.fit_rate(scales, errors, levels=levels, skip=plan.fit_skip,
                    floor=plan.floor)
    return errors, counts
