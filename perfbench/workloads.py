"""The benchmark's workloads, each a ``StudyPlan`` built through the public API.

Only ``kink1d`` depends on the seed: the seed draws the kink offset of its
Laplace signal.  The other three workloads are fixed acceptance
configurations.
"""
from __future__ import annotations

import random

import dilsamp as ds

DEFAULT_SEED = 0
DEFAULT_KINK = 1.0 / 3.0
# kink1d's finest lattice, M^-7 Z with M = 2, has 2**7 points per unit.
_FINEST = 2**7


def kink_offset(seed: int) -> float:
    """Kink position for ``kink1d``: 1/3 at the default seed.

    Other seeds put the kink in the middle half of a finest-level lattice
    cell within half a unit of the origin, so it never lies on a lattice
    point of any level.
    """
    if seed == DEFAULT_SEED:
        return DEFAULT_KINK
    rng = random.Random(seed)
    return (rng.randrange(-64, 64) + rng.uniform(0.25, 0.75)) / _FINEST


def _ball2d(seed: int) -> ds.StudyPlan:
    return ds.StudyPlan(
        generator=ds.hat(2),
        dilation=ds.dyadic(2),
        rule=ds.FalsifiedRule(0.5),
        signal=ds.gaussian(2),
        operator=ds.ball_operator(2, 2, 0.5),
        j_min=1,
        j_max=5,
    )


def _kink1d(seed: int) -> ds.StudyPlan:
    return ds.StudyPlan(
        generator=ds.hat(1),
        dilation=ds.dyadic(1),
        rule=ds.FalsifiedRule(0.5),
        signal=ds.laplace1d(kink_offset(seed)),
        operator=ds.ball_operator(1, 1, 0.5),
        mode="falsified1d",
        j_min=1,
        j_max=7,
        slope_tolerance=0.3,
    )


def _sinc1d(seed: int) -> ds.StudyPlan:
    return ds.StudyPlan(
        generator=ds.sinc_squared(1),
        dilation=ds.dyadic(1),
        rule=ds.ExactRule(),
        signal=ds.gaussian(1),
        j_min=1,
        j_max=5,
    )


def _quincunx(seed: int) -> ds.StudyPlan:
    return ds.StudyPlan(
        generator=ds.hat(2),
        dilation=ds.quincunx(),
        rule=ds.DifferentialRule(ds.ball_operator(2, 2, 0.5)),
        signal=ds.gaussian(2),
        j_min=1,
        j_max=8,
        fit_skip=4,
    )


WORKLOADS = {
    "ball2d": _ball2d,
    "kink1d": _kink1d,
    "sinc1d": _sinc1d,
    "quincunx": _quincunx,
}
SEEDED = frozenset({"kink1d"})


def build(name: str, seed: int) -> ds.StudyPlan:
    return WORKLOADS[name](seed)


def has_reference(name: str, seed: int) -> bool:
    """Whether the committed reference errors apply to this plan."""
    return name not in SEEDED or seed == DEFAULT_SEED
