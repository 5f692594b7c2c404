"""Experiment configuration: one JSON document describing a study.

The document has six sections.  ``dilation``, ``generator`` and ``signal``
are required; ``operator``, ``rule`` and ``study`` fall back to defaults
(identity operator, exact sampling, the study parameters listed in
:data:`STUDY_DEFAULTS`).  Every key is checked: unknown keys, missing
required keys, and out-of-range values raise :class:`ConfigError` with the
offending ``section.key`` path in the message.

Example::

    {
      "dilation": {"rows": [[2]]},
      "generator": {"family": "bspline4_1d", "params": "calibrate"},
      "operator": {"kind": "ball", "N": 3, "h": 0.5},
      "signal": {"kind": "gaussian"},
      "rule": {"kind": "falsified", "h": 0.5},
      "study": {"j_min": 1, "j_max": 7, "p": "inf"}
    }
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from ._quadrature import QuadSpec
from .analysis import StudyPlan
from .calibrate import CalibrationResult, solve_free_params
from .diffop import DiffOperator, ball_operator, delta_operator
from .dilation import Dilation
from .expansion import DifferentialRule, ExactRule, FalsifiedRule
from .generators import named_generators
from .signals import Signal, gaussian, named_signals

_KINKED_SIGNALS = ("laplace1d", "matern1d")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


_MISSING = object()


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return dict(obj)


def _take(sec: dict, path: str, key: str, default=_MISSING):
    if key in sec:
        return sec.pop(key)
    if default is _MISSING:
        raise ConfigError(f"{path}.{key}: required key missing")
    return default


def _reject_leftovers(sec: dict, path: str):
    if sec:
        raise ConfigError(f"{path}.{sorted(sec)[0]}: unknown key")


def _real(value, path: str, positive: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if not abs(value) <= sys.float_info.max:  # NaN fails every comparison
        raise ConfigError(f"{path}: expected a finite number")
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be positive")
    return float(value)


def _integer(value, path: str, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return value


def _choice(value, path: str, allowed: tuple):
    if value not in allowed:
        opts = ", ".join(repr(a) for a in allowed)
        raise ConfigError(f"{path}: expected one of {opts}")
    return value


def _matrix_rows(value, path: str):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of rows")
    d = len(value)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != d:
            raise ConfigError(f"{path}[{i}]: expected a row of length {d}")
        for v in row:
            _integer(v, f"{path}[{i}]")
        rows.append(tuple(int(v) for v in row))
    return tuple(rows)


def _json_number(v):
    v = complex(v)
    if v.imag == 0:
        return v.real
    return [v.real, v.imag]


def _p_label(value, path: str) -> str:
    if value in (2, "2"):
        return "2"
    if value == "inf":
        return "inf"
    raise ConfigError(f'{path}: expected "2" or "inf"')


# One check per study key, in reading order.
_STUDY_CHECKS = {
    "j_min": lambda v, path: _integer(v, path, minimum=0),
    "j_max": lambda v, path: _integer(v, path, minimum=1),
    "p": _p_label,
    "domain_halfwidth":
        lambda v, path: None if v is None else _real(v, path, positive=True),
    "grid_per_scale": lambda v, path: _integer(v, path, minimum=2),
    "truncation_tol": lambda v, path: _real(v, path, positive=True),
    "quad_order": lambda v, path: _integer(v, path, minimum=2),
    "fit_skip": lambda v, path: _integer(v, path, minimum=0),
    "slope_tolerance": lambda v, path: _real(v, path, positive=True),
}

# Study keys that StudyPlan takes as they are; p becomes a float, and
# quad_order goes to the quadrature of a falsified rule.
_PLAN_KEYS = tuple(k for k in _STUDY_CHECKS if k != "p" and hasattr(StudyPlan, k))

# The defaults of StudyPlan and QuadSpec, with p as its label.
STUDY_DEFAULTS = {
    **{k: getattr(StudyPlan, k) for k in _PLAN_KEYS},
    "p": "inf",
    "quad_order": QuadSpec.order,
}


def _plain(obj):
    """A JSON-native copy: objects rebuilt, tuples and lists as lists."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    return obj


@dataclass(frozen=True)
class ExperimentConfig:
    """The resolved document: its six sections with every default filled in.

    Values are checked and normalized: ``dilation.rows`` is a tuple of
    integer tuples, ``generator.params`` is None, ``"calibrate"``, a tuple
    or a dict of floats, reals are floats and ``study.p`` is the label
    ``"2"`` or ``"inf"``.  ``operator``, ``signal`` and ``rule`` hold only
    the keys their kind takes; ``study`` holds every key of
    :data:`STUDY_DEFAULTS`.
    """

    dilation: dict
    generator: dict
    operator: dict
    signal: dict
    rule: dict
    study: dict

    @property
    def d(self) -> int:
        return len(self.dilation["rows"])

    @property
    def p(self) -> float:
        label = self.study["p"]
        return math.inf if label == "inf" else float(label)

    def quad(self) -> QuadSpec:
        return QuadSpec(order=self.study["quad_order"])

    def build_dilation(self) -> Dilation:
        try:
            return Dilation(self.dilation["rows"])
        except ValueError as e:
            raise ConfigError(f"dilation.rows: {e}") from e

    def build_operator(self) -> DiffOperator:
        if self.operator["kind"] == "delta":
            return delta_operator(self.d)
        return ball_operator(self.d, self.operator["N"], self.operator["h"])

    def build_signal(self) -> Signal:
        if self.signal["kind"] == "gaussian":
            return gaussian(self.d)
        return named_signals[self.signal["kind"]](self.signal["offset"])

    def calibrate(self) -> CalibrationResult:
        """Solve the family's free parameters against the configured
        operator, up to the family's declared order."""
        name = self.generator["family"]
        factory = named_generators[name]
        if not factory().params:
            raise ConfigError(f"generator.family: {name} has no free parameters")
        return solve_free_params(factory, self.build_operator(), factory().sf_order)

    def build_generator(self):
        """The configured generator and its calibration result, if any."""
        name, params = self.generator["family"], self.generator["params"]
        if params == "calibrate":
            result = self.calibrate()
            return result.generator, result
        return _build_generator(name, params, self.d), None

    def build_rule(self):
        kind = self.rule["kind"]
        if kind == "exact":
            return ExactRule()
        if kind == "differential":
            return DifferentialRule(self.build_operator())
        return FalsifiedRule(self.rule["h"], quad=self.quad())

    def build_plan(self):
        """A ready-to-run study plan plus the calibration result, if any."""
        g, cal = self.build_generator()
        plan = StudyPlan(
            generator=g,
            dilation=self.build_dilation(),
            rule=self.build_rule(),
            signal=self.build_signal(),
            operator=self.build_operator(),
            p=self.p,
            **{k: self.study[k] for k in _PLAN_KEYS},
        )
        return plan, cal

    def echo(self, calibration: CalibrationResult | None = None,
             domain_halfwidth: float | None = None) -> dict:
        """JSON-safe copy of the resolved document for embedding in reports.

        ``calibration`` replaces ``"calibrate"`` with the solved values and
        ``domain_halfwidth`` the study's default of None.
        """
        doc = _plain(vars(self))
        if calibration is not None:
            doc["generator"]["params"] = [
                _json_number(v) for v in calibration.params.values()
            ]
        if domain_halfwidth is not None:
            doc["study"]["domain_halfwidth"] = domain_halfwidth
        return doc


def from_mapping(obj) -> ExperimentConfig:
    """Validate a parsed configuration document."""
    doc = _mapping(obj, "config")
    dil = _mapping(_take(doc, "config", "dilation"), "dilation")
    gen = _mapping(_take(doc, "config", "generator"), "generator")
    sig = _mapping(_take(doc, "config", "signal"), "signal")
    op = _mapping(_take(doc, "config", "operator", {"kind": "delta"}),
                  "operator")
    rl = _mapping(_take(doc, "config", "rule", {"kind": "exact"}), "rule")
    st = _mapping(_take(doc, "config", "study", {}), "study")
    _reject_leftovers(doc, "config")

    rows = _matrix_rows(_take(dil, "dilation", "rows"), "dilation.rows")
    _reject_leftovers(dil, "dilation")
    d = len(rows)

    family = _choice(_take(gen, "generator", "family"), "generator.family",
                     tuple(sorted(named_generators)))
    params = _take(gen, "generator", "params", None)
    _reject_leftovers(gen, "generator")
    default = named_generators[family]()
    if default.params and default.d != d:
        raise ConfigError(
            f"generator.family: {family} needs a {default.d}-d dilation"
        )
    params = _check_params(family, params)

    kind = _choice(_take(op, "operator", "kind", "delta"), "operator.kind",
                   ("delta", "ball"))
    operator = {"kind": kind}
    if kind == "ball":
        operator["N"] = _integer(_take(op, "operator", "N"), "operator.N",
                                 minimum=0)
        operator["h"] = _real(_take(op, "operator", "h"), "operator.h",
                              positive=True)
    _reject_leftovers(op, "operator")

    sig_kind = _choice(_take(sig, "signal", "kind"), "signal.kind",
                       tuple(sorted(named_signals)))
    offset = _take(sig, "signal", "offset", None)
    _reject_leftovers(sig, "signal")
    signal = {"kind": sig_kind}
    if sig_kind in _KINKED_SIGNALS:
        if d != 1:
            raise ConfigError(f"signal.kind: {sig_kind} needs a 1-d dilation")
        signal["offset"] = (
            0.0 if offset is None else _real(offset, "signal.offset")
        )
    elif offset is not None:
        raise ConfigError(f"signal.offset: {sig_kind} takes no offset")

    rule_kind = _choice(_take(rl, "rule", "kind", "exact"), "rule.kind",
                        ("exact", "differential", "falsified"))
    rule_h = _take(rl, "rule", "h", None)
    _reject_leftovers(rl, "rule")
    rule = {"kind": rule_kind}
    if rule_kind == "falsified":
        if rule_h is None:
            raise ConfigError("rule.h: required for the falsified rule")
        rule["h"] = _real(rule_h, "rule.h", positive=True)
        if kind != "ball":
            raise ConfigError(
                "operator.kind: falsified studies need a ball operator context"
            )
        if operator["h"] != rule["h"]:
            raise ConfigError(
                "operator.h: must match rule.h for falsified studies"
            )
    elif rule_h is not None:
        raise ConfigError(f"rule.h: the {rule_kind} rule takes no h")

    study = {
        key: check(_take(st, "study", key, STUDY_DEFAULTS[key]), f"study.{key}")
        for key, check in _STUDY_CHECKS.items()
    }
    if study["j_max"] <= study["j_min"]:
        raise ConfigError("study.j_max: must exceed study.j_min")
    _reject_leftovers(st, "study")

    return ExperimentConfig(
        dilation={"rows": rows},
        generator={"family": family, "params": params},
        operator=operator,
        signal=signal,
        rule=rule,
        study=study,
    )


def _check_params(family: str, params, path: str = "generator.params"):
    """``params`` for the named generator, checked and normalized.

    None for a plain generator; for a family ``"calibrate"``, a tuple of
    floats from a list, or a dict of floats keyed by parameter name.
    """
    names = tuple(named_generators[family]().params)
    if not names:
        if params is not None:
            raise ConfigError(f"{path}: {family} takes no parameters")
        return None
    if params is None:
        raise ConfigError(f"{path}: required for {family} ({len(names)} values)")
    if params == "calibrate":
        return "calibrate"
    if isinstance(params, list):
        if len(params) != len(names):
            raise ConfigError(f"{path}: {family} expects {len(names)} values")
        return tuple(_real(v, path) for v in params)
    if isinstance(params, dict):
        if set(params) != set(names):
            raise ConfigError(
                f"{path}: {family} expects keys {', '.join(names)}"
            )
        return {k: _real(v, f"{path}.{k}") for k, v in params.items()}
    raise ConfigError(f'{path}: expected a list, an object, or "calibrate"')


def _build_generator(name: str, params, d: int):
    """The named generator: a family's member from ``params`` checked by
    :func:`_check_params`, or a generator without parameters in ``d``
    dimensions."""
    factory = named_generators[name]
    if params is None:
        return factory(d)
    return factory(**params) if isinstance(params, dict) else factory(*params)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment document."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    return from_mapping(obj)
