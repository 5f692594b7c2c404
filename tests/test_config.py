"""Experiment document validation: defaults, rejections, echo round-trips."""
import math
from dataclasses import fields

import pytest

from dilsamp import CalibrationResult, StudyPlan, bspline4_1d
from dilsamp._quadrature import QuadSpec
from dilsamp.config import STUDY_DEFAULTS, ConfigError, from_mapping, parse_config


def minimal(**sections):
    doc = {
        "dilation": {"rows": [[2]]},
        "generator": {"family": "hat"},
        "signal": {"kind": "gaussian"},
    }
    doc.update(sections)
    return doc


FALSIFIED = {
    "dilation": {"rows": [[2]]},
    "generator": {"family": "bspline4_1d", "params": "calibrate"},
    "operator": {"kind": "ball", "N": 3, "h": 0.5},
    "signal": {"kind": "gaussian"},
    "rule": {"kind": "falsified", "h": 0.5},
    "study": {"j_min": 1, "j_max": 7, "p": "inf"},
}


class TestDefaults:
    def test_minimal_document(self):
        cfg = from_mapping(minimal())
        study = cfg.study
        assert cfg.d == 1
        assert (study["j_min"], study["j_max"]) == (1, 8)
        assert cfg.p == math.inf and study["p"] == "inf"
        assert cfg.operator["kind"] == "delta"
        assert cfg.rule["kind"] == "exact"
        assert study["grid_per_scale"] == 8
        assert study["truncation_tol"] == 1e-10
        assert study["quad_order"] == 16
        assert study["fit_skip"] == 2
        assert study["slope_tolerance"] == 0.25
        assert cfg.generator["params"] is None
        assert cfg.signal == {"kind": "gaussian"}

    def test_study_defaults_match_plan_and_quadrature(self):
        plan = {f.name: f.default for f in fields(StudyPlan)}
        quad = QuadSpec()
        assert plan["p"] == math.inf
        assert STUDY_DEFAULTS == {
            **{k: plan[k] for k in STUDY_DEFAULTS if k in plan},
            "p": "inf",
            "quad_order": quad.order,
        }

    def test_numeric_p_normalizes(self):
        cfg = from_mapping(minimal(study={"p": 2}))
        assert cfg.study["p"] == "2" and cfg.p == 2.0

    def test_quad_spec_carries_order(self):
        assert from_mapping(minimal(study={"quad_order": 24})).quad() == QuadSpec(order=24)


class TestRejections:
    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.update(extra={}), "config.extra: unknown key"),
            (lambda d: d.pop("signal"), "config.signal: required"),
            (lambda d: d["study"].update(bogus=1), "study.bogus: unknown key"),
            # the ball rule is deterministic in every dimension: no seed
            (lambda d: d["study"].update(seed=0), "study.seed: unknown key"),
            (lambda d: d["dilation"].update(rows=[[2, 0]]), "dilation.rows[0]"),
            (lambda d: d["dilation"].update(rows=[[1.5]]), "expected an integer"),
            (lambda d: d["generator"].update(family="mystery"), "generator.family"),
            (lambda d: d["signal"].update(kind="gaussian", offset=0.3),
             "takes no offset"),
            (lambda d: d["study"].update(j_min=5, j_max=5), "must exceed"),
            (lambda d: d["study"].update(p="3"), 'expected "2" or "inf"'),
            (lambda d: d["study"].update(slope_tolerance=True), "expected a number"),
            (lambda d: d["study"].update(truncation_tol=-1e-10), "must be positive"),
            (lambda d: d["study"].update(grid_per_scale=1), "at least 2"),
            # json.loads reads NaN and Infinity as floats
            (lambda d: d["study"].update(domain_halfwidth=math.inf),
             "study.domain_halfwidth: expected a finite number"),
            (lambda d: d["study"].update(domain_halfwidth=math.nan),
             "study.domain_halfwidth: expected a finite number"),
            (lambda d: d["study"].update(slope_tolerance=math.nan),
             "study.slope_tolerance: expected a finite number"),
            (lambda d: d.update(operator={"kind": "ball", "N": 2, "h": math.nan},
                                rule={"kind": "falsified", "h": math.nan}),
             "operator.h: expected a finite number"),
            (lambda d: d["signal"].update(kind="laplace1d", offset=-math.inf),
             "signal.offset: expected a finite number"),
            # an integer beyond the double range has no float value
            (lambda d: d["study"].update(truncation_tol=10**400),
             "study.truncation_tol: expected a finite number"),
        ],
    )
    def test_invalid_documents(self, mutate, needle):
        doc = minimal(study={})
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            from_mapping(doc)
        assert needle in str(err.value)

    def test_plain_generator_takes_no_params(self):
        doc = minimal()
        doc["generator"]["params"] = [1.0]
        with pytest.raises(ConfigError, match="takes no parameters"):
            from_mapping(doc)

    def test_family_params_arity(self):
        doc = minimal()
        doc["generator"] = {"family": "bspline4_1d", "params": [0.0, 1.0]}
        with pytest.raises(ConfigError, match="expects 3 values"):
            from_mapping(doc)

    def test_family_params_key_set(self):
        doc = minimal()
        doc["generator"] = {"family": "bspline4_1d",
                            "params": {"b1": 0.0, "bX": 1.0, "b3": 0.0}}
        with pytest.raises(ConfigError, match="expects keys b1, b2, b3"):
            from_mapping(doc)

    def test_family_needs_matching_dimension(self):
        doc = minimal()
        doc["dilation"] = {"rows": [[2, 0], [0, 2]]}
        doc["generator"] = {"family": "bspline4_1d", "params": "calibrate"}
        with pytest.raises(ConfigError, match="needs a 1-d dilation"):
            from_mapping(doc)

    def test_kinked_signal_needs_one_dimension(self):
        doc = minimal()
        doc["dilation"] = {"rows": [[2, 0], [0, 2]]}
        doc["generator"] = {"family": "hat"}
        doc["signal"] = {"kind": "laplace1d"}
        with pytest.raises(ConfigError, match="needs a 1-d dilation"):
            from_mapping(doc)

    def test_falsified_needs_radius(self):
        doc = minimal(rule={"kind": "falsified"})
        with pytest.raises(ConfigError, match="rule.h: required"):
            from_mapping(doc)

    def test_falsified_needs_ball_context(self):
        doc = minimal(rule={"kind": "falsified", "h": 0.5})
        with pytest.raises(ConfigError, match="ball operator context"):
            from_mapping(doc)

    def test_falsified_radius_must_match_operator(self):
        doc = dict(FALSIFIED)
        doc["rule"] = {"kind": "falsified", "h": 0.4}
        with pytest.raises(ConfigError, match="must match rule.h"):
            from_mapping(doc)

    def test_exact_rule_takes_no_radius(self):
        doc = minimal(rule={"kind": "exact", "h": 0.5})
        with pytest.raises(ConfigError, match="takes no h"):
            from_mapping(doc)

    def test_ball_operator_needs_order(self):
        doc = minimal(operator={"kind": "ball", "h": 0.5})
        with pytest.raises(ConfigError, match="operator.N: required"):
            from_mapping(doc)

    def test_json_syntax_errors_carry_position(self):
        with pytest.raises(ConfigError, match="config line 1 column"):
            parse_config("{bad json")


class TestBuilders:
    def test_falsified_document_builds_a_plan(self):
        cfg = from_mapping(dict(FALSIFIED))
        plan, cal = cfg.build_plan()
        assert isinstance(cal, CalibrationResult)
        assert cal.params["b2"] == pytest.approx(2.0 / 3.0 + 2.0 * 0.25 / 3.0,
                                                 abs=1e-9)
        assert plan.operator.order == 3
        assert plan.rule.h == 0.5
        assert plan.j_max == 7

    def test_calibrated_document_builds_the_calibrations_generator(self):
        plan, cal = from_mapping(dict(FALSIFIED)).build_plan()
        assert plan.generator is cal.generator
        assert plan.generator.name == "bspline4_1d"
        assert plan.generator.params == cal.params

    def test_list_and_dict_params_build_the_same_member(self):
        want = bspline4_1d(0.1, 0.5, -0.2).params
        for params in ([0.1, 0.5, -0.2], {"b3": -0.2, "b1": 0.1, "b2": 0.5}):
            cfg = from_mapping(minimal(generator={"family": "bspline4_1d", "params": params}))
            g, cal = cfg.build_generator()
            assert g.params == want and cal is None

    def test_offset_reaches_the_signal(self):
        doc = minimal(signal={"kind": "matern1d", "offset": 1.0 / 3.0})
        cfg = from_mapping(doc)
        sig = cfg.build_signal()
        assert sig.kinks == (pytest.approx(1.0 / 3.0),)

    def test_dilation_errors_are_config_errors(self):
        doc = minimal()
        doc["dilation"] = {"rows": [[0, -1], [1, 0]]}
        cfg = from_mapping(doc)
        with pytest.raises(ConfigError, match="dilation.rows"):
            cfg.build_dilation()


class TestEcho:
    def test_echo_of_minimal_round_trips(self):
        cfg = from_mapping(minimal())
        assert from_mapping(cfg.echo()) == cfg

    @pytest.mark.parametrize(
        "doc",
        [
            minimal(operator={"kind": "ball", "N": 2, "h": 0.5}),
            minimal(signal={"kind": "laplace1d", "offset": 1.0 / 3.0}),
            FALSIFIED,
            minimal(generator={"family": "bspline4_1d", "params": [0, 0.5, 0]}),
            minimal(generator={"family": "bspline4_1d",
                               "params": {"b1": 0, "b2": 0.5, "b3": 0}}),
            minimal(study={"p": 2}),
            minimal(study={"domain_halfwidth": 3}),
            {
                "dilation": {"rows": [[1, -1], [1, 1]]},
                "generator": {"family": "bspline3_2d", "params": [0.5, 0.5]},
                "operator": {"kind": "ball", "N": 2, "h": 0.5},
                "signal": {"kind": "gaussian"},
                "rule": {"kind": "differential"},
                "study": {"p": "2", "domain_halfwidth": 3.0},
            },
        ],
        ids=["ball", "kinked-offset", "falsified", "list-params",
             "dict-params", "p2", "halfwidth", "quincunx-differential"],
    )
    def test_echo_round_trips(self, doc):
        cfg = from_mapping(doc)
        assert from_mapping(cfg.echo()) == cfg

    def test_echo_resolves_calibration(self):
        cfg = from_mapping(dict(FALSIFIED))
        _, cal = cfg.build_plan()
        echo = cfg.echo(cal, domain_halfwidth=4.2)
        params = echo["generator"]["params"]
        assert isinstance(params, list) and len(params) == 3
        assert params[1] == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert echo["operator"] == {"kind": "ball", "N": 3, "h": 0.5}
        assert echo["rule"] == {"kind": "falsified", "h": 0.5}
        assert echo["study"]["domain_halfwidth"] == 4.2
        # a resolved echo is itself a valid document
        resolved = from_mapping(echo)
        assert resolved.generator["params"] == tuple(params)
