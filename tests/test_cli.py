"""Command-line interface: artifacts, exit codes, determinism."""
import json
import math

import numpy as np
import pytest

from dilsamp import Grid, coefficients, evaluate, lattice_support, study_domain
from dilsamp import expansion
from dilsamp.analysis import level_grid
from dilsamp.cli import main
from dilsamp.config import parse_config

STUDY_DOC = {
    "dilation": {"rows": [[2]]},
    "generator": {"family": "hat"},
    "signal": {"kind": "gaussian"},
    "study": {"j_min": 1, "j_max": 5, "grid_per_scale": 4, "fit_skip": 1},
}

CALIBRATE_DOC = {
    "dilation": {"rows": [[2]]},
    "generator": {"family": "bspline4_1d", "params": "calibrate"},
    "operator": {"kind": "ball", "N": 3, "h": 0.5},
    "signal": {"kind": "gaussian"},
}

# A valid document with no rate statement: ball averages of a kinked
# signal need decay margin above 1, and laplace1d has margin 1.
KINKED_FALSIFIED_DOC = {
    "dilation": {"rows": [[2]]},
    "generator": {"family": "bspline4_1d", "params": "calibrate"},
    "operator": {"kind": "ball", "N": 3, "h": 0.5},
    "signal": {"kind": "laplace1d", "offset": 1.0 / 3.0},
    "rule": {"kind": "falsified", "h": 0.5},
    "study": {"j_min": 1, "j_max": 4},
}

# STUDY_DOC with every default filled in, as report.json echoes it.
STUDY_ECHO = {
    "dilation": {"rows": [[2]]},
    "generator": {"family": "hat", "params": None},
    "operator": {"kind": "delta"},
    "signal": {"kind": "gaussian"},
    "rule": {"kind": "exact"},
    "study": {
        "j_min": 1,
        "j_max": 5,
        "p": "inf",
        "domain_halfwidth": 4.2,
        "grid_per_scale": 4,
        "truncation_tol": 1e-10,
        "quad_order": 16,
        "fit_skip": 1,
        "slope_tolerance": 0.25,
    },
}


def write_doc(tmp_path, doc, name="experiment.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCoeffs:
    def test_writes_moment_table(self, tmp_path):
        out = tmp_path / "artifacts"
        rc = main(["coeffs", "--dim", "2", "--order", "2", "--h", "0.5",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "coeffs.json").read_text())
        table = {tuple(row["beta"]): row["value"] for row in doc["moments"]}
        assert table[(2, 0)] == pytest.approx(0.5**2 / 8)
        assert table[(0, 0)] == 1.0
        assert table[(1, 1)] == 0.0

    def test_rejects_bad_flags(self, tmp_path, capsys):
        rc = main(["coeffs", "--dim", "0", "--order", "2", "--h", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args, artifact", [
    (["coeffs", "--dim", "1", "--order", "2", "--h"], "coeffs.json"),
    (["strang-fix", "--generator", "hat", "--tol"], "strang_fix.json"),
    (["lemma10", "--dim", "1", "--trials", "1", "--tol"], "lemma10.json"),
], ids=["coeffs-h", "strang-fix-tol", "lemma10-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "x"])
def test_float_flags_must_be_finite_and_positive(tmp_path, capsys, args, artifact, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(args + [value, "--out", str(out)])
    assert exit_.value.code == 2
    assert "expected a finite positive number" in capsys.readouterr().err
    assert not (out / artifact).exists()


class TestLemma10:
    def test_polynomial_recombination_passes(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["lemma10", "--dim", "2", "--trials", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "lemma10.json").read_text())
        assert doc["pass"] is True
        assert doc["max_residual"] < 1e-10


class TestStrangFix:
    def test_hat_order(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["strang-fix", "--generator", "hat", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "strang_fix.json").read_text())
        assert doc["order"] == 2
        assert all(set(r) == {"k", "beta", "residual"} for r in doc["table"])

    def test_family_requires_params(self, tmp_path, capsys):
        rc = main(["strang-fix", "--generator", "bspline4_1d",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--params" in capsys.readouterr().err

    def test_calibrated_family_reaches_order_four(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["strang-fix", "--generator", "bspline4_1d",
                   "--params", "0,0.6666666666666666,0", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "strang_fix.json").read_text())
        assert doc["order"] == 4

    @pytest.mark.parametrize(
        "generator, params, needle",
        [
            ("hat", "1", "--params: hat takes no parameters"),
            ("bspline4_1d", "0,1", "--params: bspline4_1d expects 3 values"),
            ("bspline4_1d", "0,x,0", "--params: could not convert"),
        ],
    )
    def test_rejects_bad_params(self, tmp_path, capsys, generator, params,
                                needle):
        rc = main(["strang-fix", "--generator", generator, "--params", params,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {needle}")


    def test_family_dim_must_match(self, tmp_path, capsys):
        args = ["strang-fix", "--generator", "bspline3_2d", "--params", "0.5,0.5",
                "--nmax", "1"]
        rc = main(args + ["--dim", "3", "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: --dim: bspline3_2d is 2-d, got 3")
        assert not (tmp_path / "bad" / "strang_fix.json").exists()
        assert main(args + ["--dim", "2", "--out", str(tmp_path / "ok")]) == 0
        assert (tmp_path / "ok" / "strang_fix.json").exists()


class TestCalibrate:
    def test_ball_context_artifact(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["calibrate", write_doc(tmp_path, CALIBRATE_DOC),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["family"] == "bspline4_1d"
        assert doc["target_order"] == 4
        assert doc["params"]["b2"] == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert doc["max_residual"] < 1e-8

    def test_plain_generator_rejected(self, tmp_path, capsys):
        rc = main(["calibrate", write_doc(tmp_path, STUDY_DOC),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "no free parameters" in capsys.readouterr().err


class TestExpand:
    def test_writes_point_table(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["expand", write_doc(tmp_path, STUDY_DOC), "--level", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "expand.csv").read_text().splitlines()
        assert lines[0] == "x1,re,im"
        assert len(lines) > 10
        x, re, im = (float(v) for v in lines[1].split(","))
        assert math.isfinite(x) and math.isfinite(re) and im == 0.0

    def test_level_beyond_int64_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["expand", write_doc(tmp_path, STUDY_DOC), "--level", "70",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: --level: 70")
        assert not (out / "expand.csv").exists()

    def test_lattice_box_past_two_to_the_62_exits_two(self, tmp_path, capsys):
        # the reach sqrt(decay_const / tol) of sinc_squared passes 2**62
        doc = dict(STUDY_DOC, generator={"family": "sinc_squared"},
                   study={"truncation_tol": 1e-40})
        out = tmp_path / "out"
        rc = main(["expand", write_doc(tmp_path, doc), "--level", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "2**62" in err
        assert not (out / "expand.csv").exists()


    @pytest.mark.parametrize("rows", [[[2, 0], [0, 2]], [[1, 1], [1, -1]]],
                             ids=["dyadic", "quincunx"])
    def test_slabs_write_the_whole_grid_bytes(self, tmp_path, monkeypatch, rows):
        # level 1 of quincunx takes the gather on lines, dyadic the per-axis
        doc = dict(STUDY_DOC, dilation={"rows": rows},
                   study={"domain_halfwidth": 1.3, "grid_per_scale": 4})
        cfg = write_doc(tmp_path, doc)
        plan, _ = parse_config(json.dumps(doc)).build_plan()
        domain = study_domain(plan)
        grid, _ = level_grid(plan, domain, 1)
        g, m = plan.generator, plan.dilation
        cs = coefficients(plan.rule, plan.signal, m, 1, lattice_support(g, m, 1, domain))
        vals = evaluate(g, m, 1, cs, grid)
        fmt = lambda v: format(float(v), ".17g")
        whole = "".join(",".join([fmt(c) for c in pt] + [fmt(v.real), fmt(v.imag)]) + "\n"
                        for pt, v in zip(np.asarray(grid), vals))
        # fewer points per slab than per row: one row of the grid per slab
        monkeypatch.setattr(expansion, "_ROWS", 7)
        monkeypatch.setattr(expansion, "evaluate", None)
        monkeypatch.setattr(Grid, "__array__", None)
        shown = []
        points = Grid.points
        monkeypatch.setattr(Grid, "points", lambda g: shown.append(len(g)) or points(g))
        out = tmp_path / "out"
        assert main(["expand", cfg, "--level", "1", "--out", str(out)]) == 0
        assert (out / "expand.csv").read_bytes() == ("x1,x2,re,im\n" + whole).encode()
        # points are formed one slab (one row) at a time, never for the grid
        assert set(shown) == {grid.axes[1].size}
        assert not list(out.glob("*.part"))


class TestStudy:
    def test_passing_study(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["study", write_doc(tmp_path, STUDY_DOC), "--out", str(out)])
        assert rc == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "j,log_scale,error"
        assert len(lines) == 6
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["predicted_rate"] == pytest.approx(2.0)
        assert report["config_echo"]["study"]["j_max"] == 5
        # the echo records the resolved default domain
        assert report["config_echo"]["study"]["domain_halfwidth"] == pytest.approx(4.2)

    def test_failing_verdict_exits_one(self, tmp_path):
        doc = dict(STUDY_DOC)
        doc["study"] = dict(STUDY_DOC["study"], slope_tolerance=1e-6)
        rc = main(["study", write_doc(tmp_path, doc), "--out",
                   str(tmp_path / "out")])
        assert rc == 1

    def test_reports_are_byte_deterministic(self, tmp_path):
        cfg = write_doc(tmp_path, STUDY_DOC)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["study", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for artifact in ("study.csv", "report.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["study", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_tiny_truncation_tolerance_exits_two(self, tmp_path, capsys):
        # the reach sqrt(decay_const / tol) of sinc_squared passes 2**62
        doc = dict(STUDY_DOC, generator={"family": "sinc_squared"},
                   study={"j_min": 1, "j_max": 2, "truncation_tol": 1e-40})
        rc = main(["study", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "2**62" in capsys.readouterr().err

    def test_level_beyond_int64_exits_two(self, tmp_path, capsys):
        doc = dict(STUDY_DOC, study={"j_min": 63, "j_max": 64})
        out = tmp_path / "out"
        rc = main(["study", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: study:")
        assert not (out / "study.csv").exists()
        assert not (out / "report.json").exists()

    def test_kinked_falsified_study_exits_two_before_any_level(
            self, tmp_path, capsys):
        cfg = write_doc(tmp_path, KINKED_FALSIFIED_DOC)
        out = tmp_path / "out"
        rc = main(["study", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "decay margin" in err
        assert not (out / "report.json").exists()
        assert not (out / "study.csv").exists()
        # the document itself is valid: expand and calibrate still run
        assert main(["expand", cfg, "--level", "1", "--out", str(out)]) == 0
        assert main(["calibrate", cfg, "--out", str(out)]) == 0

    def test_non_finite_number_exits_two(self, tmp_path, capsys):
        doc = dict(STUDY_DOC, study=dict(STUDY_DOC["study"], domain_halfwidth=math.inf))
        cfg = write_doc(tmp_path, doc)
        assert '"domain_halfwidth": Infinity' in (tmp_path / "experiment.json").read_text()
        out = tmp_path / "out"
        assert main(["study", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: study.domain_halfwidth: expected a finite")
        assert not (out / "report.json").exists()
        assert not (out / "study.csv").exists()

    def test_missing_document_exits_two(self, tmp_path):
        rc = main(["study", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2


class TestArtifacts:
    def test_study_and_expand_on_study_doc(self, tmp_path):
        cfg = write_doc(tmp_path, STUDY_DOC)
        out = tmp_path / "out"
        assert main(["study", cfg, "--out", str(out)]) == 0
        assert main(["expand", cfg, "--level", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config_echo"] == STUDY_ECHO
        lines = (out / "expand.csv").read_text().splitlines()
        assert lines[0] == "x1,re,im"
        assert len(lines) == 1 + 134
