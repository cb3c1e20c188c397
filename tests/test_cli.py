"""Config handling, experiment dispatch, report determinism."""

import json

import pytest

from roughflow._seeds import derive_rng
from roughflow.cli import KINDS, ExperimentConfig, main, run
from roughflow.stability import cauchy_experiment


class TestConfig:
    def test_roundtrip_lossless(self, tmp_path):
        cfg = ExperimentConfig(kind="simulate", family="log-singular",
                               family_params={"beta": 1.4}, seed=99,
                               n_omega=4, n_x=8)
        path = tmp_path / "cfg.json"
        cfg.dump(path)
        back = ExperimentConfig.load(path)
        assert back == cfg
        assert back.to_dict() == cfg.to_dict()

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig.from_dict({"family": "linear"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"kind": "simulate", "bogus": 1})

    def test_unknown_family_rejected(self):
        cfg = ExperimentConfig(kind="simulate", family="nope")
        with pytest.raises(ValueError, match="unknown family"):
            cfg.validate()

    def test_alpha_constraint_named(self):
        cfg = ExperimentConfig(kind="simulate",
                               measure={"dim": 1, "alpha": 1.2}, q=2.0)
        with pytest.raises(ValueError, match="alpha must exceed q \\+ n/2"):
            cfg.validate()

    def test_measure_without_alpha_rejected(self):
        cfg = ExperimentConfig(kind="simulate", measure={"dim": 1})
        with pytest.raises(ValueError, match="alpha is required"):
            cfg.validate()

    def test_dt_must_divide_t(self):
        cfg = ExperimentConfig(kind="simulate", T=1.0, dt=0.3)
        with pytest.raises(ValueError, match="dt must divide T"):
            cfg.validate()

    def test_all_kinds_known(self):
        for kind in KINDS:
            ExperimentConfig(kind=kind).__class__  # constructible


class TestRun:
    def test_simulate_writes_reports(self, tmp_path):
        cfg = ExperimentConfig(kind="simulate", out=str(tmp_path), seed=5,
                               n_omega=6, n_x=8, dt=2.0**-6, mc_budget=2000)
        status = run(cfg, printer=None)
        assert status == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"]
        assert summary["version"]
        assert summary["config"]["seed"] == 5
        assert (tmp_path / "ensemble.csv").exists()

    def test_summary_bytes_deterministic(self, tmp_path):
        outputs = []
        for _ in range(2):
            cfg = ExperimentConfig(kind="density", out=str(tmp_path), seed=11,
                                   n_omega=4, n_x=8, dt=2.0**-6,
                                   mc_budget=1000)
            assert run(cfg, printer=None) == 0
            outputs.append((tmp_path / "summary.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_budget_scale_keeps_passing(self, tmp_path):
        cfg = ExperimentConfig(kind="density", out=str(tmp_path), seed=3,
                               n_omega=8, n_x=16, dt=2.0**-6, mc_budget=4000)
        assert run(cfg, budget_scale=0.25, printer=None) == 0

    def test_budget_scale_leaves_config_unchanged(self, tmp_path):
        cfg = ExperimentConfig(kind="simulate", out=str(tmp_path), seed=5,
                               dt=2.0**-6, mc_budget=8000)
        given = cfg.to_dict()
        recorded = []
        for _ in range(2):
            run(cfg, budget_scale=0.25, printer=None)
            assert cfg.to_dict() == given
            recorded.append(json.loads((tmp_path / "summary.json").read_text())["config"])
        # both runs rescale the given config once
        assert recorded[0] == recorded[1]
        assert (recorded[0]["n_omega"], recorded[0]["mc_budget"]) == (8, 2000)

    def test_stability_smooths_with_the_family_panels(self, tmp_path):
        # partially-sobolev is smoothed with a panel edge on its x1-step, as
        # in the acceptance suite
        cfg = ExperimentConfig(kind="stability", family="partially-sobolev",
                               out=str(tmp_path), seed=4, n_omega=2, n_x=4,
                               T=0.25, dt=2.0**-6, k_list=[2.0, 4.0],
                               quadrature_points=500)
        run(cfg, printer=None)
        fam = cfg.build_family()
        x0 = fam.measure.sample(derive_rng(cfg.seed, "x0"), cfg.n_x)
        want = cauchy_experiment(
            fam, cfg.k_list, cfg.build_driver(fam.field.dim_noise), x0, cfg.T,
            norm_budget=cfg.quadrature_points,
            spec_kwargs=dict(order=16, panels=(2, 1)),
        )
        want.to_csv(tmp_path / "want.csv")
        assert ((tmp_path / "stability.csv").read_text()
                == (tmp_path / "want.csv").read_text())

    def test_derivative_kind_needs_deriv_family(self, tmp_path):
        cfg = ExperimentConfig(kind="derivative", family="linear",
                               out=str(tmp_path))
        with pytest.raises(ValueError, match="deriv-"):
            run(cfg, printer=None)


class TestCheckRecords:
    """Each kind's check records at a small budget: names, keys, verdicts."""

    @staticmethod
    def records(tmp_path, **raw):
        assert run(ExperimentConfig(out=str(tmp_path), **raw), printer=None) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        return [(c["name"], sorted(c), c["passed"]) for c in summary["checks"]]

    def test_simulate(self, tmp_path):
        got = self.records(tmp_path, kind="simulate", seed=5, n_omega=4, n_x=8,
                           dt=2.0**-6, mc_budget=1000)
        keys = ["bound", "empirical", "excluded", "name", "passed"]
        assert got == [(f"level-set tail R={r}", keys, True) for r in (2, 5, 10, 20)]

    def test_stability(self, tmp_path):
        got = self.records(tmp_path, kind="stability", family="log-singular",
                           seed=4, n_omega=2, n_x=4, T=0.25, dt=2.0**-6,
                           k_list=[2.0, 4.0, 8.0], quadrature_points=500)
        assert got == [
            ("convergence metric decreasing", ["metrics", "name", "passed"], True),
            ("uniqueness metric below final gap",
             ["final_gap", "name", "passed", "uniqueness_metric"], True),
        ]

    def test_analysis(self, tmp_path):
        got = self.records(tmp_path, kind="analysis", seed=7, mc_budget=2000)
        keys = ["checks", "failures", "name", "passed"]
        assert got == [
            ("maximal inequalities n=1", keys, True),
            ("maximal inequalities n=2", keys, True),
            ("ring-ratio closed form", ["name", "passed"], True),
        ]
        header = (tmp_path / "maximal.csv").read_text().splitlines()[0]
        assert header == "n,delta,p,ratio,passed"


class TestMain:
    def test_malformed_config_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "simulate", "measure": {"dim": 1}}')
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_invalid_json_exits_nonzero(self, tmp_path):
        bad = tmp_path / "nojson.json"
        bad.write_text("{")
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_kind_mismatch_exits_nonzero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        ExperimentConfig(kind="analysis").dump(cfg)
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_cli_flags_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ExperimentConfig(kind="simulate", seed=1, n_omega=4, n_x=8,
                         dt=2.0**-6, mc_budget=1000).dump(cfg_path)
        out = tmp_path / "run"
        status = main([
            "simulate", "--config", str(cfg_path), "--seed", "42",
            "--out", str(out),
        ])
        assert status == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 42
