"""Config handling, experiment dispatch, report determinism."""

import json
import shutil

import pytest

from roughflow import BrownianDriver, MollifierSpec
from roughflow._seeds import derive_rng, derive_seed
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
                               mc_budget=500)
        run(cfg, printer=None)
        fam, m = cfg.build()
        assert fam.mollifier(4.0) == MollifierSpec(dim=2, level=4.0, order=16, panels=(2, 1))
        x0 = m.sample(derive_rng(cfg.seed, "x0"), cfg.n_x)
        drv = BrownianDriver.generate(fam.field.dim_noise, cfg.dt, round(cfg.T / cfg.dt),
                                      cfg.n_omega, derive_seed(cfg.seed, "driver"))
        want = cauchy_experiment(fam, cfg.k_list, drv, x0, cfg.T,
                                 norm_budget=cfg.mc_budget)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"][0]["metrics"] == want.metrics()
        # the whole table, every library value in its own column
        assert (tmp_path / "stability.csv").read_text() == "".join(
            ["k,l,delta_kl,lhs,rhs,metric\n"]
            + [f"{r.k:g},{r.l:g},{r.delta_kl:.10g},{r.lhs:.10g},{r.rhs:.10g},"
               f"{r.metric:.10g}\n" for r in want.rows])

    # one tiny config per kind, with every file it writes
    TINY = {
        "simulate": (dict(family="log-singular", mc_budget=500), ["ensemble.csv"]),
        "density": (dict(family="linear", mc_budget=500), ["density.csv"]),
        "stability": (dict(family="log-singular", T=0.25, k_list=[2.0, 4.0, 8.0],
                           mc_budget=500), ["stability.csv"]),
        "derivative": (dict(family="deriv-smooth", eps_list=[0.5, 0.25, 0.125]),
                       ["derivative.csv"]),
        "analysis": (dict(mc_budget=500), ["maximal.csv"]),
        "verify-hypotheses": (dict(family="deriv-smooth", mc_budget=500,
                                   eps_list=[0.5, 0.25]), []),
    }

    @staticmethod
    def tiny_run(out, kind):
        raw, _ = TestRun.TINY[kind]
        cfg = ExperimentConfig(kind=kind, out=str(out), seed=6, n_omega=2, n_x=4,
                               dt=2.0**-5, **raw)
        status = run(cfg, printer=None)
        return status, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "verify-all"])
    def test_rerun_writes_identical_files(self, tmp_path, kind):
        first = self.tiny_run(tmp_path, kind)
        shutil.rmtree(tmp_path)
        second = self.tiny_run(tmp_path, kind)
        assert sorted(first[1]) == sorted(["summary.json"] + self.TINY[kind][1])
        assert first == second

    # header and row count of each tiny run's table
    TABLES = {
        "simulate": ("omega_index,x_index,t,x0,x1", 2 * 4 * 33),
        "density": ("omega_index,x_index,t,rho_tilde,S,A", 2 * 4 * 3),  # T0 = 1/16
        "stability": ("k,l,delta_kl,lhs,rhs,metric", 2),
        "derivative": ("epsilon,metric,se", 3),
        "analysis": ("n,delta,p,ratio,passed", 2 * 5 * 3 * 3),
    }

    @pytest.mark.parametrize("kind", list(TABLES))
    def test_report_table_header_and_rows(self, tmp_path, kind):
        header, rows = self.TABLES[kind]
        _, files = self.tiny_run(tmp_path, kind)
        lines = files[self.TINY[kind][1][0]].decode().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows

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
                           k_list=[2.0, 4.0, 8.0], mc_budget=500)
        assert got == [
            ("convergence metric decreasing",
             ["metrics", "name", "passed", "support_fraction"], True),
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
            ("partial pointwise Sobolev inequality", ["fits", "name", "passed"], True),
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

    @pytest.mark.parametrize("family", ["linear", "translation", "pure-drift",
                                        "deriv-linear"])
    def test_stability_rejects_a_family_smoothing_reproduces(self, tmp_path, capsys,
                                                            family):
        # an affine family is its own smoothing: every Cauchy and uniqueness
        # metric is rounding noise (6.9e-18 on linear), not a verdict
        cfg = tmp_path / "cfg.json"
        ExperimentConfig(kind="stability", family=family, seed=4, n_omega=2, n_x=4,
                         T=0.25, dt=2.0**-6, k_list=[2.0, 4.0],
                         mc_budget=500, out=str(tmp_path)).dump(cfg)
        assert main(["stability", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"family {family!r}" in err and "the mollifier reproduces" in err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("kind,raw,match", [
        ("stability", {"family": "log-singular", "k_list": [2.0]}, "k_list needs"),
        ("stability", {"family": "log-singular", "k_list": [2.0, float("nan")]},
         "k_list needs"),
        ("stability", {"family": "log-singular", "k_list": ["2", "4"]}, "k_list needs"),
        ("derivative", {"family": "deriv-smooth", "eps_list": []}, "eps_list needs"),
        ("derivative", {"family": "deriv-smooth", "eps_list": [0.25]},
         "derivative needs at least two eps_list values"),
        # one track has no standard error (a nan and a RuntimeWarning)
        pytest.param("derivative", {"family": "deriv-smooth", "n_omega": 1, "n_x": 1},
                     "derivative needs n_omega * n_x >= 2, got 1",
                     marks=pytest.mark.filterwarnings("error")),
        ("verify-hypotheses", {"family": "deriv-smooth", "eps_list": [1.0]},
         "eps_list value <= 0.5"),
        ("simulate", {"radii": []}, "radii needs"),
        ("simulate", {"n_omega": 0}, "n_omega must be a positive integer"),
        ("simulate", {"n_x": 0}, "n_x must be a positive integer"),
        ("density", {"mc_budget": 0}, "mc_budget must be a positive integer"),
        ("density", {"p0": -1.0}, "p0 must be finite and positive"),
        ("stability", {"family": "log-singular", "mc_budget": 0},
         "mc_budget must be a positive integer"),
        ("density", {"q": float("nan")}, "q must be finite and exceed 1, got nan"),
        ("density", {"p": float("inf")}, "p must be finite and exceed 1, got inf"),
        ("simulate", {"T": float("inf")}, "T must be finite and positive, got inf"),
        ("verify-hypotheses", {"family": "deriv-smooth", "measure": {"dim": 2, "alpha": 3.5}},
         "lifted alpha must exceed 2 alpha1 + q + d/2 = 8.5, got 3.5"),
        ("simulate", {"measure": {"dim": 1, "alhpa1": 3.0, "alpha": 3.0}},
         "unknown measure keys ['alhpa1']"),
        ("derivative", {"family": "deriv-smooth", "measure": {"alpha1": 3.0, "alpha": 9.0}},
         "unknown measure keys ['alpha1']"),
        ("simulate", {"family": "log-singular", "measure": {"dim": 1, "alpha": 3.0}},
         "measure.dim 1 does not match the 2-dimensional space"),
        ("derivative", {"family": "linear"}, "derivative needs a deriv-* family"),
        ("density", {"family_params": {"bogus": 1}}, "unused family parameters: ['bogus']"),
        ("stability", {"family": "log-singular", "family_params": {"bogus": 1}},
         "unused family parameters: ['bogus']"),
        ("analysis", {"measure": {"alpha": 3.0}},
         "analysis draws from no configured measure"),
        ("verify-all", {"measure": {"dim": 1, "alpha": 3.0}},
         "verify-all draws from no configured measure"),
        ("analysis", {"family_params": {"bogus": 1}}, "analysis builds no family"),
        ("verify-all", {"family_params": {"bogus": 1}}, "verify-all builds no family"),
        # a setting of the wrong JSON type is named, not a TypeError traceback
        ("simulate", {"T": "1"}, "T must be finite and positive, got '1'"),
        ("density", {"p": "2"}, "p must be finite and exceed 1, got '2'"),
        ("simulate", {"measure": 3}, "measure must be null or an object"),
        ("simulate", {"family_params": [1]}, "family_params must be an object"),
        ("simulate", {"family_params": {"p0": 2.0}}, "family_params cannot set p0"),
        ("simulate", {"family": "log-singular", "family_params": {"beta": [1]}},
         "family parameter 'beta' must be a finite number, got [1]"),
        ("simulate", {"family_params": {"dim": 2.5}},
         "family parameter 'dim' must be a positive integer, got 2.5"),
        ("simulate", {"n_omega": True}, "n_omega must be a positive integer, got True"),
        ("density", {"mc_budget": True}, "mc_budget must be a positive integer, got True"),
        ("simulate", {"T": True}, "T must be finite and positive, got True"),
        ("density", {"q": False}, "q must be finite and exceed 1, got False"),
        # an integer too long for a float is not finite
        ("simulate", {"radii": [10**400]}, "radii needs at least one value, each finite"),
        ("density", {"--budget-scale": "-1"},
         "budget scale must be finite and positive, got -1.0"),
        ("density", {"--budget-scale": "inf"},
         "budget scale must be finite and positive, got inf"),
    ])
    def test_nonsense_input_is_a_named_error(self, tmp_path, capsys, kind, raw, match):
        # keys starting with "--" are command-line flags, the rest config fields
        flags = [a for k, v in raw.items() if k.startswith("--") for a in (k, v)]
        fields = {k: v for k, v in raw.items() if not k.startswith("--")}
        cfg = tmp_path / "cfg.json"
        ExperimentConfig(kind=kind, out=str(tmp_path / "run"), **fields).dump(cfg)
        assert main([kind, "--config", str(cfg), *flags]) == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_derivative_passes_an_affine_base(self, tmp_path):
        # deriv-linear's difference flows are its derivative flow, so its
        # metrics are rounding noise (1e-15 to 1e-14): criterion 9's rule
        # passes them below 1e-10
        assert main(["derivative", "--family", "deriv-linear", "--budget-scale", "0.1",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert max(summary["checks"][0]["metrics"]) < 1e-10

    @pytest.mark.parametrize("kind,family", [("stability", "log-singular"),
                                             ("derivative", "deriv-smooth"),
                                             ("verify-hypotheses", "deriv-smooth")])
    def test_config_without_family_runs_the_bare_default(self, tmp_path, capsys, kind,
                                                          family):
        # the kinds whose default family is not the affine `linear`, which
        # they reject: a bare subcommand and a config file that names no
        # family run the same default and write the same bytes
        flags = ["--seed", "3", "--budget-scale", "0.01", "--out", str(tmp_path / "run")]
        (tmp_path / "cfg.json").write_text(json.dumps({"kind": kind}))
        runs = []
        for config in ([], ["--config", str(tmp_path / "cfg.json")]):
            assert main([kind, *config, *flags]) == 0
            files = {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
            runs.append((capsys.readouterr().out, files))
            shutil.rmtree(tmp_path / "run")
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1]["summary.json"])["config"]["family"] == family

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
