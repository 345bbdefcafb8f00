import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adhocsim import cli, experiment, geometry
from adhocsim.engine import EngineConfig
from adhocsim.errors import ConfigurationError
from adhocsim.links import RadioParams

ROOT = Path(__file__).resolve().parent.parent

TINY = [
    "sweep.n=250",
    "sweep.seeds=2",
    "sweep.track_connections=40",
    "engine.measure_slots=1500",
]


def run_script(name, *args):
    """Run ``scripts/<name>`` in a fresh interpreter; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def tiny_spec(out_dir, extra=()):
    return experiment.load_spec(None, TINY + [f"sweep.out={out_dir}", *extra])


class TestSpecLoading:
    def test_defaults(self):
        spec = experiment.load_spec()
        assert spec.n_values == (250, 500, 1000, 2000, 4000)
        assert spec.seeds == tuple(range(10))
        assert spec.area_constant == 1.2
        assert spec.schedule_delta == 12.0

    def test_overrides(self):
        spec = experiment.load_spec(
            None, ["sweep.n=100,200", "radio.alpha=4.0", "link_model.name=constant_p",
                   "link_model.p=0.7"]
        )
        assert spec.n_values == (100, 200)
        assert spec.radio.alpha == 4.0
        model = spec.link_model()
        assert model.p == 0.7

    def test_explicit_seed_list(self):
        spec = experiment.load_spec(None, ["sweep.seeds=3,9,27"])
        assert spec.seeds == (3, 9, 27)
        assert experiment.load_spec(None, ["sweep.seeds=5,"]).seeds == (5,)

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment.load_spec(None, ["nonsense"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment.load_spec("/nonexistent/config.ini")

    def test_resolved_config_roundtrip(self, tmp_path):
        # every key away from its default
        spec = experiment.ExperimentSpec(
            n_values=(300, 700),
            seeds=(0,),
            area_constant=1.7,
            radio=RadioParams(tx_power=2.5, noise=3e-9, alpha=3.5),
            link_model_name="bpsk_packet",
            link_model_params=(("bits", 128.0),),
            schedule_regime="conservative",
            schedule_delta=14.5,
            schedule_growth="sqrt_log",
            routing_strategy="shortest_cell_path",
            engine=EngineConfig(
                injection_rate=0.125, attempts_per_hop=3, measure_slots=777,
                warmup_slots=11, traffic="saturated", trace=True,
            ),
            out_dir=str(tmp_path / "runs"),
            workers=3,
            track_connections=17,
        )
        defaults = experiment.ExperimentSpec()
        for k in experiment.CONFIG_KEYS:
            value, default = spec, defaults
            for attr in k.field.split("."):
                value, default = getattr(value, attr), getattr(default, attr)
            assert value != default, k.field
        path = tmp_path / "resolved.ini"
        for seeds in [(0,), (5,), (3, 9, 27), ()]:
            spec = dataclasses.replace(spec, seeds=seeds)
            experiment.write_resolved_config(spec, path)
            assert experiment.load_spec(path) == spec

    @pytest.mark.parametrize("override", [
        "engine.sede=5", "engine.seed=5", "enigne.trace=True", "DEFAULT.n=5", "link_model.q=0.5",
        "sweep.n=abc", "sweep.seeds=x", "engine.trace=maybe", "radio.alpha=",
        "link_model.p=high", "engine.warmup_slots=1.5",
        # deleted modes
        "routing.relay=random", "routing.on_empty_cell=error_on_route",
        "engine.debug_checks=True", "engine.traffic=periodic",
        # names checked when the spec is built, whatever the regime
        "schedule.regime=adaptive", "schedule.growth=bogus", "schedule.growth=pow:x",
        "schedule.growth=pow:-1", "routing.strategy=bogus", "routing.strategy=detour:x",
        "routing.strategy=detour:0.5",
        # out-of-range values
        "engine.warmup_slots=-400", "sweep.track_connections=-5", "sweep.track_connections=0",
        "sweep.workers=0", "sweep.workers=-3", "sweep.n=1", "sweep.n=250,1", "sweep.seeds=-1,",
        "sweep.area_constant=-1", "sweep.area_constant=0", "sweep.area_constant=nan",
    ])
    def test_unknown_key_or_malformed_value_rejected(self, override):
        with pytest.raises(ConfigurationError):
            experiment.load_spec(None, [override])

    @pytest.mark.parametrize("text", [
        "[sweep]\nn = 250\n\n[sweeps]\n", "n = 250\n", "[sweep]\nn = 1\nn = 2\n",
    ])
    def test_bad_config_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            experiment.load_spec(path)

    def test_desk_config_loads(self):
        spec = experiment.load_spec(ROOT / "configs" / "desk.ini")
        assert spec == dataclasses.replace(experiment.ExperimentSpec(), out_dir="runs/desk",
                                           link_model_params=(("a", 1.0), ("midpoint_db", 10.0)))


def _scalar_fields(cls, prefix=""):
    return {prefix + f.name for f in dataclasses.fields(cls)}


def test_every_field_has_one_config_key():
    fields = (
        _scalar_fields(experiment.ExperimentSpec) - {"radio", "engine"}
        | _scalar_fields(RadioParams, "radio.")
        | _scalar_fields(EngineConfig, "engine.") - {"engine.seed"}
    )
    targets = [k.field for k in experiment.CONFIG_KEYS]
    assert sorted(targets) == sorted(fields)  # each field once, and no key without a field
    assert len(fields) == 21  # 22 settable values; engine.seed is for library callers only


class TestPrepareInstance:
    def test_rejects_underoccupied_scale(self):
        # a tiny area constant makes far more cells than nodes
        with pytest.raises(ConfigurationError):
            experiment.prepare_instance(40, 0, 0.05, max_redeploys=3)

    def test_occupied_instance(self):
        dep, tess = experiment.prepare_instance(250, 0, 1.2)
        assert tess.occupancy().min() >= 1


class TestRunPoint:
    def test_point_pipeline(self, tmp_path):
        spec = tiny_spec(tmp_path)
        res = experiment.run_point(spec, 250, 0)
        assert res.hard_invariants_ok
        assert res.metrics.injected.sum() > 0
        assert res.report.pass_rate("hop_count") == 1.0

    def test_arbitrary_strategy_point(self, tmp_path):
        spec = tiny_spec(tmp_path, ["routing.strategy=random_walk_loop_erased"])
        res = experiment.run_point(spec, 250, 0)
        assert res.hard_invariants_ok  # consecutive-short-hop check still runs
        assert all(r.check_id != "hop_count" for r in res.report.records)


class TestSweep:
    def test_outputs_and_schemas(self, tmp_path):
        out = tmp_path / "runs"
        ok = experiment.run_sweep(tiny_spec(out))
        assert ok
        conn = (out / "connections.csv").read_text().splitlines()
        summ = (out / "summary.csv").read_text().splitlines()
        verif = (out / "verification.csv").read_text().splitlines()
        assert conn[0] == "# schema=connections_v1"
        assert summ[0] == "# schema=summary_v1"
        assert verif[0] == "# schema=verification_v1"
        assert verif[1] == "n,seed,check_id,connection_id,lhs,rhs,passed"
        assert len(summ) == 2 + 2  # header rows + one per (n, seed)
        assert len(conn) == 2 + 2 * 40
        header = conn[1].split(",")
        assert header[:6] == ["n", "seed", "rho_n", "K", "conn_id", "L"]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        experiment.run_sweep(tiny_spec(out1))
        experiment.run_sweep(tiny_spec(out2))
        for name in ("connections.csv", "summary.csv", "verification.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_point_failures_isolate(self, tmp_path):
        # area_constant=20 violates the cell-scale precondition at n=40 but
        # not at n=250, so one point errors and the other still runs
        out = tmp_path / "runs"
        spec = tiny_spec(out, ["sweep.n=40,250", "sweep.seeds=1", "sweep.area_constant=20"])
        ok = experiment.run_sweep(spec)
        assert not ok
        assert "n=40" in (out / "errors.txt").read_text()
        summ = (out / "summary.csv").read_text().splitlines()
        assert len(summ) == 3  # the good point still produced its row

    def test_unexpected_error_isolates(self, tmp_path, monkeypatch):
        real = experiment.run_point

        def flaky(spec, n, seed):
            if seed == 1:
                raise RuntimeError("boom")
            return real(spec, n, seed)

        monkeypatch.setattr(experiment, "run_point", flaky)
        out = tmp_path / "runs"
        assert not experiment.run_sweep(tiny_spec(out))
        assert (out / "errors.txt").read_text() == "n=250 seed=1: RuntimeError: boom\n"
        summ = (out / "summary.csv").read_text().splitlines()
        assert len(summ) == 3 and summ[2].startswith("250,0,")
        monkeypatch.undo()
        assert experiment.run_sweep(tiny_spec(out))
        assert not (out / "errors.txt").exists()  # a clean rerun clears the old list

    def test_workers_match_serial(self, tmp_path):
        out1, out2 = tmp_path / "s", tmp_path / "p"
        experiment.run_sweep(tiny_spec(out1))
        spec = tiny_spec(out2)
        experiment.run_sweep(
            experiment.ExperimentSpec(**{**spec.__dict__, "workers": 2, "out_dir": str(out2)})
        )
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


class TestDecayRegression:
    def test_pooled_log_delivery_slope_is_log_p(self, small_instance):
        # delivery pooled by hop count decays as p**H: the regression of
        # ln(delivery) on H recovers ln(p) with R^2 >= 0.99
        from adhocsim import links
        from adhocsim.engine import EngineConfig, run

        dep, tess, sched, _, routes = small_instance
        p = 0.9
        cfg = EngineConfig(injection_rate=0.0015, measure_slots=100_000, seed=7)
        m = run(dep, tess, sched, routes[:200], links.ConstantPModel(p),
                links.RadioParams(), cfg)
        hops = {r.connection_id: r.hop_count for r in routes[:200]}
        delivered, resolved = {}, {}
        for k, cid in enumerate(m.connection_ids):
            h = hops[int(cid)]
            delivered[h] = delivered.get(h, 0) + int(m.delivered[k])
            resolved[h] = resolved.get(h, 0) + int(m.delivered[k] + m.dropped[k])
        xs = sorted(h for h in resolved if resolved[h] >= 500 and delivered[h] > 0)
        ys = np.array([math.log(delivered[h] / resolved[h]) for h in xs])
        xs = np.array(xs, dtype=float)
        assert len(xs) >= 4
        A = np.vstack([xs, np.ones_like(xs)]).T
        coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
        r2 = 1 - res[0] / np.sum((ys - ys.mean()) ** 2)
        assert r2 >= 0.99
        assert coef[0] == pytest.approx(math.log(p), rel=0.08)


class TestAppendix:
    def test_full_report_passes(self):
        report = experiment.verify_appendix(seed=5)
        assert report.passed
        by_id = {}
        for rec in report.records:
            by_id.setdefault(rec.check_id, []).append(rec)
        assert len(by_id["pair_distance_expectation"]) == 4
        assert by_id["distance_law_ks"][0].lhs < 0.002

    def test_ks_statistic_helper(self):
        # uniform draws transformed through the inverse CDF match exactly
        rng = np.random.default_rng(9)
        u = rng.random(200_000)
        dist = np.arccos(1 - 2 * u) * geometry.RADIUS
        assert experiment.kolmogorov_statistic(dist) < 0.005


class TestCli:
    def test_sweep_ok_exit(self, tmp_path, capsys):
        code = cli.main(
            ["sweep", "--out", str(tmp_path / "o")]
            + [f"--set={s}" for s in TINY]
        )
        assert code == 0
        assert (tmp_path / "o" / "config.resolved.ini").exists()

    def test_config_error_exit(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", "/no/such/file.ini"])
        assert code == 2
        assert cli.main(["sweep", "--set=sweep.n=abc"]) == 2
        assert "sweep.n" in capsys.readouterr().err
        for override in ["routing.strategy=bogus", "schedule.growth=bogus",
                         "routing.relay=random", "routing.on_empty_cell=error_on_route",
                         "engine.debug_checks=True", "engine.traffic=periodic",
                         "engine.warmup_slots=-400", "sweep.track_connections=-5",
                         "sweep.track_connections=0", "sweep.workers=0", "sweep.workers=-3",
                         "sweep.n=1", "sweep.seeds=-1,", "sweep.area_constant=-1"]:
            out = tmp_path / override.partition("=")[0]
            argv = ["sweep", "--out", str(out)] + [f"--set={s}" for s in TINY + [override]]
            assert cli.main(argv) == 2, override
            assert not out.exists(), override

    def test_tessellate_and_deploy(self, tmp_path):
        out = tmp_path / "t.txt"
        code = cli.main(["tessellate", "--n", "250", "--seed", "1", "--out", str(out)])
        assert code == 0 and out.exists()
        # the text export: scale, cell count, one center line per cell and
        # one assignment line per node
        _, tess = experiment.prepare_instance(250, 1, 1.2)
        lines = out.read_text().splitlines()
        assert lines[0] == "# adhocsim tessellation v1"
        assert lines[1] == f"rho_n {tess.rho_n!r}"
        assert lines[2] == f"cells {tess.num_cells}"
        assert lines[3] == "nodes 250"
        centers = [line.split() for line in lines if line.startswith("c ")]
        assigned = [line.split() for line in lines if line.startswith("a ")]
        assert len(lines) == 4 + len(centers) + len(assigned)
        assert [int(c[1]) for c in centers] == list(range(tess.num_cells))
        np.testing.assert_array_equal([[float(x) for x in c[2:]] for c in centers], tess.centers)
        assert [int(a[1]) for a in assigned] == list(range(250))
        assert [int(a[2]) for a in assigned] == tess.cell_of_node.tolist()
        out2 = tmp_path / "d.txt"
        code = cli.main(["deploy", "--n", "50", "--seed", "1", "--out", str(out2)])
        assert code == 0 and out2.exists()

    @pytest.mark.parametrize("argv", [
        ["deploy", "--n", "10", "--set=bogus.key=1", "--config", "/nonexistent.ini",
         "--workers", "7"],
        ["deploy", "--n", "10", "--config", "/nonexistent.ini"],
        ["tessellate", "--n", "250", "--workers", "7"],
        ["simulate", "--n", "250", "--workers", "7"],
        ["verify", "--n", "250", "--workers", "7"],
        ["sweep", "--seed", "3"],
    ])
    def test_flag_a_subcommand_does_not_read_is_rejected(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_verify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = cli.main(
            ["verify", "--n", "250", "--seed", "0", "--out", str(out)]
            + [f"--set={s}" for s in TINY]
        )
        assert code == 0
        assert (out / "verification.csv").exists()
        assert "hop_count" in capsys.readouterr().out
        # a sweep into the same directory removes what verify alone writes,
        # and keeps files the package does not write
        verify_only = ("verification_detail.csv", "verification.txt", "routes.txt")
        assert all((out / name).exists() for name in verify_only)
        (out / "notes.txt").write_text("mine\n")
        assert cli.main(["sweep", "--out", str(out)] + [f"--set={s}" for s in TINY]) == 0
        assert not any((out / name).exists() for name in verify_only)
        assert (out / "notes.txt").exists() and (out / "config.resolved.ini").exists()

    def test_bounds_subcommand(self, capsys):
        code = cli.main(["bounds", "--c1", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "t0=" in out and "beta0=" in out

    def test_appendix_subcommand(self, capsys):
        code = cli.main(["appendix", "--pairs", "1000000", "--seed", "2"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_simulate_subcommand(self, tmp_path, capsys, monkeypatch):
        engine_runs = []
        real = experiment.run

        def counting_run(*args):
            engine_runs.append(args)
            return real(*args)

        out = tmp_path / "s"
        traced = ["--set=engine.trace=True"] + [f"--set={s}" for s in TINY]
        assert cli.main(["simulate", "--n", "250", "--seed", "1", "--out", str(out)] + traced) == 0
        assert (out / "trace.csv").exists()
        monkeypatch.setattr(experiment, "run", counting_run)
        code = cli.main(
            ["simulate", "--n", "250", "--seed", "0", "--out", str(out)]
            + [f"--set={s}" for s in TINY]
        )
        assert code == 0
        assert "Lambda_n=" in capsys.readouterr().out
        assert len(engine_runs) == 1
        assert not (out / "trace.csv").exists()  # left by the traced run

    def test_simulate_matches_one_point_sweep(self, tmp_path):
        sim, sweep = tmp_path / "sim", tmp_path / "sweep"
        code = cli.main(["simulate", "--n", "250", "--seed", "1", "--out", str(sim)]
                        + [f"--set={s}" for s in TINY])
        assert code == 0
        spec = dataclasses.replace(tiny_spec(sweep), seeds=(1,))
        assert experiment.run_sweep(spec)
        for name in experiment.SWEEP_CSVS:
            assert (sim / name).read_bytes() == (sweep / name).read_bytes()
        resolved = experiment.load_spec(sim / "config.resolved.ini")
        assert resolved == dataclasses.replace(spec, out_dir=str(sim))
        detail = (sim / "verification_detail.csv").read_text().splitlines()
        assert detail[0] == "# schema=verification_detail_v1"

    def test_claim_checks_script(self, tmp_path):
        run_script("run_claim_checks.py", "--n", "2000", "--seed", "0",
                   "--out", str(tmp_path / "claims"))
        detail = (tmp_path / "claims" / "verification_detail.csv").read_text()
        assert detail.startswith("# schema=verification_detail_v1\n")

    def test_schedule_comparison_script(self, tmp_path):
        out = tmp_path / "comparison.csv"
        run_script("run_schedule_comparison.py", "--seeds", "1", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[:2] == ["# schema=schedule_comparison_v1",
                             "n,seed,regime,K,sinr_p5,sinr_p50,sinr_p95"]
        assert len(lines) == 2 + 8  # four n, one seed, two regimes

    def test_desk_sweep_script(self, tmp_path):
        out = tmp_path / "desk"
        run_script("run_desk_sweep.py", "--out", str(out),
                   *[f"--set={s}" for s in TINY + ["sweep.seeds=1"]])
        for name in experiment.SWEEP_CSVS:
            schema = experiment.CSV_LAYOUTS[name][0]
            assert (out / name).read_text().startswith(f"# schema={schema}\n"), name

    def test_invariant_failure_exit_code(self, tmp_path, monkeypatch):
        import adhocsim.experiment as exp

        monkeypatch.setattr(exp, "run_sweep", lambda spec: False)
        code = cli.main(["sweep", "--out", str(tmp_path / "f")] + [f"--set={s}" for s in TINY])
        assert code == 1
