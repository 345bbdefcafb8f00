import dataclasses
import gc
import math
from pathlib import Path

import numpy as np
import pytest

from adhocsim import cli, experiment, geometry, routing, tessellation, verification
from adhocsim.engine import EngineConfig
from adhocsim.errors import ConfigurationError
from adhocsim.links import RadioParams
from conftest import table_of

ROOT = Path(__file__).resolve().parent.parent

TINY = [
    "sweep.n=250",
    "sweep.seeds=2",
    "sweep.track_connections=40",
    "engine.measure_slots=1500",
]


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
        for seeds in [(0,), (5,), (3, 9, 27)]:
            spec = dataclasses.replace(spec, seeds=seeds)
            experiment.write_resolved_config(spec, path)
            assert experiment.load_spec(path) == spec
        with pytest.raises(ConfigurationError):  # an empty grid is not a spec
            dataclasses.replace(spec, seeds=())

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
        # an empty grid
        "sweep.seeds=0", "sweep.n=",
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
    def test_rejects_underoccupied_scale(self, monkeypatch):
        # a tiny area constant makes far more cells than nodes
        monkeypatch.setattr(experiment, "MAX_REDEPLOYS", 3)
        with pytest.raises(ConfigurationError):
            experiment.prepare_instance(40, 0, 0.05)

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
        assert all(t.check_id != "hop_count" for t in res.report.tables)


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

    def test_writes_resolved_config(self, tmp_path):
        spec = tiny_spec(tmp_path / "runs")
        experiment.run_sweep(spec)
        assert experiment.load_spec(tmp_path / "runs" / "config.resolved.ini") == spec

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
        # ``sweep --workers 2`` runs the points in a process pool and writes
        # what one worker writes.
        for workers in ("1", "2"):
            argv = ["sweep", "--out", str(tmp_path / workers), "--workers", workers]
            assert cli.main(argv + [f"--set={s}" for s in TINY]) == 0
        for name in experiment.SWEEP_CSVS:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


class TestFrozenHeap:
    """Each run freezes the heap it starts with, so that its collections
    skip the imported modules' objects, and leaves the freeze count as it
    found it."""

    RUNS = {  # run -> (a function it calls, the call made here)
        "run_sweep": ("run", experiment.run_sweep),
        "run_single": ("run", lambda spec: experiment.run_single(spec, 250, 0)),
        "run_schedules": ("saturated_hop_samples", experiment.run_schedules),
    }

    def spy_on(self, monkeypatch, callee):
        """Record the freeze count at each call of ``experiment.<callee>``."""
        real, seen = getattr(experiment, callee), []

        def spy(*args):
            seen.append(gc.get_freeze_count())
            return real(*args)

        monkeypatch.setattr(experiment, callee, spy)
        return seen

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_runs_in_a_frozen_heap_and_thaws_it(self, tmp_path, monkeypatch, name):
        callee, call = self.RUNS[name]
        seen = self.spy_on(monkeypatch, callee)
        assert gc.get_freeze_count() == 0, "an earlier run left the heap frozen"
        call(tiny_spec(tmp_path, ["sweep.seeds=0,"]))
        assert seen and min(seen) > 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_a_run_that_raises_thaws_the_heap(self, tmp_path, monkeypatch, name):
        seen = []

        def fail(spec):
            seen.append(gc.get_freeze_count())
            raise OSError("disk full")

        monkeypatch.setattr(experiment, "_open_out_dir", fail)
        assert gc.get_freeze_count() == 0, "an earlier run left the heap frozen"
        with pytest.raises(OSError, match="disk full"):
            self.RUNS[name][1](tiny_spec(tmp_path))
        assert seen[0] > 0
        assert gc.get_freeze_count() == 0

    def test_a_heap_the_caller_froze_stays_frozen(self, tmp_path, monkeypatch):
        # Checked by identity: the count also drops when the run frees a
        # frozen object.  ``gc.get_objects`` lists only unfrozen objects.
        seen = self.spy_on(monkeypatch, "run")
        spec, old = tiny_spec(tmp_path, ["sweep.seeds=0,"]), []
        gc.freeze()
        try:
            young = []
            experiment.run_single(spec, 250, 0)
            unfrozen = gc.get_objects()
            assert seen and min(seen) > 0 and gc.get_freeze_count() > 0
            assert not any(obj is old for obj in unfrozen)  # not thawed
            assert any(obj is young for obj in unfrozen)  # not frozen by the run
        finally:
            gc.unfreeze()


@pytest.fixture(scope="module")
def pooled_decay(small_instance):
    """Constant-p delivery at p = 0.9 over 200 connections, pooled by hop
    count: hop counts with at least 500 resolved packets, their resolved and
    delivered counts."""
    from adhocsim import links
    from adhocsim.engine import run

    dep, tess, sched, _, routes, _ = small_instance
    cfg = EngineConfig(injection_rate=0.0015, measure_slots=100_000, seed=7)
    m = run(dep, tess, sched, table_of(routes[:200], dep, tess),
            links.ConstantPModel(0.9), RadioParams(), cfg)
    hops = {r.connection_id: r.hop_count for r in routes[:200]}
    delivered, resolved = {}, {}
    for k, cid in enumerate(m.routes.connection_ids):
        h = hops[int(cid)]
        delivered[h] = delivered.get(h, 0) + int(m.delivered[k])
        resolved[h] = resolved.get(h, 0) + int(m.delivered[k] + m.dropped[k])
    hs = sorted(h for h in resolved if resolved[h] >= 500)
    return (np.array(hs, dtype=float), np.array([resolved[h] for h in hs]),
            np.array([delivered[h] for h in hs]))


def slope_verdict(hs, resolved, delivered, p):
    """Whether ln(delivery) on H, fitted through the origin with the weights
    ``resolved * p**H / (1 - p**H)`` (the inverse variance of each ln
    delivery when it decays as ``p**H``), recovers ln(p) and fits.

    Two checks on the last axis, each with false-alarm rate 0.1 %: the
    slope's z against ln(p) within 3.29, and the weighted residual sum of
    squares below the chi-squared upper 0.1 % point with one degree of
    freedom per hop count less one."""
    from scipy import stats

    w = resolved * p**hs / (1 - p**hs)
    with np.errstate(divide="ignore"):
        y = np.log(delivered / resolved)
    sxx = np.sum(w * hs * hs)
    slope = np.sum(w * hs * y, axis=-1, keepdims=True) / sxx
    z = (slope[..., 0] - math.log(p)) * math.sqrt(sxx)
    chi2 = np.sum(w * (y - slope * hs) ** 2, axis=-1)
    return (np.abs(z) <= 3.29) & (chi2 <= stats.chi2.isf(0.001, len(hs) - 1))


def r2_verdict(hs, resolved, delivered, p):
    """The former criterion: the least-squares line of ln(delivery) on H has
    R^2 >= 0.99 and a slope within 8 % of ln(p)."""
    with np.errstate(divide="ignore"):
        y = np.log(delivered / resolved)
    x = hs - hs.mean()
    slope = np.sum(x * y, axis=-1, keepdims=True) / np.sum(x * x)
    yc = y - y.mean(axis=-1, keepdims=True)
    r2 = 1 - np.sum((yc - slope * x) ** 2, axis=-1) / np.sum(yc**2, axis=-1)
    return (r2 >= 0.99) & (np.abs(slope[..., 0] / math.log(p) - 1) <= 0.08)


class TestDecayRegression:
    def test_pooled_log_delivery_slope_is_log_p(self, pooled_decay):
        # delivery pooled by hop count decays as p**H
        hs, resolved, delivered = pooled_decay
        assert len(hs) >= 4 and np.all(delivered > 0)
        assert slope_verdict(hs, resolved, delivered, 0.9)

    def test_criterion_on_binomial_draws(self, pooled_decay):
        # Synthetic pooled deliveries with the run's hop counts and resolved
        # counts: false alarms at the true p = 0.9, detections of a per-hop
        # loss 0.3 and 0.5 points above it, for the slope criterion and the
        # former R^2 criterion.
        hs, resolved, _ = pooled_decay
        rng = np.random.default_rng(2222)
        rates = {}
        for p in (0.9, 0.897, 0.895):
            delivered = rng.binomial(resolved, p**hs, size=(4000, len(hs)))
            rates[p] = (float(np.mean(~r2_verdict(hs, resolved, delivered, 0.9))),
                        float(np.mean(~slope_verdict(hs, resolved, delivered, 0.9))))
        print("decay regression criterion, rejection rate old/new: " + "; ".join(
            f"p={p}: {old:.4f}/{new:.4f}" for p, (old, new) in rates.items()))
        assert rates[0.9][1] < rates[0.9][0]
        assert rates[0.897][1] > rates[0.897][0]
        assert rates[0.895][1] > rates[0.895][0]


class TestAppendix:
    def test_full_report_passes(self):
        report = experiment.verify_appendix(seed=5)
        assert isinstance(report, verification.VerificationReport)
        assert all(rec.passed for rec in report.records)
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
                         "sweep.n=1", "sweep.seeds=-1,", "sweep.area_constant=-1",
                         "sweep.seeds=0", "sweep.n="]:
            out = tmp_path / override.partition("=")[0]
            argv = ["sweep", "--out", str(out)] + [f"--set={s}" for s in TINY + [override]]
            assert cli.main(argv) == 2, override
            assert not out.exists(), override
        # NaN and infinite numbers are rejected when read, before any run
        capsys.readouterr()
        for overrides in (["radio.alpha=nan"], ["radio.noise=nan"], ["link_model.a=nan"],
                          ["link_model.midpoint_db=nan"], ["sweep.area_constant=inf"],
                          ["link_model.name=threshold", "link_model.beta=nan"]):
            out = tmp_path / "non_finite"
            argv = ["sweep", "--out", str(out)] + [f"--set={s}" for s in TINY + overrides]
            assert cli.main(argv) == 2, overrides
            assert capsys.readouterr().err.startswith("configuration error:"), overrides
            assert not out.exists(), overrides

    @pytest.mark.parametrize("command", ["sweep", "schedules", "simulate"])
    @pytest.mark.parametrize("override", [
        ["link_model.name=constant_p", "link_model.p=1.5"], ["schedule.delta=2"],
        ["link_model.name=bogus"], ["link_model.a=0"],
        ["link_model.name=bpsk_packet", "link_model.bits=0"], ["engine.measure_slots=0"],
        ["engine.traffic=saturated", "engine.injection_rate=1.5"], ["radio.noise=-1"],
    ])
    def test_bad_link_model_or_delta_is_a_configuration_error(
        self, tmp_path, capsys, command, override
    ):
        # rejected when the spec is built: before any point runs or any file is written
        argv = [command, "--out", str(tmp_path / "out")]
        argv += ["--n", "250"] if command == "simulate" else []
        assert cli.main(argv + [f"--set={s}" for s in TINY + override]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert list(tmp_path.iterdir()) == []

    def test_tessellate_and_deploy(self, tmp_path, capsys):
        # both create a missing parent directory
        out = tmp_path / "new" / "nested" / "t.txt"
        code = cli.main(["tessellate", "--n", "250", "--seed", "1", "--out", str(out)])
        assert code == 0 and out.exists()
        printed = dict(f.split("=") for f in capsys.readouterr().out.split() if "=" in f)
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
        # the certificate numbers, recomputed from the exported centers:
        # closest center pair and covering radius over 2*rho_n
        two_rho = 2 * tess.rho_n
        pairs = geometry.surface_distance(tess.centers[:, None], tess.centers[None])
        gap = pairs[~np.eye(tess.num_cells, dtype=bool)].min() / two_rho
        cover = tessellation._farthest_uncovered(tess.centers)[1][0] / two_rho
        assert printed["gap_ratio"] == f"{gap:.6f}" and gap >= 1
        assert printed["cover_ratio"] == f"{cover:.6f}" and cover <= 1
        assert out.with_suffix(".schedule.txt").exists()
        out2 = tmp_path / "other" / "d.txt"
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
        # with phi(beta0), rho_n and n: the two headline rates
        argv = ["bounds", "--c1", "33", "--phi-beta0", "0.37", "--rho-n", "0.038", "--n", "2000"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        report = verification.throughput_ceilings(0.038, 34, 1.0, 0.37, n=2000)
        assert f"c0_over_n={report.c0_over_n!r}" in lines
        assert f"conservative_sqrt_form={report.conservative_sqrt_form!r}" in lines

    @pytest.mark.parametrize("argv", [
        ["bounds", "--c1", "3", "--eps2", "0"],
        ["bounds", "--c1", "3", "--eps2", "-0.5"],
        ["bounds", "--c1", "-3"],
        ["bounds", "--c1", "33", "--phi-beta0", "0.37", "--rho-n", "0.038", "--n", "1"],
        ["bounds", "--c1", "33", "--phi-beta0", "0.37", "--rho-n", "0", "--n", "2000"],
        ["bounds", "--c1", "33", "--phi-beta0", "0.37", "--rho-n", "-0.1", "--n", "2000"],
        ["appendix", "--pairs", "0"],
        ["appendix", "--pairs", "1"],
        ["deploy", "--n", "10", "--seed", "-1"],
        ["appendix", "--seed", "-1"],
        ["bounds", "--c1", "3", "--rho-n", "-1", "--n", "1"],
        ["bounds", "--c1", "3", "--rho-n", "0.038"],
        ["bounds", "--c1", "3", "--n", "2000"],
        ["bounds", "--c1", "33", "--phi-beta0", "0.37", "--n", "2000"],
        ["bounds", "--c1", "33", "--phi-beta0", "0.37", "--rho-n", "0.038",
         "--injection-rate", "-2"],
        ["bounds", "--c1", "33", "--phi-beta0", "0.37", "--rho-n", "0.038",
         "--injection-rate", "1.5"],
        ["simulate", "--n", "250", "--set", "link_model.name=bpsk_packet",
         "--set", "link_model.bits=2.5"],
        ["bounds", "--c1", "3", "--alpha", "nan"],
        ["bounds", "--c1", "3", "--eps1", "nan"],
        ["bounds", "--c1", "nan"],
        ["bounds", "--c1", "inf", "--alpha", "inf"],
        ["bounds", "--c1", "3", "--phi-beta0", "0.37", "--rho-n", "inf"],
        ["bounds", "--c1", "inf"],
        ["bounds", "--c1", "3", "--alpha", "inf"],
    ])
    def test_out_of_range_input_is_a_configuration_error(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert captured.out == ""

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

    def test_verify_saturated_claims_hold(self, tmp_path, capsys):
        out = tmp_path / "claims"
        code = cli.main(["verify", "--n", "2000", "--seed", "0", "--out", str(out),
                         "--set", "engine.traffic=saturated",
                         "--set", "engine.injection_rate=0.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n=2000 rho_n=") and " K=" in lines[0]
        assert lines[1].startswith("t0=") and " beta1=" in lines[1]
        cells, K = (int(f.split("=")[1]) for f in lines[0].split()[2:4])
        assert lines[2].startswith("cells per slot: min=")
        assert lines[2].endswith(f" mean={cells / K:.2f}")  # each cell has one slot
        for check_id in ("consecutive_short_hops", "hop_count", "interferer_proximity",
                         "short_hops", "sinr_bounded_fraction"):
            assert f"{check_id}: pass rate 1.000" in lines
        detail = (out / "verification_detail.csv").read_text()
        assert detail.startswith("# schema=verification_detail_v1\n")

    @pytest.mark.parametrize("check_id, failing, code", [
        ("short_hops", 1, 1),
        ("interferer_proximity", 1, 1),
        ("sinr_bounded_fraction", 2, 1),  # 90 % of its records pass
        ("sinr_bounded_fraction", 1, 0),  # 95 %
        ("delivery_prediction", 20, 0),
    ])
    def test_verify_exit_rule(self, tmp_path, monkeypatch, check_id, failing, code):
        real = experiment.run_point

        def tampered(*args):
            res = real(*args)
            res.report.add(verification.CheckTable(
                check_id, np.arange(20), np.zeros(20), np.ones(20), np.arange(20) >= failing))
            return res

        monkeypatch.setattr(experiment, "run_point", tampered)
        argv = ["verify", "--n", "250", "--seed", "0", "--out", str(tmp_path)]
        assert cli.main(argv + [f"--set={s}" for s in TINY]) == code

    def test_verify_prints_the_median_sinr(self, tmp_path, capsys, monkeypatch):
        real, points = experiment.run_single, []  # the point verify ran
        monkeypatch.setattr(experiment, "run_single",
                            lambda *a: points.append(real(*a)) or points[0])
        argv = ["verify", "--n", "250", "--seed", "2", "--out", str(tmp_path),
                "--set=engine.traffic=saturated", "--set=engine.injection_rate=0.0",
                "--set=engine.measure_slots=200", "--set=sweep.track_connections=40"]
        cli.main(argv)
        gamma = points[0].metrics.hop_gamma
        line = next(x for x in capsys.readouterr().out.splitlines() if "per-hop SINR" in x)
        assert line.endswith(f" median={np.median(gamma):.4g}")
        # an even hop count, whose upper middle value prints differently
        assert len(gamma) % 2 == 0
        assert f"{np.sort(gamma)[len(gamma) // 2]:.4g}" != f"{np.median(gamma):.4g}"

    def test_verify_ignores_delivery_prediction(self, tmp_path, capsys):
        code = cli.main(["verify", "--n", "500", "--seed", "0", "--out", str(tmp_path)])
        rates = dict(line.split(": pass rate ") for line in capsys.readouterr().out.splitlines()
                     if ": pass rate " in line)
        assert float(rates["delivery_prediction"]) < 1.0
        assert code == 0

    def test_schedules_subcommand(self, tmp_path, capsys):
        out = tmp_path / "schedules"
        code = cli.main(["schedules", "--out", str(out),
                         "--set=sweep.n=500,1000,2000,4000", "--set=sweep.seeds=1"])
        assert code == 0
        lines = (out / "schedule_comparison.csv").read_text().splitlines()
        assert lines[:2] == ["# schema=schedule_comparison_v1",
                             "n,seed,regime,K,sinr_p5,sinr_p50,sinr_p95"]
        assert [line.split(",")[:3] for line in lines[2:]] == [
            [str(n), "0", regime] for n in (500, 1000, 2000, 4000)
            for regime in ("fixed", "conservative")
        ]
        assert (out / "config.resolved.ini").exists()

    def test_schedules_fixed_row_matches_run_point(self, tmp_path):
        spec = tiny_spec(tmp_path, ["sweep.seeds=0,", "engine.traffic=saturated",
                                    "engine.injection_rate=0.0"])
        fixed = experiment.run_schedules(spec)[0]
        res = experiment.run_point(spec, 250, 0)
        assert fixed[:4] == [250, 0, "fixed", res.schedule.num_colors]
        assert float(fixed[4]) == np.percentile(res.metrics.hop_gamma, 5)

    def test_desk_config_sweep(self, tmp_path):
        out = tmp_path / "desk"
        code = cli.main(["sweep", "--config", str(ROOT / "configs" / "desk.ini"),
                         "--out", str(out)]
                        + [f"--set={s}" for s in TINY + ["sweep.seeds=1"]])
        assert code == 0
        for name in experiment.SWEEP_CSVS:
            schema = experiment.CSV_LAYOUTS[name][0]
            assert (out / name).read_text().startswith(f"# schema={schema}\n"), name

    def test_invariant_failure_exit_code(self, tmp_path, monkeypatch):
        import adhocsim.experiment as exp

        monkeypatch.setattr(exp, "run_sweep", lambda spec: False)
        code = cli.main(["sweep", "--out", str(tmp_path / "f")] + [f"--set={s}" for s in TINY])
        assert code == 1
