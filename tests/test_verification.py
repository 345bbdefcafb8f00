import math

import numpy as np
import pytest

from adhocsim import experiment, geometry, links, routing, scheduling, verification
from adhocsim.engine import EngineConfig, run
from adhocsim.errors import ConfigurationError, SaturationError

RADIO = links.RadioParams()


def bisect_t0(eps1, tol=1e-12):
    """Oracle for the short-hop threshold root, independent of the solver."""
    target = 0.125 - eps1
    lo, hi = 1e-12, math.pi / 16
    f = lambda t: (1 - 16 * t / math.pi) / (8 - t) - target
    assert f(lo) > 0 > f(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestComputeBounds:
    def test_t0_matches_oracle(self):
        expected = bisect_t0(1 / 32)
        assert expected == pytest.approx(0.0500, abs=1e-3)
        b = verification.compute_bounds(c1=0.0)
        assert b.t0 == pytest.approx(expected, abs=1e-9)

    def test_t0_consistency(self):
        b = verification.compute_bounds(c1=5.0)
        assert verification.short_hop_fraction(b.t0) == pytest.approx(
            0.125 - b.eps1, abs=1e-9
        )

    def test_m0_algebra(self):
        # eps2 = 1/32 gives m0 = 64 * (1 + c1); plugging back 2(1+c1)/m0 = eps2
        for c1 in (0.0, 12.0, 36.0):
            b = verification.compute_bounds(c1=c1)
            assert b.m0 == pytest.approx(64.0 * (1 + c1))
            assert 2 * (1 + c1) / b.m0 == pytest.approx(b.eps2, abs=1e-12)
            assert b.m0 > 9
            assert b.m0_arbitrary == pytest.approx(1280.0 * (1 + c1))
            assert b.m0_arbitrary > 16

    def test_beta_formulas(self):
        b = verification.compute_bounds(alpha=3.0, c1=10.0)
        assert b.beta0 == pytest.approx(((b.m0 + 8) / b.t0) ** 3, rel=1e-12)
        assert b.beta1 == pytest.approx(100.0**3 * (b.m0_arbitrary + 8) ** 3, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            verification.compute_bounds(eps1=0.1, eps2=0.1)
        with pytest.raises(ConfigurationError):
            verification.compute_bounds(alpha=1.5)
        # c1 >= 0 and 0 < eps2 < 1/8 keep m0 above the interferer-proximity
        # minimum of 16
        for kwargs in ({"c1": -1.0}, {"c1": -3.0}, {"c1": 3.0, "eps2": 0.0},
                       {"c1": 3.0, "eps2": -0.5}):
            with pytest.raises(ConfigurationError):
                verification.compute_bounds(**kwargs)

    def test_c0_requires_valid_phi(self):
        b = verification.compute_bounds(c1=0.0, phi_of_beta0=math.exp(-1.0))
        assert b.c0 == pytest.approx(4096.0, rel=1e-12)
        with pytest.raises(ConfigurationError):
            verification.compute_bounds(c1=0.0, phi_of_beta0=1.5)


def synthetic_route(cells, hop_lengths, length, cid=0):
    return routing.Route(
        connection_id=cid,
        cells=cells,
        relays=list(range(len(cells) + 1)),
        hop_lengths=np.asarray(hop_lengths, dtype=float),
        length=length,
    )


class TestHopCountCheck:
    def test_pass_on_real_routes(self, small_instance):
        _, tess, _, _, routes = small_instance
        recs = [verification.check_hop_count(r, tess.rho_n) for r in routes]
        assert all(r.passed for r in recs)

    def test_negative_control_records_numbers(self):
        # 60 hops over a geodesic of 1 cell-scale is far beyond the ceiling
        rho = 0.02
        route = synthetic_route(list(range(61)), [0.5 * rho] * 60, 0.04)
        rec = verification.check_hop_count(route, rho)
        assert not rec.passed
        assert rec.lhs == 60
        assert rec.rhs == pytest.approx(16 * (0.04 + 8 * rho) / (math.pi * rho))

    def test_single_hop_near_pair_passes_exact_form_only(self):
        # source and destination almost on top of each other: one hop violates
        # the asymptotic ceiling 16 L / (pi rho) but not the finite-size form
        rho = 0.02
        route = synthetic_route([0], [0.001 * rho], 0.001 * rho)
        rec = verification.check_hop_count(route, rho)
        assert rec.passed
        assert rec.lhs > 16 * route.length / (math.pi * rho)


class TestShortHopsCheck:
    def test_pass_on_real_routes(self, small_instance):
        _, tess, _, _, routes = small_instance
        t0 = verification.compute_bounds(c1=0.0).t0
        recs = [verification.check_short_hops(r, tess.rho_n, t0) for r in routes]
        assert all(r.passed for r in recs)

    def test_limit_recovers_hop_count_floor(self):
        # as t -> 0 the floor approaches L / (8 rho)
        rho, L = 0.05, 0.6
        route = synthetic_route(list(range(10)), [L / 9] * 9, L)
        rec = verification.check_short_hops(route, rho, 1e-9)
        assert rec.rhs == pytest.approx(L / (8 * rho), rel=1e-6)

    def test_all_long_hops_trivially_pass(self):
        rho = 0.05
        route = synthetic_route(list(range(5)), [6 * rho] * 4, 20 * rho)
        rec = verification.check_short_hops(route, rho, 0.05)
        assert rec.passed
        assert "h_short=0" in rec.detail

    def test_t_domain(self):
        route = synthetic_route([0, 1], [0.1], 0.1)
        with pytest.raises(ConfigurationError):
            verification.check_short_hops(route, 0.05, 0.5)


class TestConsecutiveShortHops:
    def test_cell_bound_value(self):
        assert verification.SHORT_HOP_CELL_BOUND == pytest.approx(38.72, abs=1e-12)

    def test_max_run_counting(self):
        rho = 0.1
        hops = [0.005 * rho, 0.005 * rho, 2 * rho, 0.009 * rho, 0.01 * rho, 0.02 * rho]
        route = synthetic_route(list(range(7)), hops, 2 * rho)
        assert verification.max_short_run(route, rho) == 2

    def test_zero_runs_on_straight_routes(self, small_instance):
        _, tess, _, _, routes = small_instance
        recs = [verification.check_consecutive_short_hops(r, tess.rho_n) for r in routes]
        assert all(r.passed for r in recs)
        assert max(r.lhs for r in recs) < 40

    def test_synthetic_violation_detected(self):
        rho = 0.1
        route = synthetic_route(list(range(41)), [0.005 * rho] * 40, 0.02 * rho)
        rec = verification.check_consecutive_short_hops(route, rho)
        assert not rec.passed
        assert rec.lhs == 40


def bounds_of(sched):
    """The default bound set of a schedule, c1 = K - 1."""
    return verification.compute_bounds(c1=sched.num_colors - 1)


@pytest.fixture(scope="module")
def saturated_run(small_instance):
    dep, tess, sched, _, routes = small_instance
    cfg = EngineConfig(
        injection_rate=0.0, traffic="saturated", measure_slots=sched.num_colors, seed=71
    )
    metrics = run(dep, tess, sched, routes, links.LogisticModel(), RADIO, cfg)
    return metrics, routes, sched, tess


class TestInterfererProximity:
    def test_requires_saturated_trace(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        cfg = EngineConfig(injection_rate=0.01, measure_slots=500, seed=73)
        m = run(dep, tess, sched, routes[:10], links.ConstantPModel(0.5), RADIO, cfg)
        with pytest.raises(SaturationError):
            verification.check_interferer_proximity(m, routes[:10], bounds_of(sched), tess.rho_n)

    def test_single_color_schedule_counts_zero(self, small_instance):
        # every cell transmits every slot, so every interior hop has an
        # interferer somewhere within the (m+8)*rho radius
        dep, tess, _, _, routes = small_instance
        one_color = scheduling.Schedule(
            color_of_cell=np.zeros(tess.num_cells, dtype=np.int64),
            conflict_multiplier=12.0,
            regime="fixed",
        )
        cfg = EngineConfig(injection_rate=0.0, traffic="saturated", measure_slots=1, seed=79)
        m = run(dep, tess, one_color, routes, links.ConstantPModel(0.5), RADIO, cfg)
        # K = 1 and eps2 = 1/16 give m = 2/eps2 = 32
        bounds = verification.compute_bounds(eps2=1 / 16, c1=0)
        assert bounds.m0 == 32.0
        recs = verification.check_interferer_proximity(m, routes, bounds, tess.rho_n)
        assert all(r.passed for r in recs)
        assert all(r.lhs == 0 for r in recs)
        long = [r for r in recs if r.rhs > 0]
        assert long  # bound (L/rho) * 2/32 is positive for long connections

    def test_counts_fall_as_m_grows(self, saturated_run):
        # A smaller eps2 gives a larger m and so a wider (m+8)*rho radius,
        # inside which more hops find an interferer.  At the instance's own
        # rho_n every such radius exceeds the sphere's diameter, so the scale
        # passed keeps the widest one below it.
        metrics, routes, sched, _ = saturated_run
        all_bounds = [verification.compute_bounds(eps2=eps2, c1=sched.num_colors - 1)
                      for eps2 in (0.09, 0.06, 0.04, 1 / 32)]
        rho = 0.9 * geometry.MAX_DISTANCE / (all_bounds[-1].m0 + 8.0)
        counts = [sum(r.lhs for r in verification.check_interferer_proximity(
            metrics, routes, bounds, rho)) for bounds in all_bounds]
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts
        assert counts[0] > counts[-1], counts

    def test_single_hop_route_excluded_entirely(self, saturated_run):
        metrics, routes, sched, tess = saturated_run
        singles = [r for r in routes if r.hop_count <= 2][:3]
        recs = verification.check_interferer_proximity(
            metrics, singles, bounds_of(sched), tess.rho_n
        )
        # no interior hops to count once source and destination hops drop out
        assert all(r.lhs == 0 for r in recs)

    def test_records_carry_numbers(self, saturated_run):
        metrics, routes, sched, tess = saturated_run
        bounds = bounds_of(sched)
        recs = verification.check_interferer_proximity(metrics, routes, bounds, tess.rho_n)
        length_of = {r.connection_id: r.length for r in routes}
        assert all(r.rhs == (length_of[r.connection_id] / tess.rho_n) * 2.0
                   * sched.num_colors / bounds.m0 for r in recs)  # K = c1 + 1
        assert all(r.detail.startswith(f"m={bounds.m0!r} radius=") for r in recs)
        arbitrary = verification.check_interferer_proximity(
            metrics, routes, bounds, tess.rho_n, arbitrary=True)
        assert all(r.detail.startswith(f"m={bounds.m0_arbitrary!r} ") for r in arbitrary)


class TestSinrBoundedFraction:
    def test_pass_rates(self, saturated_run):
        metrics, routes, sched, tess = saturated_run
        bounds = verification.compute_bounds(alpha=RADIO.alpha, c1=sched.num_colors - 1)
        recs = verification.check_sinr_bounded_fraction(metrics, routes, bounds, tess.rho_n)
        rate = sum(r.passed for r in recs) / len(recs)
        assert rate >= 0.95

    def test_beta0_recomputed_identically(self, saturated_run):
        *_, sched, _ = saturated_run
        a = verification.compute_bounds(alpha=3.0, c1=sched.num_colors - 1)
        b = verification.compute_bounds(alpha=3.0, c1=sched.num_colors - 1)
        assert a.beta0 == b.beta0  # same formula, bit for bit
        assert a.beta0 == ((a.m0 + 8.0) / a.t0) ** 3.0

    def test_short_connection_trivially_passes(self, saturated_run):
        metrics, routes, sched, tess = saturated_run
        bounds = verification.compute_bounds(alpha=RADIO.alpha, c1=sched.num_colors - 1)
        short = [r for r in routes if r.length < 16 * tess.rho_n][:1]
        recs = verification.check_sinr_bounded_fraction(metrics, short, bounds, tess.rho_n)
        assert recs[0].passed
        assert recs[0].rhs < 1.0


class TestThroughputCeilings:
    def test_c0_at_exp_minus_one(self):
        rep = verification.throughput_ceilings(0.05, 10, 0.01, math.exp(-1.0))
        assert rep.c0 == pytest.approx(4096.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            verification.throughput_ceilings(0.05, 10, 0.01, 1.0)
        with pytest.raises(ConfigurationError):
            verification.throughput_ceilings(0.05, 10, 0.01, 0.0)

    def test_ceilings_blow_up_as_phi_approaches_one(self):
        lo = verification.throughput_ceilings(0.05, 10, 1.0, 0.5)
        hi = verification.throughput_ceilings(0.05, 10, 1.0, 1 - 1e-9)
        assert hi.lambda_bound > 1e10 * lo.lambda_bound

    def test_full_report_with_n(self):
        rep = verification.throughput_ceilings(0.04, 20, 0.01, 0.5, n=2000)
        assert rep.c0_over_n == pytest.approx(rep.c0 / 2000)
        assert rep.conservative_ceiling == pytest.approx(1 / (2000 * 0.04 * 20))
        assert rep.conservative_sqrt_form == pytest.approx(
            1 / (20 * math.sqrt(2000 * math.log(2000)))
        )
        assert rep.occupancy_ceiling == pytest.approx(4 / (math.pi * 2000 * 0.04**2))

    @pytest.mark.parametrize("rho,phi", [(0.05, 0.3), (0.1, 0.9), (0.02, 0.5)])
    def test_stepwise_equals_direct(self, rho, phi):
        a = verification.delivery_decay_direct(1.0, rho, phi)
        b = verification.delivery_decay_stepwise(1.0, rho, phi)
        assert a == pytest.approx(b, abs=1e-12)
        # and the closed chain stays below the simple ceiling
        cap = verification.throughput_ceilings(rho, 1, 1.0, phi).lambda_bound
        assert b < cap


class TestDeliveryPrediction:
    def test_constant_p_prediction(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        cfg = EngineConfig(injection_rate=0.01, measure_slots=40_000, seed=83)
        m = run(dep, tess, sched, routes[:40], links.ConstantPModel(0.8), RADIO, cfg)
        recs = verification.delivery_prediction(m, routes[:40], links.ConstantPModel(0.8), 1)
        assert len(recs) >= 30
        for r in recs:
            route = next(x for x in routes if x.connection_id == r.connection_id)
            assert r.rhs == pytest.approx(0.8**route.hop_count, rel=1e-12)
        assert sum(r.passed for r in recs) / len(recs) >= 0.9

    def test_route_not_in_the_run_raises(self, small_instance):
        # each checker looks every route up: none is skipped or read another's hops
        dep, tess, sched, _, routes = small_instance
        cfg = EngineConfig(injection_rate=0.01, traffic="saturated",
                           measure_slots=sched.num_colors, seed=83)
        model = links.ConstantPModel(0.8)
        m = run(dep, tess, sched, routes[:10:2], model, RADIO, cfg)
        bounds = verification.compute_bounds(alpha=RADIO.alpha, c1=sched.num_colors - 1)
        checks = [
            lambda rs: verification.delivery_prediction(m, rs, model, 1),
            lambda rs: verification.check_interferer_proximity(m, rs, bounds, tess.rho_n),
            lambda rs: verification.check_sinr_bounded_fraction(m, rs, bounds, tess.rho_n),
        ]
        for check in checks:
            check(routes[:10:2])
            with pytest.raises(KeyError):
                check(routes[:10])


class TestReport:
    def test_csv_and_text(self, tmp_path, small_instance):
        _, tess, _, _, routes = small_instance
        report = verification.VerificationReport()
        report.records = [verification.check_hop_count(r, tess.rho_n) for r in routes[:20]]
        with experiment.CsvWriter(tmp_path, ["verification_detail.csv"]) as writer:
            writer.write("verification_detail.csv", experiment.detail_rows(report))
        lines = (tmp_path / "verification_detail.csv").read_text().splitlines()
        assert lines[0] == "# schema=verification_detail_v1"
        assert lines[1].split(",")[:4] == ["check_id", "connection_id", "lhs", "rhs"]
        assert len(lines) == 22
        report.write_text(tmp_path / "verif.txt")
        assert "hop_count" in (tmp_path / "verif.txt").read_text()
        assert report.pass_rate("hop_count") == 1.0
        assert all(r.passed for r in report.records)
