import math
from itertools import accumulate

import numpy as np
import pytest

from adhocsim import experiment, geometry, links, routing, scheduling, verification
from adhocsim.engine import EngineConfig, RunMetrics, run
from adhocsim.errors import ConfigurationError, SaturationError
from conftest import table_of

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
    hop_lengths = np.asarray(hop_lengths, dtype=float)
    return routing.Route(
        connection_id=cid,
        cells=cells,
        relays=list(range(len(cells) + 1)),
        hop_lengths=hop_lengths,
        length=length,
        path_length=float(hop_lengths.sum()),
    )


def layout(routes):
    """Hand-made routes, whose hop lengths no deployment measures, laid out
    as a ``routing.RouteTable`` route by route in ascending connection id;
    each hop is its own link."""
    routes = sorted(routes, key=lambda r: r.connection_id)
    counts = [r.hop_count for r in routes]
    cell = [c for r in routes for c in r.cells[:r.hop_count]]
    next_cell = [c for r in routes for c in [*r.cells[1:r.hop_count], -1]]

    def ints(values):
        return np.array(values, dtype=np.int64)

    return routing.RouteTable(
        connection_ids=ints([r.connection_id for r in routes]),
        length=np.array([r.length for r in routes], dtype=float),
        path_length=np.array([r.path_length for r in routes], dtype=float),
        offsets=ints(list(accumulate(counts, initial=0))),
        cell=ints(cell), tx=ints([x for r in routes for x in r.relays[:-1]]),
        rx=ints([x for r in routes for x in r.relays[1:]]), next_cell=ints(next_cell),
        hop_length=np.concatenate([r.hop_lengths for r in routes]) if routes else np.empty(0),
        link=np.arange(len(cell)),
    )


class TestHopCountCheck:
    def test_pass_on_real_routes(self, small_instance):
        dep, tess, _, _, routes, _ = small_instance
        table = verification.check_hop_count(table_of(routes, dep, tess), tess.rho_n)
        assert table.passed.all()

    def test_negative_control_records_numbers(self):
        # 60 hops over a geodesic of 1 cell-scale is far beyond the ceiling
        rho = 0.02
        route = synthetic_route(list(range(61)), [0.5 * rho] * 60, 0.04)
        table = verification.check_hop_count(layout([route]), rho)
        assert not table.passed[0]
        assert table.lhs[0] == 60
        assert table.rhs[0] == pytest.approx(16 * (0.04 + 8 * rho) / (math.pi * rho))

    def test_single_hop_near_pair_passes_exact_form_only(self):
        # source and destination almost on top of each other: one hop violates
        # the asymptotic ceiling 16 L / (pi rho) but not the finite-size form
        rho = 0.02
        route = synthetic_route([0], [0.001 * rho], 0.001 * rho)
        table = verification.check_hop_count(layout([route]), rho)
        assert table.passed[0]
        assert table.lhs[0] > 16 * route.length / (math.pi * rho)


class TestShortHopsCheck:
    def test_pass_on_real_routes(self, small_instance):
        dep, tess, _, _, routes, _ = small_instance
        t0 = verification.compute_bounds(c1=0.0).t0
        table = verification.check_short_hops(table_of(routes, dep, tess), tess.rho_n, t0)
        assert table.passed.all()

    def test_limit_recovers_hop_count_floor(self):
        # as t -> 0 the floor approaches L / (8 rho)
        rho, L = 0.05, 0.6
        route = synthetic_route(list(range(10)), [L / 9] * 9, L)
        table = verification.check_short_hops(layout([route]), rho, 1e-9)
        assert table.rhs[0] == pytest.approx(L / (8 * rho), rel=1e-6)

    def test_all_long_hops_trivially_pass(self):
        rho = 0.05
        route = synthetic_route(list(range(5)), [6 * rho] * 4, 20 * rho)
        table = verification.check_short_hops(layout([route]), rho, 0.05)
        assert table.passed[0]
        assert "h_short=0" in table.details()[0]

    def test_t_domain(self):
        route = synthetic_route([0, 1], [0.1], 0.1)
        with pytest.raises(ConfigurationError):
            verification.check_short_hops(layout([route]), 0.05, 0.5)


class TestConsecutiveShortHops:
    def test_cell_bound_value(self):
        assert verification.SHORT_HOP_CELL_BOUND == pytest.approx(38.72, abs=1e-12)

    def test_max_run_counting(self):
        rho = 0.1
        hops = [0.005 * rho, 0.005 * rho, 2 * rho, 0.009 * rho, 0.01 * rho, 0.02 * rho]
        route = synthetic_route(list(range(7)), hops, 2 * rho)
        assert verification.max_short_run(layout([route]), rho).tolist() == [2]

    def test_zero_runs_on_straight_routes(self, small_instance):
        dep, tess, _, _, routes, _ = small_instance
        table = verification.check_consecutive_short_hops(table_of(routes, dep, tess),
                                                          tess.rho_n)
        assert table.passed.all()
        assert table.lhs.max() < 40

    def test_synthetic_violation_detected(self):
        rho = 0.1
        route = synthetic_route(list(range(41)), [0.005 * rho] * 40, 0.02 * rho)
        table = verification.check_consecutive_short_hops(layout([route]), rho)
        assert not table.passed[0]
        assert table.lhs[0] == 40


def bounds_of(sched):
    """The default bound set of a schedule, c1 = K - 1."""
    return verification.compute_bounds(c1=sched.num_colors - 1)


@pytest.fixture(scope="module")
def saturated_run(small_instance):
    dep, tess, sched, _, routes, _ = small_instance
    cfg = EngineConfig(
        injection_rate=0.0, traffic="saturated", measure_slots=sched.num_colors, seed=71
    )
    metrics = run(dep, tess, sched, table_of(routes, dep, tess), links.LogisticModel(), RADIO, cfg)
    return metrics, routes, sched, tess


class TestInterfererProximity:
    def test_requires_saturated_trace(self, small_instance):
        dep, tess, sched, _, routes, _ = small_instance
        cfg = EngineConfig(injection_rate=0.01, measure_slots=500, seed=73)
        m = run(dep, tess, sched, table_of(routes[:10], dep, tess),
                links.ConstantPModel(0.5), RADIO, cfg)
        with pytest.raises(SaturationError):
            verification.check_interferer_proximity(m, bounds_of(sched), tess.rho_n)

    def test_single_color_schedule_counts_zero(self, small_instance):
        # every cell transmits every slot, so every interior hop has an
        # interferer somewhere within the (m+8)*rho radius
        dep, tess, _, _, routes, _ = small_instance
        one_color = scheduling.Schedule(
            color_of_cell=np.zeros(tess.num_cells, dtype=np.int64),
            conflict_multiplier=12.0,
            regime="fixed",
        )
        cfg = EngineConfig(injection_rate=0.0, traffic="saturated", measure_slots=1, seed=79)
        m = run(dep, tess, one_color, table_of(routes, dep, tess),
                links.ConstantPModel(0.5), RADIO, cfg)
        # K = 1 and eps2 = 1/16 give m = 2/eps2 = 32
        bounds = verification.compute_bounds(eps2=1 / 16, c1=0)
        assert bounds.m0 == 32.0
        table = verification.check_interferer_proximity(m, bounds, tess.rho_n)
        assert table.passed.all()
        assert (table.lhs == 0).all()
        # bound (L/rho) * 2/32 is positive for long connections
        assert (table.rhs > 0).any()

    def test_counts_fall_as_m_grows(self, saturated_run):
        # A smaller eps2 gives a larger m and so a wider (m+8)*rho radius,
        # inside which more hops find an interferer.  At the instance's own
        # rho_n every such radius exceeds the sphere's diameter, so the scale
        # passed keeps the widest one below it.
        metrics, routes, sched, _ = saturated_run
        all_bounds = [verification.compute_bounds(eps2=eps2, c1=sched.num_colors - 1)
                      for eps2 in (0.09, 0.06, 0.04, 1 / 32)]
        rho = 0.9 * geometry.MAX_DISTANCE / (all_bounds[-1].m0 + 8.0)
        counts = [verification.check_interferer_proximity(metrics, bounds, rho).lhs.sum()
                  for bounds in all_bounds]
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts
        assert counts[0] > counts[-1], counts

    def test_single_hop_route_excluded_entirely(self, saturated_run):
        metrics, routes, sched, tess = saturated_run
        singles = metrics.routes.hop_count <= 2
        table = verification.check_interferer_proximity(metrics, bounds_of(sched), tess.rho_n)
        # no interior hops to count once source and destination hops drop out
        assert singles.sum() >= 3 and (table.lhs[singles] == 0).all()

    def test_records_carry_numbers(self, saturated_run):
        metrics, routes, sched, tess = saturated_run
        bounds = bounds_of(sched)
        table = verification.check_interferer_proximity(metrics, bounds, tess.rho_n)
        length_of = {r.connection_id: r.length for r in routes}
        assert all(rhs == (length_of[cid] / tess.rho_n) * 2.0
                   * sched.num_colors / bounds.m0  # K = c1 + 1
                   for cid, rhs in zip(table.connection_ids.tolist(), table.rhs.tolist()))
        assert all(d.startswith(f"m={bounds.m0!r} radius=") for d in table.details())
        arbitrary = verification.check_interferer_proximity(
            metrics, bounds, tess.rho_n, arbitrary=True)
        assert all(d.startswith(f"m={bounds.m0_arbitrary!r} ") for d in arbitrary.details())


class TestSinrBoundedFraction:
    def test_pass_rates(self, saturated_run):
        metrics, routes, sched, tess = saturated_run
        bounds = verification.compute_bounds(alpha=RADIO.alpha, c1=sched.num_colors - 1)
        table = verification.check_sinr_bounded_fraction(metrics, bounds, tess.rho_n)
        rate = table.passed.sum() / len(table)
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
        short = np.flatnonzero(metrics.routes.length < 16 * tess.rho_n)[0]
        table = verification.check_sinr_bounded_fraction(metrics, bounds, tess.rho_n)
        assert table.passed[short]
        assert table.rhs[short] < 1.0


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
        dep, tess, sched, _, routes, _ = small_instance
        cfg = EngineConfig(injection_rate=0.01, measure_slots=40_000, seed=83)
        m = run(dep, tess, sched, table_of(routes[:40], dep, tess),
                links.ConstantPModel(0.8), RADIO, cfg)
        table = verification.delivery_prediction(m, links.ConstantPModel(0.8), 1)
        assert len(table) >= 30
        for cid, rhs in zip(table.connection_ids.tolist(), table.rhs.tolist()):
            route = next(x for x in routes if x.connection_id == cid)
            assert rhs == pytest.approx(0.8**route.hop_count, rel=1e-12)
        assert table.passed.sum() / len(table) >= 0.9


class TestReport:
    def test_csv_and_text(self, tmp_path, small_instance):
        dep, tess, _, _, routes, _ = small_instance
        report = verification.VerificationReport()
        report.add(verification.check_hop_count(table_of(routes[:20], dep, tess), tess.rho_n))
        with experiment.CsvWriter(tmp_path, ["verification_detail.csv"]) as writer:
            writer.write("verification_detail.csv",
                         experiment.verification_rows(report, detail=True))
        lines = (tmp_path / "verification_detail.csv").read_text().splitlines()
        assert lines[0] == "# schema=verification_detail_v1"
        assert lines[1].split(",")[:4] == ["check_id", "connection_id", "lhs", "rhs"]
        assert len(lines) == 22
        report.write_text(tmp_path / "verif.txt")
        assert "hop_count" in (tmp_path / "verif.txt").read_text()
        assert report.pass_rate("hop_count") == 1.0
        assert report.pass_counts() == {"hop_count": (20, 20)}

    def test_text_formats_the_failing_details_alone(self, tmp_path, monkeypatch):
        # Failures in two per-route checks and one of the whole run: the text
        # is the one written from ``records``, and the only detail strings
        # formatted are those of the failing records.
        rho = 0.02
        table = layout(crafted_routes(rho))
        report = verification.VerificationReport()
        report.add(verification.check_hop_count(table, rho),
                   verification.check_short_hops(table, rho, verification.SHORT_HOP_T),
                   verification.check_consecutive_short_hops(table, rho))
        for t in experiment.verify_appendix(seed=3, pairs=20_000).tables:
            report.add(t)
        records = [tuple(vars(r).values()) for r in report.records]
        assert len({r[0] for r in records if not r[4]}) >= 3
        formatted = []
        details = verification.CheckTable.details
        monkeypatch.setattr(verification.CheckTable, "details",
                            lambda t, rows: formatted.extend(details(t, rows)) or details(t, rows))
        report.write_text(tmp_path / "verification.txt")
        assert (tmp_path / "verification.txt").read_text() == reference_text(records)
        assert sorted(formatted) == sorted(r[5] for r in records if not r[4])


# --- the record-by-record checkers and formatter: the reference ---------------
# The tables must give every record these functions give, value for value,
# and the files written from them must equal these functions' bytes.

def reference_route_records(routes, rho_n, t, straight=True):
    """The per-route records, route by route: hop_count, short_hops and
    consecutive_short_hops (the last alone unless ``straight``)."""
    records = []
    for r in routes:
        if straight:
            lower = max(r.length / (8.0 * rho_n), 1.0)
            upper_asym = 16.0 * r.length / (math.pi * rho_n)
            upper = 16.0 * (r.length + 8.0 * rho_n) / (math.pi * rho_n)
            h = r.hop_count
            records.append(("hop_count", r.connection_id, float(h), upper, lower <= h <= upper,
                            f"lower={lower!r} upper_asymptotic={upper_asym!r}"))
            h_short = sum(1 for hop in r.hop_lengths.tolist() if hop < t * rho_n)
            long_hops = r.hop_count - h_short
            ratio = r.length / rho_n
            floor_asym = ratio * verification.short_hop_fraction(t)
            floor = (ratio * (1.0 - 16.0 * t / math.pi) - 128.0 * t / math.pi) / (8.0 - t)
            records.append(("short_hops", r.connection_id, float(long_hops), floor,
                            long_hops >= floor,
                            f"t={t!r} h_short={h_short} floor_asymptotic={floor_asym!r}"))
        best = run = 0
        for hop in r.hop_lengths.tolist():
            run = run + 1 if hop <= verification.SHORT_HOP_T * rho_n else 0
            best = max(best, run)
        records.append(("consecutive_short_hops", r.connection_id, float(best),
                        float(verification.SHORT_HOP_W), best < verification.SHORT_HOP_W,
                        f"cell_bound={verification.SHORT_HOP_CELL_BOUND!r}"))
    return records


def reference_hops(metrics, route):
    """The run's index of ``route`` and the first and end index of its hops."""
    k = metrics.routes.connection_ids.tolist().index(route.connection_id)
    return k, int(metrics.routes.offsets[k]), int(metrics.routes.offsets[k + 1])


def reference_interior(metrics, route, hit):
    """The route's interior hops (all but its first and last) where ``hit`` is set."""
    _, lo, hi = reference_hops(metrics, route)
    return int(sum(hit[lo + 1:hi - 1].tolist()))


def reference_saturated_records(metrics, routes, bounds, rho_n, arbitrary=False):
    m = bounds.m0_arbitrary if arbitrary else bounds.m0
    radius = (m + 8.0) * rho_n
    ceiling = bounds.beta1 if arbitrary else bounds.beta0
    proximity, sinr_bounded = [], []
    for r in routes:
        isolated = reference_interior(metrics, r, metrics.hop_nearest > radius)
        length = r.path_length if arbitrary else r.length
        bound = (length / rho_n) * 2.0 * (bounds.c1 + 1) / m
        proximity.append(("interferer_proximity", r.connection_id, float(isolated), bound,
                          isolated <= bound,
                          f"m={m!r} radius={radius!r} interior_hops={max(r.hop_count - 2, 0)}"))
        count = reference_interior(metrics, r, metrics.hop_gamma <= ceiling)
        required = length / ((640.0 if arbitrary else 16.0) * rho_n)
        sinr_bounded.append(("sinr_bounded_fraction" + ("_arbitrary" if arbitrary else ""),
                             r.connection_id, float(count), required,
                             required < 1.0 or count >= required, f"ceiling={ceiling!r}"))
    return proximity + sinr_bounded


def reference_delivery_records(metrics, routes, model, attempts):
    records = []
    for r in routes:
        k, lo, hi = reference_hops(metrics, r)
        resolved = int(metrics.delivered[k] + metrics.dropped[k])
        if resolved == 0:
            continue
        means = metrics.mean_hop_success[lo:hi].tolist()
        if model.continuous and any(math.isnan(p) for p in means):
            continue
        predicted = math.prod(
            links.hop_success_with_retries(model.success(0.0) if math.isnan(p) else p, attempts)
            for p in means
        )
        measured = float(metrics.delivery_probability()[k])
        sigma = math.sqrt(max(predicted * (1.0 - predicted), 1e-12) / resolved)
        records.append(("delivery_prediction", r.connection_id, measured, predicted,
                        abs(measured - predicted) <= 3.0 * sigma,
                        f"resolved={resolved} sigma={sigma!r}"))
    return records


def reference_point_records(res, spec):
    straight = spec.routing_strategy == "straight_line"
    records = reference_route_records(res.routes, res.tess.rho_n, res.bounds.t0, straight)
    if res.metrics.saturated:
        records += reference_saturated_records(
            res.metrics, res.routes, res.bounds, res.tess.rho_n, arbitrary=not straight)
    return records + reference_delivery_records(
        res.metrics, res.routes, spec.link_model(), spec.engine.attempts_per_hop)


def reference_appendix_records(seed, pairs):
    rng = np.random.default_rng(seed)
    dist = geometry.surface_distance(geometry.random_point(rng, pairs),
                                     geometry.random_point(rng, pairs))
    records = []
    for delta in (0.1, 0.5, 0.9, math.exp(-2.0 * math.sqrt(math.pi))):
        vals = delta**dist
        mc, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(pairs))
        closed = geometry.expected_delta_pow_L(delta)
        records.append(("pair_distance_expectation", None, mc, closed,
                        abs(mc - closed) <= 3.0 * se, f"delta={delta!r} se={se!r}"))
    ks = experiment.kolmogorov_statistic(dist)
    records.append(("distance_law_ks", None, ks, 0.002, ks < 0.002, f"pairs={pairs}"))
    return records + [("cap_area_sandwich", None, 1.0, 1.0, True, "grid=1000")]


def reference_csv(records, name, lead=()):
    """``name`` as written from ``records``, schema line and header first."""
    schema, header = experiment.CSV_LAYOUTS[name]
    lines = [f"# schema={schema}", header]
    for check_id, cid, lhs, rhs, passed, detail in records:
        fields = [*map(str, lead), check_id, "" if cid is None else str(cid), repr(lhs),
                  repr(rhs), str(int(passed))]
        lines.append(",".join(fields + ([] if lead else [detail])))
    return "\n".join(lines) + "\n"


def reference_text(records):
    lines = ["# adhocsim verification report"]
    for check_id in sorted({r[0] for r in records}):
        recs = [r for r in records if r[0] == check_id]
        passes = sum(r[4] for r in recs)
        lines.append(f"{check_id}: {passes}/{len(recs)} pass ({passes / len(recs):.3f})")
        lines += [f"  FAIL conn={cid} lhs={lhs!r} rhs={rhs!r} {detail}"
                  for _, cid, lhs, rhs, passed, detail in recs if not passed]
    return "\n".join(lines) + "\n"


def table_after_table(records):
    """Route-by-route per-route records, reordered one check after another."""
    order = ["hop_count", "short_hops", "consecutive_short_hops"]
    return sorted(records, key=lambda r: order.index(r[0]))


def table_records(*tables):
    """The tables' records, table after table, as the reference writes them."""
    return [(t.check_id, cid, lhs, rhs, passed, detail) for t in tables
            for cid, lhs, rhs, passed, detail in zip(
                t.connection_ids.tolist(), t.lhs.tolist(), t.rhs.tolist(), t.passed.tolist(),
                t.details(), strict=True)]


def crafted_routes(rho):
    """A 1-hop and a 2-hop route (no interior hops); one with a run of 45
    short hops; one with hops exactly at ``SHORT_HOP_T * rho`` that ends on
    a short hop, followed by one that starts with two, so a run that went
    on across routes would show; one with too many hops for its geodesic;
    and an ordinary one."""
    at = verification.SHORT_HOP_T * rho
    hop_lists = [
        [0.3 * rho],
        [0.5 * rho, 0.7 * rho],
        [2.0 * rho] + [0.005 * rho] * 45 + [3.0 * rho],
        [at, at, 2.0 * rho, at, 0.001 * rho, 1.5 * rho, at],
        [0.004 * rho, 0.004 * rho, 2.0 * rho],
        [0.5 * rho] * 60,
        [1.0 * rho, 0.02 * rho, 2.5 * rho, 0.049 * rho, 3.0 * rho, 0.06 * rho],
    ]
    lengths = [0.3 * rho, 1.1 * rho, 4.0 * rho, 5.0 * rho, 2.0 * rho, 0.04, 7.5 * rho]
    return [synthetic_route(list(range(len(h))), h, length, cid=cid)
            for cid, (h, length) in enumerate(zip(hop_lists, lengths))]


def crafted_metrics(routes, seed=5):
    """A saturated run over ``routes`` with per-hop values drawn around the
    checks' thresholds, unresolved and never-attempted hops included."""
    rng = np.random.default_rng(seed)
    table = layout(routes)
    hops = int(table.offsets[-1])
    mean_success = rng.uniform(0.5, 1.0, hops)
    mean_success[rng.random(hops) < 0.1] = np.nan
    delivered = rng.integers(0, 30, len(routes))
    dropped = rng.integers(0, 5, len(routes))
    delivered[1] = dropped[1] = 0  # nothing resolved: no delivery record
    return RunMetrics(
        slots=100, warmup_slots=10, routes=table,
        injected=delivered + dropped, delivered=delivered, dropped=dropped,
        in_flight=np.zeros(len(routes), dtype=np.int64),
        lambda_realized=0.0, throughput=0.0, utilization=np.zeros(1),
        mean_hop_success=mean_success,
        hop_gamma=10.0 ** rng.uniform(10.0, 16.0, hops),
        hop_nearest=rng.uniform(0.0, 3.0, hops),
    )


class TestTablesMatchTheReference:
    @pytest.mark.parametrize("t", [verification.SHORT_HOP_T, 0.05])
    def test_per_route_checks_on_crafted_routes(self, t):
        rho = 0.02
        routes = crafted_routes(rho)
        table = layout(routes)
        tables = [verification.check_hop_count(table, rho),
                  verification.check_short_hops(table, rho, t),
                  verification.check_consecutive_short_hops(table, rho)]
        report = verification.VerificationReport()
        report.add(*tables)
        expected = reference_route_records(routes, rho, t)
        assert [tuple(vars(r).values()) for r in report.records] == expected
        assert table_records(*tables) == table_after_table(expected)
        # the cases the routes were made for
        assert not tables[2].passed[2] and tables[2].lhs[2] == 45  # 45 short hops
        assert tables[2].lhs[3] == 2  # hops at the threshold are short
        assert tables[2].lhs[4] == 2  # a run ends with its route
        assert not tables[0].passed[5]  # 60 hops over 0.04
        # a hop at t * rho is not shorter than it
        assert tables[1].columns["h_short"][3] == (5 if t == 0.05 else 1)

    def test_empty_route_list(self):
        table = layout([])
        empty = [verification.check_hop_count(table, 0.02),
                 verification.check_short_hops(table, 0.02, 0.05),
                 verification.check_consecutive_short_hops(table, 0.02)]
        assert table_records(*empty) == reference_route_records([], 0.02, 0.05) == []
        report = verification.VerificationReport()
        report.add(*empty)
        assert report.pass_counts() == {} and verification.hard_invariants_hold(report)
        assert math.isnan(report.pass_rate("hop_count"))

    @pytest.mark.parametrize("arbitrary", [False, True])
    def test_saturated_checks_on_crafted_routes(self, arbitrary):
        rho = 0.02
        routes = crafted_routes(rho)
        metrics = crafted_metrics(routes)
        bounds = verification.compute_bounds(eps2=1 / 16, c1=0)
        # a scale at which the crafted nearest distances straddle the radius
        rho_n = 1.5 / ((bounds.m0_arbitrary if arbitrary else bounds.m0) + 8.0)
        tables = [
            verification.check_interferer_proximity(metrics, bounds, rho_n, arbitrary),
            verification.check_sinr_bounded_fraction(metrics, bounds, rho_n, arbitrary),
        ]
        expected = reference_saturated_records(metrics, routes, bounds, rho_n, arbitrary)
        assert table_records(*tables) == expected
        assert 0 < sum(r[2] for r in expected[:len(routes)]) < sum(
            r.hop_count for r in routes)

    @pytest.mark.parametrize("model", [links.ConstantPModel(0.8), links.LogisticModel()])
    def test_delivery_prediction_on_crafted_routes(self, model):
        routes = crafted_routes(0.02)
        metrics = crafted_metrics(routes)
        table = verification.delivery_prediction(metrics, model, 2)
        expected = reference_delivery_records(metrics, routes, model, 2)
        assert table_records(table) == expected
        assert 1 not in table.connection_ids.tolist()  # nothing resolved


class TestWrittenBytesMatchTheReference:
    @pytest.mark.parametrize("overrides, covered", [
        (["engine.traffic=saturated", "engine.injection_rate=0.0",
          "engine.measure_slots=200", "engine.trace=True"], "interferer_proximity"),
        (["routing.strategy=random_walk_loop_erased", "engine.injection_rate=0.01",
          "engine.measure_slots=1500", "link_model.name=constant_p", "link_model.p=0.9"],
         "delivery_prediction"),
    ])
    def test_point_outputs(self, tmp_path, overrides, covered):
        spec = experiment.load_spec(None, [
            "sweep.n=250", "sweep.track_connections=60", f"sweep.out={tmp_path}", *overrides])
        res = experiment.run_single(spec, 250, 2)
        res.report.write_text(tmp_path / "verification.txt")
        records = reference_point_records(res, spec)
        assert any(r[0] == covered for r in records)
        if covered == "interferer_proximity":  # at n = 250 it fails: FAIL lines are written
            assert not all(r[4] for r in records)
        assert (tmp_path / "verification.csv").read_text() == reference_csv(
            records, "verification.csv", (250, 2))
        assert (tmp_path / "verification_detail.csv").read_text() == reference_csv(
            records, "verification_detail.csv")
        assert (tmp_path / "verification.txt").read_text() == reference_text(records)

    def test_appendix_outputs(self, tmp_path):
        report = experiment.verify_appendix(seed=3, pairs=20_000)
        with experiment.CsvWriter(tmp_path, ["verification_detail.csv"]) as writer:
            writer.write("verification_detail.csv",
                         experiment.verification_rows(report, detail=True))
        report.write_text(tmp_path / "verification.txt")
        records = reference_appendix_records(3, 20_000)
        assert [tuple(vars(r).values()) for r in report.records] == records
        assert (tmp_path / "verification_detail.csv").read_text() == reference_csv(
            records, "verification_detail.csv")
        assert (tmp_path / "verification.txt").read_text() == reference_text(records)
        assert "FAIL conn=None" in reference_text(records)  # the KS check at 20k pairs

    def test_a_field_that_needs_quoting_goes_through_the_csv_writer(self, tmp_path):
        rows = [("a", "1", "2.0", "3.0", "1", "x=1"), ("b", "", "2.0", "3.0", "0", 'y=1, "z"')]
        with experiment.CsvWriter(tmp_path, ["verification_detail.csv"]) as writer:
            writer.write_fields("verification_detail.csv", rows)
        lines = (tmp_path / "verification_detail.csv").read_text().splitlines()
        assert lines[2:] == ["a,1,2.0,3.0,1,x=1", 'b,,2.0,3.0,0,"y=1, ""z"""']
