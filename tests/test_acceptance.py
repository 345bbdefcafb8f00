"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
stated inline; configurations are fixed (seeds included) so the suite is
deterministic end to end.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from adhocsim import (
    engine,
    experiment,
    geometry,
    links,
    routing,
    scheduling,
    tessellation,
    verification,
)
from adhocsim.engine import EngineConfig, run
from conftest import assemble, connections, table_of, take

AREA_CONSTANT = 1.2
CERT_SEEDS = list(range(20))
SWEEP_NS = (500, 1000, 2000, 4000)
RADIO = links.RadioParams()


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT-{num:02d} {name}: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --- shared instances -------------------------------------------------------


@pytest.fixture(scope="session")
def cert_instances():
    """20 seeds at n in {500, 2000}: tessellations plus all straight routes."""
    out = []
    t_tess = 0.0
    for n in (500, 2000):
        for seed in CERT_SEEDS:
            t0 = time.perf_counter()
            dep, tess = experiment.prepare_instance(n, 1000 * seed + n, AREA_CONSTANT)
            t_tess += time.perf_counter() - t0
            conns = routing.pick_connections(dep, 7000 + seed)
            routes = assemble(conns, routing.cell_paths(conns, dep, tess), dep, tess)
            out.append((n, seed, dep, tess, routes))
    return {"instances": out, "tess_seconds": t_tess}


@pytest.fixture(scope="session")
def saturated_2000(cert_instances):
    """Saturated fixed-schedule run on the first n=2000 instance."""
    n, seed, dep, tess, routes = next(
        x for x in cert_instances["instances"] if x[0] == 2000
    )
    sched = scheduling.build_schedule(tess, 12.0)
    cfg = EngineConfig(
        injection_rate=0.0, traffic="saturated", measure_slots=sched.num_colors, seed=7
    )
    t0 = time.perf_counter()
    metrics = run(dep, tess, sched, table_of(routes, dep, tess), links.LogisticModel(), RADIO, cfg)
    elapsed = time.perf_counter() - t0
    return dep, tess, sched, routes, metrics, elapsed


@pytest.fixture(scope="session")
def lossy_200(small_instance):
    """ACCEPT-11(a)'s run: 200 connections over constant-p links at p = 0.9.

    Returns each connection's hop count, resolved and delivered counts."""
    dep, tess, sched, _, routes, _ = small_instance
    cfg = EngineConfig(injection_rate=0.0015, measure_slots=150_000, seed=7)
    m = run(dep, tess, sched, table_of(routes[:200], dep, tess),
            links.ConstantPModel(0.9), RADIO, cfg)
    hops = {r.connection_id: r.hop_count for r in routes[:200]}
    return (np.array([hops[int(cid)] for cid in m.routes.connection_ids]),
            m.delivered + m.dropped, m.delivered)


def decay_z(hops, resolved, delivered, p=0.9):
    """Binomial z of each connection's delivery against ``p**H``."""
    expected = p ** np.asarray(hops, dtype=float)
    sigma = np.sqrt(expected * (1 - expected) / resolved)
    return (delivered / resolved - expected) / sigma


def decay_tail(hops, resolved, delivered, p=0.9):
    """Exact two-sided binomial tail of each connection's delivered count
    against ``p**H``: twice the smaller of its lower and upper tails."""
    expected = p ** np.asarray(hops, dtype=float)
    return 2 * np.minimum(stats.binom.cdf(delivered, resolved, expected),
                          stats.binom.sf(delivered - 1, resolved, expected))


def decay_verdict(hops, resolved, delivered):
    """ACCEPT-11(a)'s three checks on the last axis of the delivered counts,
    with their false-alarm rates over 200 connections: every exact two-sided
    binomial tail > 1 %/200 (Bonferroni, family-wise at most 1 %),
    |sum z|/sqrt(m) <= 3.29 (two-sided 0.1 % for normal z) and
    sum z^2 <= 267.5 (chi-squared with 200 degrees of freedom, upper 0.1 %);
    at most 1.2 % in all."""
    z = decay_z(hops, resolved, delivered)
    m = z.shape[-1]
    return (
        (decay_tail(hops, resolved, delivered).min(axis=-1) > 0.01 / m)
        & (np.abs(z.sum(axis=-1)) / math.sqrt(m) <= 3.29)
        & ((z**2).sum(axis=-1) <= 267.5)
    )


@pytest.fixture(scope="session")
def sweep_instances():
    """5 seeds at each sweep n: tessellation, both schedules, 300 routes."""
    out = {}
    for n in SWEEP_NS:
        for seed in range(5):
            dep, tess = experiment.prepare_instance(n, 31 * seed + n, AREA_CONSTANT)
            fixed = scheduling.build_schedule(tess, 12.0)
            cons = scheduling.build_conservative_schedule(tess, "log")
            conns = take(routing.pick_connections(dep, 500 + seed), slice(300))
            routes = assemble(conns, routing.cell_paths(conns, dep, tess), dep, tess)
            out[(n, seed)] = (dep, tess, fixed, cons, routes)
    return out


# --- criteria ---------------------------------------------------------------


def test_accept_01_pair_distance_expectation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    a = geometry.random_point(rng, 1_000_000)
    b = geometry.random_point(rng, 1_000_000)
    dist = geometry.surface_distance(a, b)
    worst = 0.0
    ok = True
    for delta in (0.1, 0.5, 0.9, math.exp(-2 * math.sqrt(math.pi))):
        vals = delta**dist
        se = vals.std(ddof=1) / 1000.0
        z = abs(vals.mean() - geometry.expected_delta_pow_L(delta)) / se
        worst = max(worst, z)
        ok &= z <= 3.0
    ref = geometry.expected_delta_pow_L(math.exp(-2 * math.sqrt(math.pi)))
    ok &= abs(ref - 0.260804) < 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(1, "pair-distance expectation closed form", ok,
           f"max |z|={worst:.2f} (<=3), ref={ref:.6f}, {elapsed:.1f}s (<30s)")


def test_accept_02_distance_law_ks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    a = geometry.random_point(rng, 1_000_000)
    b = geometry.random_point(rng, 1_000_000)
    ks = experiment.kolmogorov_statistic(geometry.surface_distance(a, b))
    elapsed = time.perf_counter() - t0
    ok = ks < 0.002 and elapsed < 30.0
    report(2, "pair-distance law (KS)", ok, f"KS={ks:.5f} (<0.002), {elapsed:.1f}s (<30s)")


def test_accept_03_cap_area_sandwich():
    grid = np.linspace(geometry.MAX_DISTANCE / 2 / 1000, geometry.MAX_DISTANCE / 2, 1000)
    areas = geometry.cap_area(grid)
    low_ok = bool(np.all(math.pi * grid**2 / 2 <= areas))
    high_ok = bool(np.all(areas <= math.pi * grid**2))
    report(3, "cap-area sandwich", low_ok and high_ok,
           f"1000 grid points on (0, sqrt(pi)/4], zero violations")


def test_accept_04_cell_size_certificate(cert_instances):
    t0 = time.perf_counter()
    ok = True
    probe_rng = np.random.default_rng(404)
    for n, seed, dep, tess, _ in cert_instances["instances"]:
        rho = tess.rho_n
        gram = tess.centers @ tess.centers.T
        np.fill_diagonal(gram, -1.0)
        min_sep = geometry.RADIUS * math.acos(min(max(float(gram.max()), -1.0), 1.0))
        ok &= min_sep >= 2 * rho * (1 - 1e-9)
        node_d = geometry.surface_distance(dep.nodes, tess.centers[tess.cell_of_node])
        ok &= float(node_d.max()) <= 2 * rho * (1 + 1e-9)
        probes = geometry.random_point(probe_rng, 10_000)
        cosmax = np.clip((probes @ tess.centers.T).max(axis=1), -1, 1)
        ok &= float(geometry.RADIUS * np.arccos(cosmax).max()) <= 2 * rho * (1 + 1e-9)
    elapsed = cert_instances["tess_seconds"] + (time.perf_counter() - t0)
    ok &= elapsed < 120.0
    report(4, "cell-size certificate (packing/covering/maximality)", ok,
           f"40 tessellations, {elapsed:.1f}s (<120s)")


def test_accept_05_hop_count_bounds(cert_instances):
    total = bad = asym_viol = 0
    for n, seed, dep, tess, routes in cert_instances["instances"]:
        table = verification.check_hop_count(table_of(routes, dep, tess), tess.rho_n)
        total += len(table)
        bad += int((~table.passed).sum())
        asym_viol += sum(r.hop_count > 16 * r.length / (math.pi * tess.rho_n) for r in routes)
    report(5, "hop-count bounds on straight routes", bad == 0,
           f"{total - bad}/{total} within [max(L/8rho,1), 16(L+8rho)/(pi rho)]; "
           f"{asym_viol} short-pair routes above the uncorrected asymptotic ceiling")


def test_accept_06_short_hop_floor(cert_instances):
    total = bad = 0
    for n, seed, dep, tess, routes in cert_instances["instances"]:
        table = verification.check_short_hops(table_of(routes, dep, tess), tess.rho_n, 0.05)
        total += len(table)
        bad += int((~table.passed).sum())
    report(6, "long-hop count floor at t=0.05", bad == 0, f"{total - bad}/{total}")


def test_accept_07_consecutive_short_hops(cert_instances):
    n2 = verification.SHORT_HOP_CELL_BOUND
    ok = abs(n2 - 38.72) < 1e-12
    total = 0
    worst = 0
    for n, seed, dep, tess, routes in cert_instances["instances"]:
        longest = verification.max_short_run(table_of(routes, dep, tess), tess.rho_n)
        worst = max(worst, int(longest.max()))
        total += len(routes)
    # arbitrary strategies on the first instance of each n
    for pick_n in (500, 2000):
        n, seed, dep, tess, _ = next(
            x for x in cert_instances["instances"] if x[0] == pick_n
        )
        conns = routing.pick_connections(dep, 7000)
        for strat in ("random_walk_loop_erased", "detour:2.0"):
            paths = routing.cell_paths(conns, dep, tess, strat)
            routes = assemble(conns, paths, dep, tess)
            longest = verification.max_short_run(routing.route_table(conns, paths, dep, tess),
                                                 tess.rho_n)
            worst = max(worst, int(longest.max()))
            total += len(routes)
    ok &= worst < 40 and total >= 10_000
    report(7, "no 40 consecutive short hops", ok,
           f"{total} routes over three strategies, max run {worst}, "
           f"cell bound 2*(40*0.01+4)^2 = {n2}")


def test_accept_15_routes_hold_every_crossed_cell(cert_instances):
    """On the first two instances of each n, the cells of each straight
    route's geodesic sampled every rho/100 form a subsequence of the route's
    cells with its first and last cell; each route cell the samples miss is
    found when the arc between the two samples around it is sampled 1000
    times more finely."""

    def nearest_cells(tess, a, b, s):
        cells = np.argmax(geometry.geodesic_arc(a, b, s) @ tess.centers.T, axis=1).tolist()
        runs = [0] + [i for i in range(1, len(s)) if cells[i] != cells[i - 1]]
        return [cells[i] for i in runs], runs

    total = bad = sliver_routes = 0
    for pick_n in (500, 2000):
        for n, seed, dep, tess, routes in [
            x for x in cert_instances["instances"] if x[0] == pick_n
        ][:2]:
            for r in routes:
                a, b = dep.nodes[r.relays[0]], dep.nodes[r.relays[-1]]
                s = np.linspace(0.0, r.length, max(math.ceil(100 * r.length / tess.rho_n) + 1, 2))
                seq, runs = nearest_cells(tess, a, b, s)
                pos = [r.cells.index(c) if c in r.cells else -1 for c in seq]
                ok = pos[0] == 0 and pos[-1] == len(r.cells) - 1
                ok &= all(0 <= p < q for p, q in zip(pos, pos[1:]))
                for k in range(1, len(seq)):
                    if ok and pos[k] > pos[k - 1] + 1:
                        fine, _ = nearest_cells(
                            tess, a, b, np.linspace(s[runs[k] - 1], s[runs[k]], 1001)
                        )
                        ok &= fine == r.cells[pos[k - 1]:pos[k] + 1]
                sliver_routes += len(seq) < len(r.cells)
                total += 1
                bad += not ok
    report(15, "straight routes hold every cell their geodesic crosses", bad == 0,
           f"{total - bad}/{total} against rho/100 sampling; "
           f"{sliver_routes} routes cross a cell over less than rho/100")


def test_accept_08_interferer_proximity(saturated_2000):
    dep, tess, sched, routes, metrics, run_seconds = saturated_2000
    t0 = time.perf_counter()
    c1 = sched.num_colors - 1
    bounds = verification.compute_bounds(alpha=RADIO.alpha, c1=c1)
    m0 = 64.0 * (1 + c1)
    table = verification.check_interferer_proximity(metrics, bounds, tess.rho_n)
    bad = int((~table.passed).sum())
    elapsed = run_seconds + time.perf_counter() - t0
    ok = bounds.m0 == m0 and not bad and elapsed < 300.0
    report(8, "interferer-proximity count at n=2000", ok,
           f"{len(table) - bad}/{len(table)} with N_i <= (L/rho)*2K/M, "
           f"M=64(1+c1)={m0:.0f}, K={sched.num_colors}, {elapsed:.1f}s (<300s)")


def test_accept_09_bounded_sinr_fraction(saturated_2000):
    dep, tess, sched, routes, metrics, _ = saturated_2000
    bounds = verification.compute_bounds(alpha=RADIO.alpha, c1=sched.num_colors - 1)
    ok_t0 = abs(bounds.t0 - 0.0500) <= 1e-3
    table = verification.check_sinr_bounded_fraction(metrics, bounds, tess.rho_n)
    fails = np.flatnonzero(~table.passed)
    rate = 1 - len(fails) / len(table)
    for k in fails.tolist():  # every failure dumped with its numbers
        print(f"  bounded-SINR failure: conn={table.connection_ids[k]} lhs={table.lhs[k]} "
              f"rhs={table.rhs[k]}")
    ok = ok_t0 and rate >= 0.95
    report(9, "bounded-SINR hop fraction", ok,
           f"pass rate {rate:.3f} (>=0.95), t0={bounds.t0:.6f} (0.0500±1e-3), "
           f"beta0={bounds.beta0:.3g}")


def test_accept_10_retry_success_law():
    dep = tessellation.deploy(2, 2)
    tess = tessellation.build_tessellation(dep, tessellation.rho_for_n(2, AREA_CONSTANT), 3)
    sched = scheduling.build_schedule(tess, 12.0)
    conns = connections((0, 0, 1, float(geometry.surface_distance(dep.nodes[0], dep.nodes[1]))))
    paths = routing.cell_paths(conns, dep, tess)
    (route,) = assemble(conns, paths, dep, tess)
    assert route.hop_count == 1
    ok = True
    details = []
    for attempts in (1, 2, 3):
        slots = 130_000 * attempts * sched.num_colors
        # The cell makes one attempt every K slots and a packet gets at most
        # R of them, so it serves at least 1/(K*R) packets per slot: injecting
        # below that keeps the queue bounded.
        cfg = EngineConfig(
            injection_rate=0.9 / (sched.num_colors * attempts), measure_slots=slots,
            warmup_slots=10, seed=10 + attempts, attempts_per_hop=attempts,
        )
        m = run(dep, tess, sched, routing.route_table(conns, paths, dep, tess),
                links.ConstantPModel(0.5), RADIO, cfg)
        resolved = int(m.delivered[0] + m.dropped[0])
        measured = float(m.delivery_probability()[0])
        expected = 1 - 0.5**attempts
        ok &= resolved >= 100_000 and abs(measured - expected) <= 0.01
        details.append(f"R={attempts}: {measured:.4f} vs {expected:.4f} ({resolved} trials)")
    report(10, "retry success law 1-(1-p)^R", ok, "; ".join(details))


def test_accept_11_geometric_decay(lossy_200, sweep_instances):
    # (a) lossy constant-p links: per-connection delivery against p^H over
    # 200 connections, by decay_verdict's three checks (at most 1.2 % false
    # alarms in all for a correct engine)
    hops, resolved, delivered = lossy_200
    z = decay_z(hops, resolved, delivered)
    ok_a = (len(z) == 200 and bool(np.all(resolved > 0))
            and bool(decay_verdict(hops, resolved, delivered)))
    min_tail = float(decay_tail(hops, resolved, delivered).min())

    # (b) continuous model under saturated fixed-K scheduling: ln(delivery)
    # regresses linearly on H with R^2 >= 0.9 and negative slope at every n
    model = links.LogisticModel(a=0.004, midpoint_db=-400.0)
    lam = {500: 0.0012, 1000: 0.0015, 2000: 0.002, 4000: 0.002}
    slots = {500: 260_000, 1000: 220_000, 2000: 170_000, 4000: 150_000}
    ok_b = True
    details = []
    for n in SWEEP_NS:
        dep, tess, fixed, _, routes = sweep_instances[(n, 0)]
        cfg = EngineConfig(
            injection_rate=lam[n], traffic="saturated", measure_slots=slots[n], seed=7
        )
        mm = run(dep, tess, fixed, table_of(routes[:200], dep, tess), model, RADIO, cfg)
        hops = {r.connection_id: r.hop_count for r in routes[:200]}
        xs, ys = [], []
        for k, cid in enumerate(mm.routes.connection_ids):
            resolved = int(mm.delivered[k] + mm.dropped[k])
            if mm.delivered[k] < 5:  # ln undefined / unstable below this
                continue
            xs.append(hops[int(cid)])
            ys.append(math.log(mm.delivered[k] / resolved))
        xs, ys = np.array(xs, float), np.array(ys)
        A = np.vstack([xs, np.ones_like(xs)]).T
        coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
        r2 = 1 - res[0] / np.sum((ys - ys.mean()) ** 2)
        ok_b &= coef[0] < 0 and r2 >= 0.9
        details.append(f"n={n}: slope={coef[0]:.3f} R2={r2:.3f} ({len(xs)} conns)")
    report(11, "geometric decay of delivery in hop count", ok_a and ok_b,
           f"(a) min tail={min_tail:.3g} (>5e-05), max |z|={np.abs(z).max():.2f}, "
           f"|sum z|/sqrt(200)={abs(z.sum()) / math.sqrt(200):.2f} (<=3.29), "
           f"sum z^2={np.sum(z**2):.1f} (<=267.5); (b) " + "; ".join(details))


def test_accept_11a_criterion_on_binomial_draws(lossy_200):
    # ACCEPT-11(a)'s criterion on synthetic binomial deliveries with the run's
    # hop and resolved counts: false alarms at the true p = 0.9, detections
    # of a per-hop loss 0.3 and 0.5 points above it, against the original
    # criterion (every |z| <= 3).  The false-alarm rate must match the stated
    # 1.2 % within three binomial standard errors of 4000 draws.
    hops, resolved, _ = lossy_200
    rng = np.random.default_rng(1111)
    draws, stated = 4000, 0.012
    rates = {}
    for p in (0.9, 0.897, 0.895):
        delivered = rng.binomial(resolved, p ** hops.astype(float), size=(draws, len(hops)))
        z = decay_z(hops, resolved, delivered)
        rates[p] = (float(np.mean(np.abs(z).max(axis=1) > 3.0)),
                    float(np.mean(~decay_verdict(hops, resolved, delivered))))
    print("ACCEPT-11(a) criterion, rejection rate old/new: " + "; ".join(
        f"p={p}: {old:.4f}/{new:.4f}" for p, (old, new) in rates.items()))
    assert abs(rates[0.9][1] - stated) <= 3 * math.sqrt(stated * (1 - stated) / draws)
    assert rates[0.9][1] < rates[0.9][0]
    assert rates[0.897][1] > rates[0.897][0]
    assert rates[0.895][1] > rates[0.895][0]


def test_accept_12_conservative_schedule_trade(sweep_instances):
    ok_k = True
    for seed in range(5):
        ks = [sweep_instances[(n, seed)][3].num_colors for n in SWEEP_NS]
        ok_k &= all(a <= b for a, b in zip(ks, ks[1:]))
    ok_sinr = True
    details = []
    for n in SWEEP_NS:
        fixed_g, cons_g = [], []
        for seed in range(5):
            dep, tess, fixed, cons, routes = sweep_instances[(n, seed)]
            table = table_of(routes, dep, tess)
            for sched, sink in ((fixed, fixed_g), (cons, cons_g)):
                gamma, _ = engine.saturated_hop_samples(dep, tess, sched, table, RADIO)
                sink.extend(gamma.tolist())
        p5_fixed = float(np.percentile(fixed_g, 5))
        p5_cons = float(np.percentile(cons_g, 5))
        ok_sinr &= p5_cons >= p5_fixed
        details.append(f"n={n}: p5 cons={p5_cons:.3g} vs fixed={p5_fixed:.3g}")
    report(12, "conservative scheduling trades reuse for SINR", ok_k and ok_sinr,
           f"K_n nondecreasing over 5 seeds; " + "; ".join(details))


def test_accept_13_bound_calculator():
    c0 = verification.throughput_ceilings(0.05, 10, 0.01, math.exp(-1.0)).c0
    ok = abs(c0 - 4096.0) <= 4096.0 * 1e-12
    worst = 0.0
    for rho, phi in ((0.02, 0.3), (0.05, 0.5), (0.1, 0.9), (0.03, 0.99)):
        a = verification.delivery_decay_direct(1.0, rho, phi)
        b = verification.delivery_decay_stepwise(1.0, rho, phi)
        worst = max(worst, abs(a - b))
    ok &= worst < 1e-12
    report(13, "bound calculator exactness", ok,
           f"c0(phi=1/e)={c0!r}, chain mismatch {worst:.2e} (<1e-12)")


def test_accept_14_determinism(tmp_path):
    overrides = [
        "sweep.n=250", "sweep.seeds=2", "sweep.track_connections=40",
        "engine.measure_slots=1500",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    experiment.run_sweep(experiment.load_spec(None, overrides + [f"sweep.out={out1}"]))
    experiment.run_sweep(experiment.load_spec(None, overrides + [f"sweep.out={out2}"]))
    same = all(
        (out1 / f).read_bytes() == (out2 / f).read_bytes()
        for f in ("connections.csv", "summary.csv", "verification.csv")
    )
    report(14, "byte-identical reruns", same, "3 CSV files compared")
