import hashlib
import math
from collections import defaultdict

import numpy as np
import pytest

from adhocsim import engine, geometry, links, routing, scheduling, tessellation
from adhocsim.engine import EngineConfig, run, throughput_summary
from adhocsim.errors import ConfigurationError

RADIO = links.RadioParams()


def run_subset(small_instance, model, cfg, count=50):
    dep, tess, sched, _, routes = small_instance
    return run(dep, tess, sched, routes[:count], model, RADIO, cfg)


def single_hop_network(seed=2):
    """Two-node network whose single connection is one hop long."""
    dep = tessellation.deploy(2, seed)
    rho = tessellation.rho_for_n(2, 1.2)
    tess = tessellation.build_tessellation(dep, rho, seed + 1)
    sched = scheduling.build_schedule(tess, 12.0)
    conn = routing.Connection(
        id=0, source=0, destination=1,
        length=float(geometry.surface_distance(dep.nodes[0], dep.nodes[1])),
    )
    route = routing.straight_line_route(conn, dep, tess)
    assert route.hop_count == 1
    return dep, tess, sched, route


def collision_network():
    """Three single-node cells in a crafted one-color schedule; A and B both
    send to the node in C in the same slot, with A's node closer."""
    pole = np.array([0.0, 0.0, 1.0])
    def at(theta, phi=0.0):
        return np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
    rho = 0.05
    u = rho / geometry.RADIUS
    nodes = np.vstack([at(2.2 * u), at(5.5 * u), pole])  # tx A, tx B, rx
    centers = nodes.copy()
    tess = tessellation.Tessellation(
        centers=centers,
        rho_n=rho,
        cell_of_node=np.array([0, 1, 2]),
        neighbors=tessellation._adjacency(centers, rho),
        nodes_in_cell=[np.array([0]), np.array([1]), np.array([2])],
    )
    sched = scheduling.Schedule(
        color_of_cell=np.zeros(3, dtype=np.int64),
        num_colors=1,
        conflict_multiplier=12.0,
        regime="fixed",
        cells_by_color=[np.array([0, 1, 2])],
    )
    mk = lambda cid, src: routing.Route(
        connection_id=cid,
        cells=[src, 2],
        relays=[src, 2],
        hop_lengths=np.array([float(geometry.surface_distance(nodes[src], pole))]),
        length=float(geometry.surface_distance(nodes[src], pole)),
    )
    dep = tessellation.Deployment(n=3, seed=0, nodes=nodes)
    return dep, tess, sched, [mk(0, 0), mk(1, 1)]


def outcome_digest(m):
    """SHA-256 of the per-connection counters and the trace's integer and
    outcome columns; SINR floats are left out, so the digest does not depend
    on the platform's libm."""
    h = hashlib.sha256()
    for counts in (m.injected, m.delivered, m.dropped, m.in_flight):
        h.update(np.asarray(counts).astype("<i8").tobytes())
    for slot, cell, tx, rx, _, outcome in m.trace:
        h.update(f"{slot},{cell},{tx},{rx},{outcome}\n".encode())
    return h.hexdigest()


def pinned_case(name, small_instance):
    if name == "collision":
        dep, tess, sched, routes = collision_network()
        cfg = EngineConfig(injection_rate=0.5, measure_slots=400, warmup_slots=0, seed=31,
                           attempts_per_hop=2, trace=True)
        return run(dep, tess, sched, routes, links.LogisticModel(), RADIO, cfg)
    # Enough traffic per hop that the attempt-SINR reservoirs overflow and draw.
    cfg = EngineConfig(injection_rate=0.01, measure_slots=4000, seed=7, attempts_per_hop=2,
                       traffic=name, trace=True)
    return run_subset(small_instance, links.LogisticModel(), cfg, count=40)


# A change to any draw, its order or a reception rule changes these digests;
# only a change meant to alter simulated outcomes may update them.
PINNED = {
    "bernoulli": "4dd5830a6516c13921cd281f91f7c44bc3630fe95c18c81aee29f5fb9c1f660f",
    "saturated": "4684462191564f892722d6cf3f28f83a84d180dfc39e27549631196a6e2751eb",
    "collision": "a4cb3bed1c17aa7802750bda27b0ef9e901403b74d686d7d7688cabe4b028aa4",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outcomes_pinned(name, small_instance):
    m = pinned_case(name, small_instance)
    outcomes = {row[5] for row in m.trace}
    assert outcomes >= ({"ok", "fail", "collision"} if name == "collision" else {"ok", "fail"})
    assert outcome_digest(m) == PINNED[name]


def test_lone_transmitter_sinr_is_signal_over_noise():
    dep, tess, sched, route = single_hop_network()
    cfg = EngineConfig(injection_rate=0.25, measure_slots=2000, seed=37, trace=True)
    m = run(dep, tess, sched, [route], links.LogisticModel(), RADIO, cfg)
    power = RADIO.tx_power * links.path_gain(route.hop_lengths, RADIO.alpha)[0]
    expected = links.sinr([power], dep.nodes[[route.relays[1]]], dep.nodes[[route.relays[0]]],
                          RADIO, own=[0])[0][0]
    assert len(m.trace) > 100
    assert all(row[4] == expected for row in m.trace)


def test_shared_slot_sinr_is_the_kernel_value():
    # Both connections of the collision network often share a slot; each
    # such slot's SINRs must be the kernel's, however often the set recurs.
    dep, tess, sched, routes = collision_network()
    cfg = EngineConfig(injection_rate=0.5, measure_slots=400, warmup_slots=0, seed=31,
                       trace=True)
    m = run(dep, tess, sched, routes, links.ThresholdModel(beta=0.0), RADIO, cfg)
    power = {r.relays[0]: RADIO.tx_power * links.path_gain(r.hop_lengths, RADIO.alpha)[0]
             for r in routes}
    rows_of = defaultdict(list)
    for slot, _, tx, rx, sinr, _ in m.trace:
        rows_of[slot].append((tx, rx, sinr))
    shared = [rows for rows in rows_of.values() if len(rows) == 2]
    assert len(shared) > 50
    for rows in shared:
        tx, rx, sinr = (list(col) for col in zip(*rows))
        expected = links.sinr([power[t] for t in tx], dep.nodes[rx], dep.nodes[tx], RADIO,
                              own=np.arange(2))[0]
        assert sinr == expected.tolist()


class TestConfig:
    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(injection_rate=0.0)
        with pytest.raises(ConfigurationError):
            EngineConfig(injection_rate=1.5)
        EngineConfig(injection_rate=0.0, traffic="saturated")  # measurement-only run

    def test_attempt_budget(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(attempts_per_hop=0)


class TestDeterminismAndConservation:
    def test_identical_runs(self, small_instance):
        cfg = EngineConfig(injection_rate=0.01, measure_slots=2000, seed=3)
        m1 = run_subset(small_instance, links.ConstantPModel(0.8), cfg)
        m2 = run_subset(small_instance, links.ConstantPModel(0.8), cfg)
        np.testing.assert_array_equal(m1.injected, m2.injected)
        np.testing.assert_array_equal(m1.delivered, m2.delivered)
        np.testing.assert_array_equal(m1.dropped, m2.dropped)
        np.testing.assert_array_equal(m1.in_flight, m2.in_flight)

    def test_conservation_identity(self, small_instance):
        cfg = EngineConfig(injection_rate=0.02, measure_slots=3000, seed=5)
        m = run_subset(small_instance, links.ConstantPModel(0.6), cfg)
        np.testing.assert_array_equal(
            m.injected, m.delivered + m.dropped + m.in_flight
        )
        assert m.injected.sum() > 0

    def test_throughput_never_exceeds_injection(self, small_instance):
        cfg = EngineConfig(injection_rate=0.02, measure_slots=3000, seed=6)
        m = run_subset(small_instance, links.ConstantPModel(0.6), cfg)
        assert m.throughput <= m.lambda_realized


class TestDeliveryLaw:
    def test_geometric_decay_single_connection(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        # longest route alone, lossy links, no other traffic
        route = max(routes, key=lambda r: r.hop_count)
        cfg = EngineConfig(injection_rate=0.05, measure_slots=120_000, seed=11)
        m = run(dep, tess, sched, [route], links.ConstantPModel(0.9), RADIO, cfg)
        resolved = int(m.delivered[0] + m.dropped[0])
        expected = 0.9**route.hop_count
        sigma = math.sqrt(expected * (1 - expected) / resolved)
        assert resolved > 2000
        assert abs(m.delivery_probability()[0] - expected) <= 3.5 * sigma

    def test_threshold_model_isolated_connection_is_lossless(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        route = max(routes, key=lambda r: r.hop_count)
        # noise-limited SINR floor over this route's hops
        floor = min(
            RADIO.tx_power * float(h) ** -RADIO.alpha / RADIO.noise
            for h in route.hop_lengths
        )
        model = links.ThresholdModel(beta=floor * 0.9)
        cfg = EngineConfig(injection_rate=0.05, measure_slots=20_000, seed=13)
        m = run(dep, tess, sched, [route], model, RADIO, cfg)
        assert m.dropped[0] == 0
        assert m.delivered[0] == m.injected[0] - m.in_flight[0]
        assert m.delivery_probability()[0] == 1.0

    @pytest.mark.parametrize("attempts,expected", [(1, 0.5), (2, 0.75)])
    def test_retry_budget_single_hop(self, attempts, expected):
        dep, tess, sched, route = single_hop_network()
        cfg = EngineConfig(
            injection_rate=0.25, measure_slots=60_000, seed=17, attempts_per_hop=attempts
        )
        m = run(dep, tess, sched, [route], links.ConstantPModel(0.5), RADIO, cfg)
        resolved = int(m.delivered[0] + m.dropped[0])
        assert resolved > 5000
        assert m.delivery_probability()[0] == pytest.approx(expected, abs=0.02)


class TestSaturated:
    def test_full_utilization_and_samples(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        cfg = EngineConfig(
            injection_rate=0.0, traffic="saturated", measure_slots=2 * sched.num_colors, seed=19
        )
        m = run(dep, tess, sched, routes, links.LogisticModel(), RADIO, cfg)
        assert m.saturated
        assert np.all(m.utilization == 1.0)
        for r in routes[:50]:
            samples = m.hop_samples[r.connection_id]
            assert len(samples) == r.hop_count
            assert all(s.gamma > 0 for s in samples)

    def test_cells_transmit_in_the_slots_of_their_color(self, small_instance):
        # Slot s runs color s mod K; a window that is not a whole number of
        # cycles checks the per-cell count of active slots too.
        dep, tess, sched, _, routes = small_instance
        K = sched.num_colors
        cfg = EngineConfig(injection_rate=0.0, traffic="saturated", warmup_slots=5,
                           measure_slots=2 * K + 3, seed=19, trace=True)
        m = run(dep, tess, sched, routes, links.ConstantPModel(0.9), RADIO, cfg)
        slots_of = defaultdict(list)
        for slot, cell, *_ in m.trace:
            slots_of[cell].append(slot)
        window = range(5, 5 + 2 * K + 3)
        for c, color in enumerate(sched.color_of_cell.tolist()):
            assert slots_of[c] == [s for s in window if s % K == color]
        assert np.all(m.utilization == 1.0)

    def test_engine_sinr_equals_saturated_measurement(self, small_instance):
        # A lone real transmission faces exactly the relay field the
        # saturated measurement uses, so both must give the same SINR.
        dep, tess, sched, _, routes = small_instance
        route = max(routes, key=lambda r: r.hop_count)
        cfg = EngineConfig(
            injection_rate=0.002, traffic="saturated", measure_slots=20_000, seed=3,
            trace=True,
        )
        m = run(dep, tess, sched, [route], links.LogisticModel(), RADIO, cfg)
        hop_of = {(route.relays[h], route.relays[h + 1]): h for h in range(route.hop_count)}
        real = defaultdict(list)
        for slot, _, tx, rx, sinr, outcome in m.trace:
            if outcome != "dummy":
                real[slot].append((hop_of[tx, rx], sinr))
        lone = [rows[0] for rows in real.values() if len(rows) == 1]
        assert len(lone) > 100
        samples = m.hop_samples[route.connection_id]
        assert all(sinr == samples[hop].gamma for hop, sinr in lone)

    def test_samples_match_direct_evaluation(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        relay = routing.all_cell_relays(tess, dep)
        samples = engine.saturated_hop_samples(dep, tess, sched, routes[:20], RADIO)
        for r in routes[:20]:
            for hop, s in enumerate(samples[r.connection_id]):
                cell = r.cells[hop]
                field = [
                    c for c in sched.cells_by_color[sched.color_of_cell[cell]]
                    if c != cell and relay[c] >= 0
                ]
                rx = dep.nodes[r.relays[hop + 1]]
                d = geometry.surface_distance(dep.nodes[relay[field]], rx)
                d_signal = geometry.surface_distance(dep.nodes[r.relays[hop]], rx)
                gamma = RADIO.tx_power * d_signal**-RADIO.alpha / (
                    RADIO.noise + RADIO.tx_power * np.sum(d**-RADIO.alpha)
                )
                assert s.gamma == pytest.approx(gamma, rel=1e-13)
                if field:
                    assert s.nearest_interferer == pytest.approx(d.min(), rel=1e-13)
                else:
                    assert s.nearest_interferer == math.inf

    def test_samples_periodic_in_schedule(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        s1 = engine.saturated_hop_samples(dep, tess, sched, routes[:20], RADIO)
        s2 = engine.saturated_hop_samples(dep, tess, sched, routes[:20], RADIO)
        assert s1 == s2

    def test_real_packets_still_flow(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        cfg = EngineConfig(
            injection_rate=0.002, traffic="saturated", measure_slots=20_000, seed=23
        )
        m = run(dep, tess, sched, routes[:20], links.ConstantPModel(0.9), RADIO, cfg)
        assert m.delivered.sum() > 0


class TestReceptionRules:
    def test_strongest_reception_wins(self):
        dep, tess, sched, routes = collision_network()
        model = links.ThresholdModel(beta=0.0)  # succeeds at any SINR
        cfg = EngineConfig(injection_rate=1.0, measure_slots=500, warmup_slots=0, seed=29)
        m = run(dep, tess, sched, routes, model, RADIO, cfg)
        # connection 0 is closer: its packets always win; 1 always collides
        assert m.delivered[0] > 0
        assert m.delivered[1] == 0
        assert m.dropped[1] > 0

    def test_trace_rows(self, small_instance):
        cfg = EngineConfig(injection_rate=0.05, measure_slots=300, seed=41, trace=True)
        m = run_subset(small_instance, links.ConstantPModel(0.5), cfg, count=10)
        assert m.trace
        slot, cell, tx, rx, sinr, outcome = m.trace[0]
        assert outcome in {"ok", "fail", "collision", "dummy"}
        assert sinr > 0


class TestSummary:
    def test_zero_injection_zero_throughput(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        cfg = EngineConfig(
            injection_rate=0.0, traffic="saturated", measure_slots=sched.num_colors, seed=53
        )
        m = run(dep, tess, sched, routes[:10], links.ConstantPModel(0.9), RADIO, cfg)
        assert m.throughput == 0.0
        assert m.lambda_realized == 0.0

    def test_lossless_single_hop_throughput_matches_injection(self):
        dep, tess, sched, route = single_hop_network()
        floor = RADIO.tx_power * float(route.hop_lengths[0]) ** -RADIO.alpha / RADIO.noise
        model = links.ThresholdModel(beta=floor * 0.5)
        lam = 0.25 / sched.num_colors  # safely under the service ceiling
        cfg = EngineConfig(injection_rate=lam, measure_slots=80_000, seed=61)
        m = run(dep, tess, sched, [route], model, RADIO, cfg)
        sigma = math.sqrt(lam * (1 - lam) / cfg.measure_slots) / dep.n
        assert m.dropped[0] == 0
        assert abs(m.throughput - m.lambda_realized) <= 3 * sigma + 1.0 / (
            dep.n * cfg.measure_slots
        ) * float(m.in_flight[0])

    def test_ceilings(self, small_instance):
        dep, tess, sched, _, routes = small_instance
        cfg = EngineConfig(injection_rate=0.01, measure_slots=2000, seed=59)
        m = run(dep, tess, sched, routes[:50], links.ConstantPModel(0.9), RADIO, cfg)
        summary = throughput_summary(m)
        occ = tess.occupancy()
        assert summary.injection_ceiling == pytest.approx(
            1.0 / (occ.max() * sched.num_colors)
        )
        assert summary.occupancy_rate_bound == pytest.approx(
            4.0 / (math.pi * dep.n * tess.rho_n**2)
        )
