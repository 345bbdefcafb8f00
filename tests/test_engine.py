import functools
import hashlib
import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from adhocsim import engine, geometry, links, routing, scheduling, tessellation
from adhocsim.engine import EngineConfig, run
from adhocsim.errors import ConfigurationError
from adhocsim.verification import throughput_summary
from conftest import assemble, connections, table_of, take
from reference_engine import reference_run

RADIO = links.RadioParams()


def run_subset(small_instance, model, cfg, count=50):
    dep, tess, sched, conns, _, paths = small_instance
    table = routing.route_table(take(conns, slice(count)), paths[:count], dep, tess)
    return run(dep, tess, sched, table, model, RADIO, cfg)


def single_hop_network(seed=2):
    """Two-node network whose single connection is one hop long."""
    dep = tessellation.deploy(2, seed)
    rho = tessellation.rho_for_n(2, 1.2)
    tess = tessellation.build_tessellation(dep, rho, seed + 1)
    sched = scheduling.build_schedule(tess, 12.0)
    conns = connections((0, 0, 1, float(geometry.surface_distance(dep.nodes[0], dep.nodes[1]))))
    (route,) = assemble(conns, routing.cell_paths(conns, dep, tess), dep, tess)
    assert route.hop_count == 1
    return dep, tess, sched, route


def at(theta, phi=0.0):
    """The point at polar angle ``theta`` and azimuth ``phi``."""
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def single_node_cells(nodes, rho, colors):
    """One cell per node, centered on it, colored by ``colors``."""
    cells = np.arange(len(nodes))
    colors = np.asarray(colors, dtype=np.int64)
    tess = tessellation.Tessellation(
        centers=nodes.copy(),
        rho_n=rho,
        cell_of_node=cells,
        relay_of_cell=cells,
        gap_ratio=math.nan,
        cover_ratio=math.nan,
    )
    sched = scheduling.Schedule(color_of_cell=colors, conflict_multiplier=12.0, regime="fixed")
    dep = tessellation.Deployment(seed=0, nodes=nodes)
    return dep, tess, sched


def one_hop_route(cid, dep, tess, src, dst):
    """The one-hop route from the node of cell ``src`` to that of cell ``dst``
    (one node per cell)."""
    length = float(geometry.surface_distance(dep.nodes[src], dep.nodes[dst]))
    return assemble(connections((cid, src, dst, length)), [[src, dst]], dep, tess)[0]


def collision_network():
    """Three single-node cells in a crafted one-color schedule; A and B both
    send to the node in C in the same slot, with A's node closer."""
    rho = 0.05
    u = rho / geometry.RADIUS
    nodes = np.vstack([at(2.2 * u), at(5.5 * u), at(0.0)])  # tx A, tx B, rx
    dep, tess, sched = single_node_cells(nodes, rho, [0, 0, 0])
    return dep, tess, sched, [one_hop_route(0, dep, tess, 0, 2), one_hop_route(1, dep, tess, 1, 2)]


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
    """The pinned run ``name``."""
    if name == "collision":
        dep, tess, sched, routes = collision_network()
        cfg = EngineConfig(injection_rate=0.5, measure_slots=400, warmup_slots=0, seed=31,
                           attempts_per_hop=2, trace=True)
    else:
        dep, tess, sched, _, routes, _ = small_instance
        routes = routes[:40]
        cfg = EngineConfig(injection_rate=0.01, measure_slots=4000, seed=7, attempts_per_hop=2,
                           traffic=name, trace=True)
    return run(dep, tess, sched, table_of(routes, dep, tess), links.LogisticModel(), RADIO, cfg)


def hop_slice(m, cid):
    """The part of the run's per-hop arrays that holds connection ``cid``'s hops."""
    k = m.routes.connection_ids.tolist().index(cid)
    return slice(m.routes.offsets[k], m.routes.offsets[k + 1])


# A change to any draw, its order or a reception rule changes these digests;
# only a change meant to alter simulated outcomes may update them.
PINNED = {
    "bernoulli": "27b36661689daf0211ac7718b74c5676ea2da99f707ac3c3646a4e15801bd164",
    "saturated": "999082fe6d0fdd17ef00bbbf266cbd6608a4191e75fe364621d4603054bd5f95",
    "collision": "3d879180d0bb776a3176df6eed6d48295f4de0052caa2df35b0a1bbefb867ba6",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outcomes_pinned(name, small_instance):
    m = pinned_case(name, small_instance)
    outcomes = {row[5] for row in m.trace}
    assert outcomes >= ({"ok", "fail", "collision"} if name == "collision" else {"ok", "fail"})
    assert outcome_digest(m) == PINNED[name]


def full_digest(m):
    """SHA-256 of everything a run reports: counters, per-cell and per-hop
    arrays, and the trace with each SINR's repr."""
    h = hashlib.sha256(repr(m.trace).encode())
    for a in (m.injected, m.delivered, m.dropped, m.in_flight, m.utilization,
              m.mean_hop_success, m.hop_gamma, m.hop_nearest):
        h.update(b"-" if a is None else a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_plan_memo_bound_changes_nothing(name, small_instance, monkeypatch):
    # With room for one plan the memo is cleared at almost every miss, so
    # nearly every slot works out its plan afresh: the same bits.
    m = pinned_case(name, small_instance)
    monkeypatch.setattr(engine, "_PLAN_CAP", 1)
    bounded = pinned_case(name, small_instance)
    assert outcome_digest(bounded) == PINNED[name]
    assert full_digest(bounded) == full_digest(m)


def test_rate_zero_builds_no_link_state(small_instance, monkeypatch):
    # A measurement-only saturated run sends dummies alone: it builds neither
    # the link lists nor a gain table.  A run with packets builds both.
    dep, tess, sched, _, routes, _ = small_instance
    table = table_of(routes, dep, tess)
    calls = Counter()
    for name in ("_hop_links", "_gains"):
        def counted(*args, _name=name, _f=getattr(engine, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(engine, name, counted)
    for rate in (0.0, 0.01):
        calls.clear()
        cfg = EngineConfig(injection_rate=rate, traffic="saturated",
                           measure_slots=3 * sched.num_colors, seed=19)
        run(dep, tess, sched, table, links.LogisticModel(), RADIO, cfg)
        assert (calls["_hop_links"] > 0, calls["_gains"] > 0) == (rate > 0, rate > 0)


def test_lone_transmitter_sinr_is_signal_over_noise():
    dep, tess, sched, route = single_hop_network()
    cfg = EngineConfig(injection_rate=0.25, measure_slots=2000, seed=37, trace=True)
    m = run(dep, tess, sched, table_of([route], dep, tess), links.LogisticModel(), RADIO, cfg)
    power = RADIO.tx_power * links.path_gain(route.hop_lengths, RADIO.alpha)[0]
    expected = links.sinr([power], dep.nodes[[route.relays[1]]], dep.nodes[[route.relays[0]]],
                          RADIO, own=[0])[0][0]
    assert len(m.trace) > 100
    assert all(row[4] == expected for row in m.trace)


@pytest.mark.parametrize("network", ["single_hop", "collision"])
def test_mean_hop_success_is_the_mean_over_attempts(network):
    # With no warmup every attempt is counted, a collision included: the
    # engine's per-hop mean success is phi averaged over the trace's
    # attempts of the hop, summed in trace order.
    if network == "single_hop":
        dep, tess, sched, route = single_hop_network()
        routes = [route]
    else:
        dep, tess, sched, routes = collision_network()
    model = links.LogisticModel()
    cfg = EngineConfig(injection_rate=0.25, measure_slots=2000, warmup_slots=0, seed=37,
                       trace=True)
    m = run(dep, tess, sched, table_of(routes, dep, tess), model, RADIO, cfg)
    for k, r in enumerate(routes):
        total, count = 0.0, 0
        for _, _, tx, rx, sinr, outcome in m.trace:
            if outcome != "dummy" and (tx, rx) == (r.relays[0], r.relays[1]):
                total += model.success(sinr)
                count += 1
        assert count > 100
        assert m.routes.connection_ids[k] == r.connection_id
        assert m.mean_hop_success[hop_slice(m, r.connection_id)].tolist() == [total / count]


def test_equal_power_tie_goes_to_the_earlier_transmitter():
    # A and B sit mirror-symmetric about the receiver's node, so their
    # signals reach it at bit-equal power.  In a slot where both send, the
    # receiver decodes A, the earlier of the two in color order, and B
    # collides; the plain slot loop agrees.
    rho = 0.05
    s, c = math.sin(3 * rho / geometry.RADIUS), math.cos(3 * rho / geometry.RADIUS)
    nodes = np.array([[s, 0.0, c], [-s, 0.0, c], [0.0, 0.0, 1.0]])  # tx A, tx B, rx
    dep, tess, sched = single_node_cells(nodes, rho, [0, 0, 0])
    table = table_of([one_hop_route(0, dep, tess, 0, 2), one_hop_route(1, dep, tess, 1, 2)],
                     dep, tess)
    assert table.hop_length[0].tobytes() == table.hop_length[1].tobytes()
    cfg = EngineConfig(injection_rate=0.5, measure_slots=400, warmup_slots=0, seed=31,
                       trace=True)
    model = links.LogisticModel()
    m = run(dep, tess, sched, table, model, RADIO, cfg)
    assert repr(m.trace) == repr(reference_run(dep, tess, sched, table, model, RADIO, cfg)["trace"])
    outcomes = defaultdict(dict)
    for slot, cell, _, _, _, outcome in m.trace:
        outcomes[slot][cell] = outcome
    shared = [row for row in outcomes.values() if len(row) == 2]
    assert len(shared) > 50
    for row in shared:
        assert row[0] in ("ok", "fail") and row[1] == "collision", row


def test_shared_slot_sinr_is_the_kernel_value():
    # Both connections of the collision network often share a slot; each
    # such slot's SINRs must be the kernel's, however often the set recurs.
    dep, tess, sched, routes = collision_network()
    cfg = EngineConfig(injection_rate=0.5, measure_slots=400, warmup_slots=0, seed=31,
                       trace=True)
    m = run(dep, tess, sched, table_of(routes, dep, tess),
            links.ThresholdModel(beta=0.0), RADIO, cfg)
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


@functools.lru_cache(maxsize=16)
def reference_instance(shape, seed):
    """A small instance of ``shape = (n, scale, delta)``: n nodes in the
    cells of ``scale * n`` nodes, scheduled with conflict multiplier
    ``delta``; and the route table of up to 30 of its connections.  ``n = 0``
    is the collision network."""
    n, scale, delta = shape
    if n == 0:
        dep, tess, sched, routes = collision_network()
        return dep, tess, sched, table_of(routes, dep, tess)
    dep = tessellation.deploy(n, seed)
    tess = tessellation.build_tessellation(dep, tessellation.rho_for_n(scale * n, 1.2), seed + 1)
    conns = take(routing.pick_connections(dep, seed + 2), slice(30))
    table = routing.route_table(conns, routing.cell_paths(conns, dep, tess), dep, tess)
    return dep, tess, scheduling.build_schedule(tess, delta), table


class TestReferenceEngine:
    # No explain phase: it traces the reference loop line by line, so a broken
    # engine would take minutes to report instead of seconds.
    @settings(max_examples=40, deadline=None, derandomize=True,
              phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(
        # (300, 2, 4.0) has about seven cells in a color, so saturated slots
        # often sum eight or more transmitters for two or more receivers.
        instance=st.tuples(st.sampled_from([(300, 2, 4.0), (300, 1, 12.0), (150, 1, 4.0),
                                            (60, 1, 12.0), (0, 1, 12.0)]), st.integers(0, 2)),
        saturated=st.booleans(),
        rate=st.sampled_from([0.03, 0.2, 0.004, 0.0]),
        attempts=st.integers(1, 3),
        model=st.sampled_from([links.ThresholdModel(beta=40.0), links.ThresholdModel(beta=2e3),
                               links.ConstantPModel(0.7), links.LogisticModel(),
                               links.LogisticModel(a=0.3, midpoint_db=25.0)]),
        warmup=st.sampled_from([13, 0, None]),
        slots=st.integers(300, 2000),
        seed=st.integers(0, 2**16),
        trace=st.booleans(),
    )
    @example(instance=((300, 2, 4.0), 0), saturated=True, rate=0.03, attempts=2,
             model=links.LogisticModel(), warmup=None, slots=1500, seed=3, trace=True)
    @example(instance=((0, 1, 12.0), 0), saturated=False, rate=0.2, attempts=2,
             model=links.LogisticModel(), warmup=0, slots=400, seed=31, trace=True)
    @example(instance=((0, 1, 12.0), 0), saturated=True, rate=0.5, attempts=3,
             model=links.ThresholdModel(beta=40.0), warmup=None, slots=300, seed=5, trace=True)
    def test_engine_equals_the_plain_slot_loop(self, instance, saturated, rate, attempts, model,
                                               warmup, slots, seed, trace):
        # Counters, utilization, per-hop means and the trace, SINR bits
        # included, equal those of the plain loop in tests/reference_engine.py.
        dep, tess, sched, table = reference_instance(*instance)
        if rate == 0.0 and not saturated:
            rate = 0.01
        cfg = EngineConfig(injection_rate=rate, attempts_per_hop=attempts, measure_slots=slots,
                           warmup_slots=warmup, traffic="saturated" if saturated else "bernoulli",
                           seed=seed, trace=trace)
        m = run(dep, tess, sched, table, model, RADIO, cfg)
        ref = reference_run(dep, tess, sched, table, model, RADIO, cfg)
        for name in ("injected", "delivered", "dropped", "in_flight"):
            assert np.array_equal(getattr(m, name), ref[name]), name
        for name in ("utilization", "mean_hop_success"):
            assert getattr(m, name).tobytes() == ref[name].tobytes(), name
        assert repr(m.trace) == repr(ref["trace"])


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

    def test_negative_seed(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(seed=-1)


class TestDeterminismAndConservation:
    def test_identical_runs(self, small_instance):
        cfg = EngineConfig(injection_rate=0.01, measure_slots=2000, seed=3)
        m1 = run_subset(small_instance, links.ConstantPModel(0.8), cfg)
        m2 = run_subset(small_instance, links.ConstantPModel(0.8), cfg)
        np.testing.assert_array_equal(m1.injected, m2.injected)
        np.testing.assert_array_equal(m1.delivered, m2.delivered)
        np.testing.assert_array_equal(m1.dropped, m2.dropped)
        np.testing.assert_array_equal(m1.in_flight, m2.in_flight)

    def test_injections_have_their_own_stream(self, small_instance):
        # The link model changes how many reception draws a run takes, and
        # tracing takes none; neither may move an injection.
        runs = {}
        for p in (0.9, 0.5):
            for trace in (False, True):
                cfg = EngineConfig(injection_rate=0.02, measure_slots=3000, seed=5, trace=trace)
                runs[p, trace] = run_subset(small_instance, links.ConstantPModel(p), cfg)
        reference = runs[0.9, False]
        assert not np.array_equal(runs[0.5, False].delivered, reference.delivered)
        for m in runs.values():
            np.testing.assert_array_equal(m.injected, reference.injected)

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
        dep, tess, sched, _, routes, _ = small_instance
        # longest route alone, lossy links, no other traffic
        route = max(routes, key=lambda r: r.hop_count)
        cfg = EngineConfig(injection_rate=0.05, measure_slots=120_000, seed=11)
        m = run(dep, tess, sched, table_of([route], dep, tess),
                links.ConstantPModel(0.9), RADIO, cfg)
        resolved = int(m.delivered[0] + m.dropped[0])
        expected = 0.9**route.hop_count
        sigma = math.sqrt(expected * (1 - expected) / resolved)
        assert resolved > 2000
        assert abs(m.delivery_probability()[0] - expected) <= 3.5 * sigma

    def test_threshold_model_isolated_connection_is_lossless(self, small_instance):
        dep, tess, sched, _, routes, _ = small_instance
        route = max(routes, key=lambda r: r.hop_count)
        # A hop's concurrent transmitters are other hops of the route whose
        # cells share its color, so its SINR is at least the signal over the
        # noise plus all of those at full power; the floor is the least such
        # bound (the 1e-9 covers the summation order of the sums).
        signal = RADIO.tx_power * links.path_gain(route.hop_lengths, RADIO.alpha)
        tx, rx = np.array(route.relays[:-1]), np.array(route.relays[1:])
        colors = sched.color_of_cell[route.cells[:route.hop_count]]
        floor = min(
            links.sinr(signal[hops], dep.nodes[rx[hops]], dep.nodes[tx[hops]], RADIO,
                       own=np.arange(len(hops)))[0].min()
            for hops in (np.flatnonzero(colors == c) for c in set(colors.tolist()))
        )
        assert floor > 0
        model = links.ThresholdModel(beta=floor * (1 - 1e-9))
        cfg = EngineConfig(injection_rate=0.05, measure_slots=20_000, seed=13)
        m = run(dep, tess, sched, table_of([route], dep, tess), model, RADIO, cfg)
        assert m.dropped[0] == 0
        assert m.delivered[0] == m.injected[0] - m.in_flight[0]
        assert m.delivery_probability()[0] == 1.0

    @pytest.mark.parametrize("attempts,expected", [(1, 0.5), (2, 0.75)])
    def test_retry_budget_single_hop(self, attempts, expected):
        dep, tess, sched, route = single_hop_network()
        cfg = EngineConfig(
            injection_rate=0.25, measure_slots=60_000, seed=17, attempts_per_hop=attempts
        )
        m = run(dep, tess, sched, table_of([route], dep, tess),
                links.ConstantPModel(0.5), RADIO, cfg)
        resolved = int(m.delivered[0] + m.dropped[0])
        assert resolved > 5000
        assert m.delivery_probability()[0] == pytest.approx(expected, abs=0.02)


class TestArrivals:
    def test_full_rate_injects_in_every_slot(self, small_instance):
        cfg = EngineConfig(injection_rate=1.0, measure_slots=200, seed=3)
        m = run_subset(small_instance, links.ConstantPModel(0.9), cfg, count=20)
        assert m.injected.tolist() == [200] * 20

    def test_injected_count_is_binomial(self):
        # One connection injects Binomial(measure_slots, rate) packets in the
        # window.  Its exact two-sided tail must exceed 1e-3, which a correct
        # engine misses with probability at most 1e-3.
        dep, tess, sched, route = single_hop_network()
        lam, slots = 0.5 / sched.num_colors, 100_000
        cfg = EngineConfig(injection_rate=lam, measure_slots=slots, seed=71)
        m = run(dep, tess, sched, table_of([route], dep, tess),
                links.ConstantPModel(0.5), RADIO, cfg)
        k = int(m.injected[0])
        tail = 2 * min(stats.binom.cdf(k, slots, lam), stats.binom.sf(k - 1, slots, lam))
        assert tail > 1e-3


class TestSaturated:
    def test_full_utilization_and_samples(self, small_instance):
        dep, tess, sched, _, routes, _ = small_instance
        cfg = EngineConfig(
            injection_rate=0.0, traffic="saturated", measure_slots=2 * sched.num_colors, seed=19
        )
        m = run(dep, tess, sched, table_of(routes, dep, tess), links.LogisticModel(), RADIO, cfg)
        assert m.saturated
        assert np.all(m.utilization == 1.0)
        for r in routes[:50]:
            gamma = m.hop_gamma[hop_slice(m, r.connection_id)]
            assert len(gamma) == r.hop_count
            assert all(g > 0 for g in gamma)

    def test_rate_zero_sends_one_dummy_per_occupied_cell_and_slot(self):
        # At rate 0 no packet ever exists and the run counts its slots in
        # closed form.  Most cells of this sparse instance are empty: only an
        # occupied cell has a relay to send its dummy.
        dep = tessellation.deploy(40, 3)
        tess = tessellation.build_tessellation(dep, tessellation.rho_for_n(2000, 1.2), 4)
        sched = scheduling.build_schedule(tess, 12.0)
        relay = tess.relay_of_cell.tolist()
        occupied = tess.relay_of_cell >= 0
        assert 0 < occupied.sum() < tess.num_cells
        K, warmup, slots = sched.num_colors, 7, 2 * sched.num_colors + 5
        cfg = EngineConfig(injection_rate=0.0, traffic="saturated", warmup_slots=warmup,
                           measure_slots=slots, seed=1, trace=True)
        m = run(dep, tess, sched, routing.route_table(connections(), [], dep, tess),
                links.LogisticModel(), RADIO, cfg)
        assert np.all(m.utilization[occupied] == 1.0)
        assert np.all(m.utilization[~occupied] == 0.0)
        expected = [(s, c, relay[c], -1, "dummy") for s in range(warmup, warmup + slots)
                    for c in sched.cells_by_color[s % K].tolist() if relay[c] >= 0]
        assert [(s, c, tx, rx, o) for s, c, tx, rx, _, o in m.trace] == expected
        assert all(math.isnan(row[4]) for row in m.trace)

    def test_cells_transmit_in_the_slots_of_their_color(self, small_instance):
        # Slot s runs color s mod K; a window that is not a whole number of
        # cycles checks the per-cell count of active slots too.
        dep, tess, sched, _, routes, _ = small_instance
        K = sched.num_colors
        cfg = EngineConfig(injection_rate=0.0, traffic="saturated", warmup_slots=5,
                           measure_slots=2 * K + 3, seed=19, trace=True)
        m = run(dep, tess, sched, table_of(routes, dep, tess),
                links.ConstantPModel(0.9), RADIO, cfg)
        slots_of = defaultdict(list)
        for slot, cell, *_ in m.trace:
            slots_of[cell].append(slot)
        window = range(5, 5 + 2 * K + 3)
        for c, color in enumerate(sched.color_of_cell.tolist()):
            assert slots_of[c] == [s for s in window if s % K == color]
        assert np.all(m.utilization == 1.0)
        # a dummy interferes and is received by no one
        assert all(outcome == "dummy" and rx == -1 and math.isnan(sinr)
                   for _, _, _, rx, sinr, outcome in m.trace)

    def test_isolated_cell_interferes(self):
        # A sends to C, which has the other color; D holds a single node, has
        # no neighbor, carries no route and shares A's color.  Saturation
        # keeps D transmitting, so A's hop faces the field the saturated
        # measurement uses.
        rho = 0.05
        u = rho / geometry.RADIUS
        nodes = np.vstack([at(0.0), at(1.5 * u), at(6.0 * u, math.pi)])  # A, C, D
        dep, tess, sched = single_node_cells(nodes, rho, [0, 1, 0])
        assert tess.neighbors[2].size == 0
        cfg = EngineConfig(injection_rate=0.3, traffic="saturated", warmup_slots=0,
                           measure_slots=400, seed=5, trace=True)
        m = run(dep, tess, sched, table_of([one_hop_route(0, dep, tess, 0, 1)], dep, tess),
                links.LogisticModel(), RADIO, cfg)
        assert [slot for slot, cell, *_ in m.trace if cell == 2] == list(range(0, 400, 2))
        real = [sinr for *_, sinr, outcome in m.trace if outcome != "dummy"]
        assert len(real) > 50
        assert all(sinr == m.hop_gamma[0] for sinr in real)

    def test_engine_sinr_equals_saturated_measurement(self, small_instance):
        # The saturated measurement's field is every relay of the slot's
        # color, but a first-hop packet is sent by its source node.  So a
        # real attempt gets its hop's SINR, bit for bit, exactly when every
        # other transmitter of its slot is its cell's relay.
        dep, tess, sched, _, routes, _ = small_instance
        m = pinned_case("saturated", small_instance)
        gamma_of = defaultdict(set)  # (cell, tx, rx) -> the gammas of its hops
        for r in routes[:40]:
            gammas = m.hop_gamma[hop_slice(m, r.connection_id)].tolist()
            for h, g in enumerate(gammas):
                gamma_of[r.cells[h], r.relays[h], r.relays[h + 1]].add(g)
        assert all(len(gammas) == 1 for gammas in gamma_of.values())
        rows_of = defaultdict(list)
        for row in m.trace:
            rows_of[row[0]].append(row)
        relay = tess.relay_of_cell.tolist()
        agree = Counter()
        for rows in rows_of.values():
            for j, (_, cell, tx, rx, sinr, outcome) in enumerate(rows):
                if outcome == "dummy":
                    continue
                relays_only = all(row[2] == relay[row[1]]
                                  for i, row in enumerate(rows) if i != j)
                (g,) = gamma_of[cell, tx, rx]
                assert (sinr == g) == relays_only
                agree[relays_only] += 1
        assert agree[True] > 1000 and agree[False] > 100

    def test_samples_match_direct_evaluation(self, small_instance):
        dep, tess, sched, _, routes, _ = small_instance
        relay = tess.relay_of_cell
        table = table_of(routes[:20], dep, tess)
        gammas, nearests = engine.saturated_hop_samples(dep, tess, sched, table, RADIO)
        samples = iter(zip(gammas.tolist(), nearests.tolist()))
        for r in routes[:20]:
            for hop in range(r.hop_count):
                s_gamma, s_nearest = next(samples)
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
                assert s_gamma == pytest.approx(gamma, rel=1e-13)
                if field:
                    assert s_nearest == pytest.approx(d.min(), rel=1e-13)
                else:
                    assert s_nearest == math.inf
        assert next(samples, None) is None

    def test_samples_periodic_in_schedule(self, small_instance):
        dep, tess, sched, _, routes, _ = small_instance
        table = table_of(routes[:20], dep, tess)
        s1 = engine.saturated_hop_samples(dep, tess, sched, table, RADIO)
        s2 = engine.saturated_hop_samples(dep, tess, sched, table, RADIO)
        assert all(np.array_equal(a, b) for a, b in zip(s1, s2))

    @pytest.mark.parametrize("strategy, growth", [
        ("straight_line", None), ("straight_line", "log"), ("straight_line", "pow:0.1"),
        ("random_walk_loop_erased", None),
    ])
    def test_samples_equal_the_per_hop_reference(self, small_instance, strategy, growth):
        # Each link is measured once and its hops gather its row: the bits of
        # measuring every hop, under the fixed schedule, the conservative one
        # (one transmitter per slot with the log growth, reuse with pow:0.1)
        # and an arbitrary strategy.
        dep, tess, sched, conns, _, paths = small_instance
        if growth is not None:
            sched = scheduling.build_conservative_schedule(tess, growth)
        if strategy != "straight_line":
            paths = routing.cell_paths(conns, dep, tess, strategy, 9)
        table = routing.route_table(conns, paths, dep, tess)
        assert len(np.unique(table.link)) < len(table.link)
        per_link = engine.saturated_hop_samples(dep, tess, sched, table, RADIO)
        per_hop = per_hop_samples(dep, tess, sched, table, RADIO)
        assert [a.tobytes() for a in per_link] == [a.tobytes() for a in per_hop]

    def test_hop_lengths_equal_one_per_hop_measurement(self, small_instance):
        dep, tess, _, conns, _, paths = small_instance
        table = routing.route_table(conns, paths, dep, tess)
        per_hop = geometry.surface_distance(dep.nodes[table.tx], dep.nodes[table.rx])
        assert table.hop_length.tobytes() == per_hop.tobytes()

    def test_link_ids_equal_the_hops_shared_by_value(self, small_instance):
        # The links are the hops' distinct (cell, next cell, tx, rx) and
        # received powers, in the order of their first hops, and each hop
        # names its own.
        dep, tess, _, _, routes, _ = small_instance
        table = table_of(routes, dep, tess)
        entries, link_of_hop, power, _ = engine._hop_links(table, RADIO)
        per_hop = list(zip(
            zip(table.cell.tolist(), table.next_cell.tolist(), table.tx.tolist(),
                table.rx.tolist()),
            (RADIO.tx_power * links.path_gain(table.hop_length, RADIO.alpha)).tolist()))
        distinct = list(dict.fromkeys(per_hop))
        assert [(entry[0], p) for entry, p in zip(entries, power)] == distinct
        assert [distinct[i] for i in link_of_hop] == per_hop

    def test_real_packets_still_flow(self, small_instance):
        dep, tess, sched, _, routes, _ = small_instance
        cfg = EngineConfig(
            injection_rate=0.002, traffic="saturated", measure_slots=20_000, seed=23
        )
        m = run(dep, tess, sched, table_of(routes[:20], dep, tess),
                links.ConstantPModel(0.9), RADIO, cfg)
        assert m.delivered.sum() > 0


def per_hop_samples(dep, tess, schedule, table, radio):
    """``engine.saturated_hop_samples`` as one ``links.sinr`` row per hop, not
    per link: the bitwise reference."""
    relay_of_cell = tess.relay_of_cell
    cells, rx = table.cell, table.rx
    signal = radio.tx_power * links.path_gain(table.hop_length, radio.alpha)
    colors = schedule.color_of_cell[cells]
    gamma = np.empty(len(cells))
    nearest = np.empty(len(cells))
    position = np.empty(tess.num_cells, dtype=np.int64)  # cell -> index in its field
    for k, field in enumerate(schedule.cells_by_color):
        hops = np.flatnonzero(colors == k)
        field = field[relay_of_cell[field] >= 0]
        position[field] = np.arange(len(field))
        gamma[hops], nearest[hops] = links.sinr(
            signal[hops], dep.nodes[rx[hops]], dep.nodes[relay_of_cell[field]], radio,
            own=position[cells[hops]],
        )
    return gamma, nearest


class TestPerHopArrays:
    def test_offsets_span_every_hop(self, small_instance):
        dep, tess, sched, _, routes, _ = small_instance
        cfg = EngineConfig(injection_rate=0.0, traffic="saturated",
                           measure_slots=sched.num_colors, seed=19)
        m = run(dep, tess, sched, table_of(routes[:60], dep, tess),
                links.ConstantPModel(0.9), RADIO, cfg)
        hops = sum(r.hop_count for r in routes[:60])
        assert len(m.routes.offsets) == len(m.routes) + 1
        assert m.routes.offsets[0] == 0 and m.routes.offsets[-1] == hops
        for per_hop in (m.mean_hop_success, m.hop_gamma, m.hop_nearest):
            assert len(per_hop) == hops
        for r in routes[:60]:
            span = hop_slice(m, r.connection_id)
            assert span.stop - span.start == r.hop_count

    def test_bernoulli_run_has_no_saturated_samples(self, small_instance):
        cfg = EngineConfig(injection_rate=0.01, measure_slots=50, seed=19)
        m = run_subset(small_instance, links.ConstantPModel(0.9), cfg, count=20)
        assert m.hop_gamma is None and m.hop_nearest is None
        assert len(m.mean_hop_success) == m.routes.offsets[-1]


class TestReceptionRules:
    def test_strongest_reception_wins(self):
        dep, tess, sched, routes = collision_network()
        model = links.ThresholdModel(beta=0.0)  # succeeds at any SINR
        cfg = EngineConfig(injection_rate=1.0, measure_slots=500, warmup_slots=0, seed=29)
        m = run(dep, tess, sched, table_of(routes, dep, tess), model, RADIO, cfg)
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
        dep, tess, sched, _, routes, _ = small_instance
        cfg = EngineConfig(
            injection_rate=0.0, traffic="saturated", measure_slots=sched.num_colors, seed=53
        )
        m = run(dep, tess, sched, table_of(routes[:10], dep, tess),
                links.ConstantPModel(0.9), RADIO, cfg)
        assert not m.injected.any()
        assert m.throughput == 0.0
        assert m.lambda_realized == 0.0

    def test_lossless_single_hop_throughput_matches_injection(self):
        dep, tess, sched, route = single_hop_network()
        floor = RADIO.tx_power * float(route.hop_lengths[0]) ** -RADIO.alpha / RADIO.noise
        model = links.ThresholdModel(beta=floor * 0.5)
        lam = 0.25 / sched.num_colors  # safely under the service ceiling
        cfg = EngineConfig(injection_rate=lam, measure_slots=80_000, seed=61)
        m = run(dep, tess, sched, table_of([route], dep, tess), model, RADIO, cfg)
        sigma = math.sqrt(lam * (1 - lam) / cfg.measure_slots) / dep.n
        assert m.dropped[0] == 0
        assert abs(m.throughput - m.lambda_realized) <= 3 * sigma + 1.0 / (
            dep.n * cfg.measure_slots
        ) * float(m.in_flight[0])

    def test_ceilings(self, small_instance):
        dep, tess, sched, _, _, _ = small_instance
        summary = throughput_summary(tess, sched)
        occ = tess.occupancy()
        assert summary.injection_ceiling == pytest.approx(
            1.0 / (occ.max() * sched.num_colors)
        )
        assert summary.occupancy_rate_bound == pytest.approx(
            4.0 / (math.pi * dep.n * tess.rho_n**2)
        )
