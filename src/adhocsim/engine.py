"""Slot-synchronous packet engine.

Each slot, every scheduled cell with a nonempty queue transmits its head
packet; the set of concurrent transmitters defines the interference seen
by every receiver, receptions succeed independently with the link
model's probability at the measured SINR, and a hop whose attempt budget
is exhausted drops its packet.  Runs are fully deterministic given the
configuration seed.

Saturated traffic keeps every occupied cell transmitting in each of its
slots (dummy relays fill idle queues), which makes the per-slot
transmitter set repeat with the schedule; the per-hop SINR and
nearest-interferer measurements used by the claim checkers are taken
against those per-slot transmitter sets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import ConfigurationError
from .links import LinkModel, RadioParams, path_gain, sinr
from .routing import Route, all_cell_relays
from .scheduling import Schedule
from .tessellation import Deployment, Tessellation

TRAFFIC_MODES = ("bernoulli", "saturated")
_RESERVOIR_CAP = 32


@dataclass(frozen=True)
class EngineConfig:
    injection_rate: float = 0.002  # per source per slot
    attempts_per_hop: int = 1
    measure_slots: int = 5000
    warmup_slots: int | None = None  # default: 10 schedule rotations
    traffic: str = "bernoulli"
    seed: int = 0
    trace: bool = False

    def __post_init__(self):
        if self.traffic not in TRAFFIC_MODES:
            raise ConfigurationError(f"traffic must be one of {TRAFFIC_MODES}")
        if self.traffic == "saturated":
            if not 0.0 <= self.injection_rate <= 1.0:
                raise ConfigurationError("injection rate must lie in [0, 1]")
        elif not 0.0 < self.injection_rate <= 1.0:
            raise ConfigurationError("injection rate must lie in (0, 1]")
        if self.attempts_per_hop < 1:
            raise ConfigurationError("attempt budget must be at least 1")
        if self.measure_slots < 1:
            raise ConfigurationError("measure_slots must be at least 1")
        if self.warmup_slots is not None and self.warmup_slots < 0:
            raise ConfigurationError("warmup_slots must be nonnegative")


class _Packet:
    __slots__ = ("conn", "hop", "attempts", "measured")

    def __init__(self, conn, measured):
        self.conn = conn
        self.hop = 0
        self.attempts = 0
        self.measured = measured


@dataclass(frozen=True)
class HopSample:
    """Stationary per-hop measurement from a saturated run."""

    gamma: float
    nearest_interferer: float  # surface distance; inf = no interferer


@dataclass
class RunMetrics:
    n: int
    rho_n: float
    schedule_length: int
    slots: int
    warmup_slots: int
    saturated: bool
    connection_ids: np.ndarray
    injected: np.ndarray
    delivered: np.ndarray
    dropped: np.ndarray
    in_flight: np.ndarray
    lambda_realized: float  # injected packets per node per slot
    throughput: float  # delivered packets per node per slot
    utilization: np.ndarray  # transmissions / active slots, per cell
    cell_occupancy: np.ndarray  # nodes per cell
    attempt_sinrs: dict[int, list[list[float]]] = field(repr=False)
    hop_samples: dict[int, list[HopSample]] = field(default_factory=dict, repr=False)
    trace: list[tuple] = field(default_factory=list, repr=False)

    def delivery_probability(self) -> np.ndarray:
        """Delivered fraction of resolved in-window packets (in flight censored)."""
        resolved = self.delivered + self.dropped
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(resolved > 0, self.delivered / resolved, np.nan)

    def check_conservation(self) -> None:
        bad = self.injected != self.delivered + self.dropped + self.in_flight
        if np.any(bad):
            raise AssertionError("packet conservation violated")


def run(
    dep: Deployment,
    tess: Tessellation,
    schedule: Schedule,
    routes: list[Route],
    model: LinkModel,
    radio: RadioParams,
    cfg: EngineConfig,
) -> RunMetrics:
    """Execute one simulation and aggregate per-connection delivery."""
    routes_by_conn = {r.connection_id: r for r in routes}
    conn_ids = sorted(routes_by_conn)
    conn_index = {cid: k for k, cid in enumerate(conn_ids)}
    nodes = dep.nodes
    saturated = cfg.traffic == "saturated"
    K = schedule.num_colors
    warmup = cfg.warmup_slots if cfg.warmup_slots is not None else 10 * K
    total_slots = warmup + cfg.measure_slots
    rng = np.random.default_rng(cfg.seed)

    relay_of_cell = all_cell_relays(tess, dep)
    dummy_rx = _dummy_receivers(tess, routes_by_conn, relay_of_cell, conn_ids)
    # Received signal power per route hop and per cell's dummy link, from
    # the atan2 link lengths (short links need its accuracy).
    hop_power = {
        cid: (radio.tx_power * path_gain(r.hop_lengths, radio.alpha)).tolist()
        for cid, r in routes_by_conn.items()
    }
    dummy_power = np.zeros(tess.num_cells)
    if saturated:
        linked = (relay_of_cell >= 0) & (dummy_rx >= 0)
        dummy_power[linked] = radio.tx_power * path_gain(
            geometry.surface_distance(nodes[relay_of_cell[linked]], nodes[dummy_rx[linked]]),
            radio.alpha,
        )

    # One FIFO per cell, shared by every connection relaying through it.
    queues = {c: deque() for c in range(tess.num_cells)}
    injected = np.zeros(len(conn_ids), dtype=np.int64)
    delivered = np.zeros(len(conn_ids), dtype=np.int64)
    dropped = np.zeros(len(conn_ids), dtype=np.int64)
    active_slots = np.zeros(tess.num_cells, dtype=np.int64)
    transmit_slots = np.zeros(tess.num_cells, dtype=np.int64)
    attempt_sinrs: dict[int, list[list[float]]] = {
        cid: [[] for _ in range(routes_by_conn[cid].hop_count)] for cid in conn_ids
    }
    sample_counts: dict[int, list[int]] = {
        cid: [0] * routes_by_conn[cid].hop_count for cid in conn_ids
    }
    trace_rows: list[tuple] = []

    for slot in range(total_slots):
        measuring = slot >= warmup
        active = schedule.active_cells(slot)
        txs = []  # (cell, tx_node, rx_node, packet_or_None, signal_power)
        for c in active:
            c = int(c)
            if measuring:
                active_slots[c] += 1
            q = queues[c]
            if q:
                pkt = q[0]
                r = routes_by_conn[pkt.conn]
                txs.append((c, r.relays[pkt.hop], r.relays[pkt.hop + 1], pkt,
                            hop_power[pkt.conn][pkt.hop]))
            elif saturated and relay_of_cell[c] >= 0 and dummy_rx[c] >= 0:
                txs.append((c, int(relay_of_cell[c]), int(dummy_rx[c]), None,
                            float(dummy_power[c])))
        if txs:
            if measuring:
                for t in txs:
                    transmit_slots[t[0]] += 1
            _resolve_slot(
                txs, nodes, model, radio, cfg, rng, slot, measuring,
                routes_by_conn, conn_index, queues, delivered, dropped,
                attempt_sinrs, sample_counts, trace_rows,
            )
        # Inject after transmissions so a fresh packet waits at least one slot.
        if cfg.injection_rate > 0.0:
            hits = np.flatnonzero(rng.random(len(conn_ids)) < cfg.injection_rate)
        else:
            hits = []
        for k in hits:
            cid = conn_ids[int(k)]
            r = routes_by_conn[cid]
            queues[r.cells[0]].append(_Packet(cid, measuring))
            if measuring:
                injected[conn_index[cid]] += 1

    in_flight = np.zeros(len(conn_ids), dtype=np.int64)
    for q in queues.values():
        for pkt in q:
            if pkt.measured:
                in_flight[conn_index[pkt.conn]] += 1

    with np.errstate(invalid="ignore", divide="ignore"):
        utilization = np.where(active_slots > 0, transmit_slots / active_slots, 0.0)
    metrics = RunMetrics(
        n=dep.n,
        rho_n=tess.rho_n,
        schedule_length=K,
        slots=cfg.measure_slots,
        warmup_slots=warmup,
        saturated=saturated,
        connection_ids=np.asarray(conn_ids, dtype=np.int64),
        injected=injected,
        delivered=delivered,
        dropped=dropped,
        in_flight=in_flight,
        lambda_realized=float(injected.sum()) / (dep.n * cfg.measure_slots),
        throughput=float(delivered.sum()) / (dep.n * cfg.measure_slots),
        utilization=utilization,
        cell_occupancy=tess.occupancy(),
        attempt_sinrs=attempt_sinrs,
        trace=trace_rows,
    )
    metrics.check_conservation()
    if saturated:
        metrics.hop_samples = saturated_hop_samples(
            dep, tess, schedule, routes, radio, relay_of_cell
        )
    return metrics


def _resolve_slot(
    txs, nodes, model, radio, cfg, rng, slot, measuring,
    routes_by_conn, conn_index, queues, delivered, dropped,
    attempt_sinrs, sample_counts, trace_rows,
):
    signal = [t[4] for t in txs]
    gamma, _ = sinr(
        signal, nodes[[t[2] for t in txs]], nodes[[t[1] for t in txs]], radio,
        own=np.arange(len(txs)),
    )

    # A node decodes at most one packet per slot: only the strongest inbound
    # signal is attempted, the rest fail (but still interfere network-wide).
    strongest: dict[int, int] = {}
    for j, (_, _, rx, pkt, _) in enumerate(txs):
        if pkt is None:
            continue
        best = strongest.get(rx)
        if best is None or signal[j] > signal[best]:
            strongest[rx] = j

    for j, (cell, tx, rx, pkt, _) in enumerate(txs):
        if pkt is None:
            if cfg.trace and measuring:
                trace_rows.append((slot, cell, tx, rx, float(gamma[j]), "dummy"))
            continue
        g = float(gamma[j])
        cid = pkt.conn
        hop = pkt.hop
        if pkt.measured and measuring:
            _reservoir_add(attempt_sinrs[cid][hop], sample_counts[cid], hop, g, rng)
        if strongest[rx] != j:
            success = False
            outcome = "collision"
        else:
            success = rng.random() < model.success(g)
            outcome = "ok" if success else "fail"
        if cfg.trace and measuring:
            trace_rows.append((slot, cell, tx, rx, g, outcome))
        q = queues[cell]
        if success:
            q.popleft()
            pkt.hop += 1
            pkt.attempts = 0
            r = routes_by_conn[cid]
            if pkt.hop >= r.hop_count:
                if pkt.measured and measuring:
                    delivered[conn_index[cid]] += 1
            else:
                queues[r.cells[pkt.hop]].append(pkt)
        else:
            pkt.attempts += 1
            if pkt.attempts >= cfg.attempts_per_hop:
                q.popleft()
                if pkt.measured and measuring:
                    dropped[conn_index[cid]] += 1


def _reservoir_add(samples, counts, hop, value, rng):
    counts[hop] += 1
    if len(samples) < _RESERVOIR_CAP:
        samples.append(value)
    else:
        k = int(rng.integers(counts[hop]))
        if k < _RESERVOIR_CAP:
            samples[k] = value


def _dummy_receivers(tess, routes_by_conn, relay_of_cell, conn_ids) -> np.ndarray:
    """Per cell, the receiver its idle-slot dummy transmission targets.

    Prefers the next relay of the lowest-id route through the cell, then the
    relay of the lowest-id occupied neighbor cell, then any other node in the
    cell; -1 if the cell cannot transmit to anyone.
    """
    dummy_rx = np.full(tess.num_cells, -1, dtype=np.int64)
    for cid in conn_ids:
        r = routes_by_conn[cid]
        for hop in range(r.hop_count):
            c = r.cells[hop]
            if dummy_rx[c] < 0 and r.relays[hop + 1] != relay_of_cell[c]:
                dummy_rx[c] = r.relays[hop + 1]
    for c in range(tess.num_cells):
        if dummy_rx[c] >= 0 or relay_of_cell[c] < 0:
            continue
        for d in tess.neighbors[c]:
            if relay_of_cell[int(d)] >= 0:
                dummy_rx[c] = relay_of_cell[int(d)]
                break
        else:
            others = [i for i in tess.nodes_in_cell[c] if i != relay_of_cell[c]]
            if others:
                dummy_rx[c] = int(others[0])
    return dummy_rx


def saturated_hop_samples(
    dep: Deployment,
    tess: Tessellation,
    schedule: Schedule,
    routes: list[Route],
    radio: RadioParams,
    relay_of_cell: np.ndarray | None = None,
) -> dict[int, list[HopSample]]:
    """Per-hop SINR and nearest-interferer distance under saturation.

    With every occupied cell transmitting in each of its slots the
    transmitter set of a slot depends only on its color, so one measurement
    per hop covers every attempt that hop can experience.  The transmitter
    field of a color is each of its occupied cells' relay node; a hop's own
    cell is left out of it, since that cell transmits the hop's signal.  One
    ``sinr`` call per color measures all of that color's hops, the same
    kernel, on the same field, that the engine runs in its slots.
    """
    if relay_of_cell is None:
        relay_of_cell = all_cell_relays(tess, dep)
    cells = np.array([c for r in routes for c in r.cells[:r.hop_count]], dtype=np.int64)
    rx = np.array([x for r in routes for x in r.relays[1:]], dtype=np.int64)
    lengths = np.array([d for r in routes for d in r.hop_lengths], dtype=float)
    signal = radio.tx_power * path_gain(lengths, radio.alpha)
    colors = schedule.color_of_cell[cells]
    gamma = np.empty(len(cells))
    nearest = np.empty(len(cells))
    position = np.empty(tess.num_cells, dtype=np.int64)  # cell -> index in its field
    for k, field in enumerate(schedule.cells_by_color):
        hops = np.flatnonzero(colors == k)
        field = field[relay_of_cell[field] >= 0]
        position[field] = np.arange(len(field))
        gamma[hops], nearest[hops] = sinr(
            signal[hops], dep.nodes[rx[hops]], dep.nodes[relay_of_cell[field]], radio,
            own=position[cells[hops]],
        )
    pairs = iter(zip(gamma.tolist(), nearest.tolist()))
    return {r.connection_id: [HopSample(*next(pairs)) for _ in range(r.hop_count)]
            for r in routes}


@dataclass(frozen=True)
class ThroughputSummary:
    injection_ceiling: float  # 1 / (max occupancy * K)
    occupancy_rate_bound: float  # 4 / (pi * n * rho_n^2)


def throughput_summary(metrics: RunMetrics) -> ThroughputSummary:
    """The cell-sharing feasibility ceilings of a run.

    A cell with ``Q`` resident nodes transmitting once per ``K`` slots cannot
    give any of them more than ``1/(Q*K)`` injections per slot, and for any
    certified tessellation the per-node rate is capped by
    ``4 / (pi * n * rho_n**2)``.
    """
    return ThroughputSummary(
        injection_ceiling=1.0 / (int(metrics.cell_occupancy.max()) * metrics.schedule_length),
        occupancy_rate_bound=4.0 / (math.pi * metrics.n * metrics.rho_n**2),
    )
