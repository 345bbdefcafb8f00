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
    __slots__ = ("conn", "hop", "attempts", "measured")  # conn: index in id order

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
    routes = sorted(routes, key=lambda r: r.connection_id)
    conn_ids = [r.connection_id for r in routes]
    saturated = cfg.traffic == "saturated"
    K = schedule.num_colors
    warmup = cfg.warmup_slots if cfg.warmup_slots is not None else 10 * K
    total_slots = warmup + cfg.measure_slots
    rng = np.random.default_rng(cfg.seed)

    relay_of_cell = all_cell_relays(tess, dep)
    dummy_rx = _dummy_receivers(tess, routes, relay_of_cell)
    # Every link a slot can use, built once: per connection one per hop, per
    # cell its dummy link under saturation.  Received powers come from the
    # atan2 hop lengths (short links need its accuracy).
    hop_links = [
        _links(r.cells[:r.hop_count], r.relays[:-1], r.relays[1:],
               radio.tx_power * path_gain(r.hop_lengths, radio.alpha), radio,
               [*r.cells[1:r.hop_count], -1])
        for r in routes
    ]
    dummy_links = [None] * tess.num_cells
    if saturated:
        cells = np.flatnonzero((relay_of_cell >= 0) & (dummy_rx >= 0))
        tx, rx = relay_of_cell[cells], dummy_rx[cells]
        power = radio.tx_power * path_gain(
            geometry.surface_distance(dep.nodes[tx], dep.nodes[rx]), radio.alpha
        )
        for link in _links(cells.tolist(), tx.tolist(), rx.tolist(), power, radio,
                           [-1] * len(cells)):
            dummy_links[link[0]] = link

    # One FIFO per cell, shared by every connection relaying through it.
    queues = [deque() for _ in range(tess.num_cells)]
    source_cell = [r.cells[0] for r in routes]
    injected, delivered, dropped = [0] * len(routes), [0] * len(routes), [0] * len(routes)
    attempt_sinrs = [[[] for _ in range(r.hop_count)] for r in routes]
    sample_counts = [[0] * r.hop_count for r in routes]
    transmit_slots = [0] * tess.num_cells
    trace_rows: list[tuple] = []
    gamma_of: dict[tuple, list[float]] = {}  # SINRs of each multi-transmitter link set
    cells_by_color = [cells.tolist() for cells in schedule.cells_by_color]
    for slot in range(total_slots):
        measuring = slot >= warmup
        txs = []  # (packet or None for a dummy, link)
        for c in cells_by_color[slot % K]:
            if queues[c]:
                pkt = queues[c][0]
                txs.append((pkt, hop_links[pkt.conn][pkt.hop]))
            elif dummy_links[c] is not None:
                txs.append((None, dummy_links[c]))
        if txs:
            if measuring:
                for _, link in txs:
                    transmit_slots[link[0]] += 1
            _resolve_slot(
                txs, dep.nodes, model, radio, cfg, rng, slot, measuring, queues,
                delivered, dropped, attempt_sinrs, sample_counts, trace_rows, gamma_of,
            )
        # Inject after transmissions so a fresh packet waits at least one slot.
        if cfg.injection_rate > 0.0:
            for k in (rng.random(len(routes)) < cfg.injection_rate).nonzero()[0].tolist():
                queues[source_cell[k]].append(_Packet(k, measuring))
                if measuring:
                    injected[k] += 1

    in_flight = np.bincount(
        [pkt.conn for q in queues for pkt in q if pkt.measured], minlength=len(routes)
    ).astype(np.int64)
    # A cell is active in the slots congruent to its color.
    window = np.arange(warmup, total_slots) % K
    active_slots = np.bincount(window, minlength=K)[schedule.color_of_cell]
    with np.errstate(invalid="ignore", divide="ignore"):
        utilization = np.where(active_slots > 0, np.array(transmit_slots) / active_slots, 0.0)
    injected, delivered, dropped = (
        np.array(counts, dtype=np.int64) for counts in (injected, delivered, dropped)
    )
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
        attempt_sinrs=dict(zip(conn_ids, attempt_sinrs)),
        trace=trace_rows,
    )
    metrics.check_conservation()
    if saturated:
        metrics.hop_samples = saturated_hop_samples(
            dep, tess, schedule, routes, radio, relay_of_cell
        )
    return metrics


def _links(cells, tx, rx, power, radio, next_cells):
    """Link tuples ``(cell, tx, rx, power, lone SINR, next cell or -1)``.

    The lone SINR ``power / noise`` is what ``sinr`` returns for a
    transmitter that has the slot to itself.
    """
    lone = power / radio.noise
    return list(zip(cells, tx, rx, power.tolist(), lone.tolist(), next_cells))


def _resolve_slot(
    txs, nodes, model, radio, cfg, rng, slot, measuring, queues,
    delivered, dropped, attempt_sinrs, sample_counts, trace_rows, gamma_of,
):
    # The SINRs are a function of the slot's links alone, so a lone
    # transmitter and a recurring set of links skip the kernel's overhead.
    if len(txs) == 1:
        gamma = (txs[0][1][4],)
        strongest = None
    else:
        links = tuple(link for _, link in txs)
        gamma = gamma_of.get(links)
        if gamma is None:
            gamma = gamma_of[links] = sinr(
                [link[3] for link in links], nodes[[link[2] for link in links]],
                nodes[[link[1] for link in links]], radio, own=np.arange(len(links)),
            )[0].tolist()
        # A node decodes at most one packet per slot: only the strongest
        # inbound signal is attempted, the rest fail (but still interfere
        # network-wide).
        strongest = {}
        for j, (pkt, link) in enumerate(txs):
            if pkt is not None:
                best = strongest.get(link[2])
                if best is None or link[3] > links[best][3]:
                    strongest[link[2]] = j

    trace = cfg.trace and measuring
    for j, (pkt, (cell, tx, rx, _, _, next_cell)) in enumerate(txs):
        g = gamma[j]
        if pkt is None:
            if trace:
                trace_rows.append((slot, cell, tx, rx, g, "dummy"))
            continue
        k, hop = pkt.conn, pkt.hop
        counted = pkt.measured and measuring
        if counted:
            _reservoir_add(attempt_sinrs[k][hop], sample_counts[k], hop, g, rng)
        if strongest is not None and strongest[rx] != j:
            success = False
            outcome = "collision"
        else:
            success = rng.random() < model.success(g)
            outcome = "ok" if success else "fail"
        if trace:
            trace_rows.append((slot, cell, tx, rx, g, outcome))
        if success:
            queues[cell].popleft()
            pkt.hop += 1
            pkt.attempts = 0
            if next_cell < 0:
                if counted:
                    delivered[k] += 1
            else:
                queues[next_cell].append(pkt)
        else:
            pkt.attempts += 1
            if pkt.attempts >= cfg.attempts_per_hop:
                queues[cell].popleft()
                if counted:
                    dropped[k] += 1


def _reservoir_add(samples, counts, hop, value, rng):
    counts[hop] += 1
    if len(samples) < _RESERVOIR_CAP:
        samples.append(value)
    else:
        k = int(rng.integers(counts[hop]))
        if k < _RESERVOIR_CAP:
            samples[k] = value


def _dummy_receivers(tess, routes, relay_of_cell) -> np.ndarray:
    """Per cell, the receiver its idle-slot dummy transmission targets.

    Prefers the next relay of the lowest-id route through the cell, then the
    relay of the lowest-id occupied neighbor cell, then any other node in the
    cell; -1 if the cell cannot transmit to anyone.  ``routes`` is in
    connection-id order.
    """
    dummy_rx = np.full(tess.num_cells, -1, dtype=np.int64)
    for r in routes:
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
