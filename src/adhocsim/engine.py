"""Slot-synchronous packet engine.

Each slot, every scheduled cell with a nonempty queue transmits its head
packet; the set of concurrent transmitters defines the interference seen
by every receiver, receptions succeed independently with the link
model's probability at the measured SINR, and a hop whose attempt budget
is exhausted drops its packet.  Runs are fully deterministic given the
configuration seed.

Saturated traffic keeps every occupied cell transmitting in each of its
slots: an idle cell's relay sends a dummy, which interferes and is
received by no one.  The per-slot transmitter set then repeats with the
schedule; the per-hop SINR and nearest-interferer measurements used by
the claim checkers are taken against those per-slot transmitter sets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .links import LinkModel, RadioParams, path_gain, sinr
from .routing import Route
from .scheduling import Schedule
from .tessellation import Deployment, Tessellation
from .tessellation import all_cell_relays  # noqa: F401  (pipebench's tracer wraps this name)

TRAFFIC_MODES = ("bernoulli", "saturated")


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


@dataclass
class RunMetrics:
    """Per-connection counts, in ascending connection id, and per-hop
    arrays, flat over those connections' hops: connection ``k``'s hops are
    ``hop_offsets[k]:hop_offsets[k + 1]``."""

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
    hop_offsets: np.ndarray = field(repr=False)  # (connections + 1,)
    mean_hop_success: np.ndarray = field(repr=False)  # NaN: no counted attempt
    # Saturated runs only (None otherwise): each hop's stationary SINR and
    # nearest-interferer surface distance (inf: no interferer).
    hop_gamma: np.ndarray | None = field(default=None, repr=False)
    hop_nearest: np.ndarray | None = field(default=None, repr=False)
    trace: list[tuple] = field(default_factory=list, repr=False)

    @cached_property
    def position(self) -> dict[int, int]:
        """Connection id -> index ``k``; a connection not in the run has none."""
        return {cid: k for k, cid in enumerate(self.connection_ids.tolist())}

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
    saturated = cfg.traffic == "saturated"
    K = schedule.num_colors
    warmup = cfg.warmup_slots if cfg.warmup_slots is not None else 10 * K
    total_slots = warmup + cfg.measure_slots
    rng = np.random.default_rng(cfg.seed)

    # Every link a slot can use, built once: per connection one per hop, per
    # occupied cell its dummy link under saturation, which has no receiver.
    # Received powers come from the atan2 hop lengths (short links need its
    # accuracy).
    hop_links = [
        _links(r.cells[:r.hop_count], r.relays[:-1], r.relays[1:],
               radio.tx_power * path_gain(r.hop_lengths, radio.alpha), radio,
               [*r.cells[1:r.hop_count], -1])
        for r in routes
    ]
    dummy_links = [None] * tess.num_cells
    if saturated:
        for c, relay in enumerate(tess.relay_of_cell.tolist()):
            if relay >= 0:
                dummy_links[c] = (c, relay, -1, 0.0, math.nan, -1)

    # One FIFO per cell, shared by every connection relaying through it.
    queues = [deque() for _ in range(tess.num_cells)]
    source_cell = [r.cells[0] for r in routes]
    injected, delivered, dropped = [0] * len(routes), [0] * len(routes), [0] * len(routes)
    # Per hop, the success probability summed over counted attempts, and
    # their count.
    success_sums = [[0.0] * r.hop_count for r in routes]
    attempt_counts = [[0] * r.hop_count for r in routes]
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
                delivered, dropped, success_sums, attempt_counts, trace_rows, gamma_of,
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
        slots=cfg.measure_slots,
        warmup_slots=warmup,
        saturated=saturated,
        connection_ids=np.array([r.connection_id for r in routes], dtype=np.int64),
        injected=injected,
        delivered=delivered,
        dropped=dropped,
        in_flight=in_flight,
        lambda_realized=float(injected.sum()) / (dep.n * cfg.measure_slots),
        throughput=float(delivered.sum()) / (dep.n * cfg.measure_slots),
        utilization=utilization,
        hop_offsets=np.cumsum([0] + [r.hop_count for r in routes], dtype=np.int64),
        mean_hop_success=np.array([
            total / count if count else math.nan
            for sums, counts in zip(success_sums, attempt_counts)
            for total, count in zip(sums, counts)
        ]),
        trace=trace_rows,
    )
    metrics.check_conservation()
    if saturated:
        metrics.hop_gamma, metrics.hop_nearest = saturated_hop_samples(
            dep, tess, schedule, routes, radio
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
    delivered, dropped, success_sums, attempt_counts, trace_rows, gamma_of,
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
            # Only real packets are received.  Every transmitter interferes,
            # in the slot's color order, the order in which
            # ``saturated_hop_samples`` sums its field: the same field then
            # gives the same SINR, bit for bit.
            real = [j for j, link in enumerate(links) if link[2] >= 0]
            gamma = gamma_of[links] = [math.nan] * len(links)
            if real:
                values = sinr(
                    [links[j][3] for j in real], nodes[[links[j][2] for j in real]],
                    nodes[[link[1] for link in links]], radio, own=real,
                )[0].tolist()
                for j, g in zip(real, values):
                    gamma[j] = g
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
        p = model.success(g)
        if counted:
            success_sums[k][hop] += p
            attempt_counts[k][hop] += 1
        if strongest is not None and strongest[rx] != j:
            success = False
            outcome = "collision"
        else:
            success = rng.random() < p
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


def saturated_hop_samples(
    dep: Deployment,
    tess: Tessellation,
    schedule: Schedule,
    routes: list[Route],
    radio: RadioParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-hop SINR and nearest-interferer distance under saturation, as two
    arrays flat over the routes' hops in the order given.

    With every occupied cell transmitting in each of its slots the
    transmitter set of a slot depends only on its color, so one measurement
    per hop covers every attempt that hop can experience.  The transmitter
    field of a color is each of its occupied cells' relay node; a hop's own
    cell is left out of it, since that cell transmits the hop's signal.  One
    ``sinr`` call per color measures all of that color's hops, the same
    kernel, on the same field, that the engine runs in its slots.
    """
    relay_of_cell = tess.relay_of_cell
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
    return gamma, nearest


@dataclass(frozen=True)
class ThroughputSummary:
    injection_ceiling: float  # 1 / (max occupancy * K)
    occupancy_rate_bound: float  # 4 / (pi * n * rho_n^2)


def throughput_summary(tess: Tessellation, schedule: Schedule) -> ThroughputSummary:
    """The cell-sharing feasibility ceilings of a run.

    A cell with ``Q`` resident nodes transmitting once per ``K`` slots cannot
    give any of them more than ``1/(Q*K)`` injections per slot, and for any
    certified tessellation the per-node rate is capped by
    ``4 / (pi * n * rho_n**2)``.
    """
    n = len(tess.cell_of_node)
    return ThroughputSummary(
        injection_ceiling=1.0 / (int(tess.occupancy().max()) * schedule.num_colors),
        occupancy_rate_bound=4.0 / (math.pi * n * tess.rho_n**2),
    )
