"""Slot-synchronous packet engine.

Each slot, every scheduled cell with a nonempty queue transmits its head
packet; the set of concurrent transmitters defines the interference seen
by every receiver, receptions succeed independently with the link
model's probability at the measured SINR, and a hop whose attempt budget
is exhausted drops its packet.  Runs are fully deterministic given the
configuration seed.

A packet is an int: twice its hop's index, plus 1 if it was injected in
the measured window; a hop forward adds 2.  Only a queue's head is
attempted, so each cell counts its head's failed attempts.  A slot's
SINRs, success probabilities and decoded receptions depend only on its
set of links (a hop's link is its ``RouteTable.link``; a dummy is one
more), so they are worked out once per distinct set into a plan
(at most ``_PLAN_CAP`` are kept): per transmitter in color order, what
the loop reads, ``((cell, next cell, tx, rx), p, decoded, SINR)``, one
shared tuple for a dummy.  The first plan of a color with a link builds
its gain rows, ``links.pair_gain`` to each receiver of its links from
each of their transmitters; a plan gathers its receivers' rows over its
transmitters and sums them with ``links.sinr``.

``run`` reads the routes as the ``routing.RouteTable`` that set-up built.

The seed spawns two independent streams, one for injections and one for
receptions, so how often packets are received cannot move an injection.
Injections are Bernoulli trials, one per slot and connection; the engine
draws only the gaps between their successes.  Each decoded attempt takes
the next reception uniform.  Both streams draw in fixed-size blocks, so
a slot with no injection and no decoded attempt draws nothing.  While no
packet exists the run goes straight to the next injection, counting the
slots in between (and tracing their dummies) in closed form.

Saturated traffic keeps every occupied cell transmitting in each of its
slots: an idle cell's relay sends a dummy, which interferes and is
received by no one.  The set of transmitting cells then repeats with the
schedule.  The per-hop SINR and nearest-interferer measurements used by
the claim checkers are made once per link, and take each of those cells'
relay as its transmitter, but a first-hop packet is sent by its source
node: an attempt gets its hop's measured SINR, bit for bit, if and only
if every other transmitter of its slot is its cell's relay.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigurationError
from .links import LinkModel, RadioParams, pair_gain, path_gain, sinr
from .routing import RouteTable
from .scheduling import Schedule
from .tessellation import Deployment, Tessellation
from .tessellation import all_cell_relays  # noqa: F401  (pipebench's tracer wraps this name)

TRAFFIC_MODES = ("bernoulli", "saturated")
_BLOCK = 4096  # draws per numpy call; a stream holds one block at a time
_PLAN_CAP = 1 << 16  # plans kept at once (ACCEPT-11(b) at n = 4000 uses 41,507)


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
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")


@dataclass
class RunMetrics:
    """Per-connection counts and per-hop arrays in the layout of the run's
    ``routes`` table, in ascending connection id: connection ``k`` is
    ``routes.connection_ids[k]`` and its hops are
    ``routes.offsets[k]:routes.offsets[k + 1]``."""

    slots: int
    warmup_slots: int
    routes: RouteTable = field(repr=False)
    injected: np.ndarray
    delivered: np.ndarray
    dropped: np.ndarray
    in_flight: np.ndarray
    lambda_realized: float  # injected packets per node per slot
    throughput: float  # delivered packets per node per slot
    utilization: np.ndarray  # transmissions / active slots, per cell
    mean_hop_success: np.ndarray = field(repr=False)  # NaN: no counted attempt
    # Saturated runs only (None otherwise): each hop's stationary SINR and
    # nearest-interferer surface distance (inf: no interferer).
    hop_gamma: np.ndarray | None = field(default=None, repr=False)
    hop_nearest: np.ndarray | None = field(default=None, repr=False)
    trace: list[tuple] = field(default_factory=list, repr=False)

    @property
    def saturated(self) -> bool:
        return self.hop_gamma is not None

    def delivery_probability(self) -> np.ndarray:
        """Delivered fraction of resolved in-window packets (in flight censored)."""
        resolved = self.delivered + self.dropped
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(resolved > 0, self.delivered / resolved, np.nan)


def run(
    dep: Deployment,
    tess: Tessellation,
    schedule: Schedule,
    table: RouteTable,
    model: LinkModel,
    radio: RadioParams,
    cfg: EngineConfig,
) -> RunMetrics:
    """Execute one simulation over the routes of ``table`` and aggregate
    per-connection delivery."""
    saturated = cfg.traffic == "saturated"
    K = schedule.num_colors
    warmup = cfg.warmup_slots if cfg.warmup_slots is not None else 10 * K
    total_slots = warmup + cfg.measure_slots
    streams = np.random.SeedSequence(cfg.seed).spawn(2)
    injection, reception = map(np.random.default_rng, streams)

    # Per link, its plan entry with nothing measured (module docstring): every
    # link of the route table, in the order of its first hop, then under
    # saturation each occupied cell's dummy link.  Without injections no
    # packet needs a hop's link, so none is built, nor a gain table.
    hops = len(table.cell)
    entries, link_of_hop, power, hop_conn = [], [], [], []
    if cfg.injection_rate > 0:
        entries, link_of_hop, power, hop_conn = _hop_links(table, radio)
    # Per hop, the success probability summed over counted attempts, and
    # their count.
    success_sums, attempt_counts = [0.0] * hops, [0] * hops
    first_hop = table.offsets[:-1].tolist()
    dummy_of_cell = [-1] * tess.num_cells
    if saturated:
        for c, relay in enumerate(tess.relay_of_cell.tolist()):
            if relay >= 0:
                dummy_of_cell[c] = len(entries)
                entries.append(((c, -1, relay, -1), math.nan, False, math.nan))
    gains = [None] * K  # per color, built at its first plan with a link
    if cfg.injection_rate > 0:
        link_color = schedule.color_of_cell[[link[0] for link, *_ in entries]]

    # One FIFO per cell, shared by every connection relaying through it.
    queues = [deque() for _ in range(tess.num_cells)]
    tries = [0] * tess.num_cells  # per cell, its queue head's failed attempts
    injected, delivered, dropped = [0] * len(table), [0] * len(table), [0] * len(table)
    transmit_slots = [0] * tess.num_cells
    trace_rows: list[tuple] = []
    plans: dict[tuple, tuple] = {}  # link set -> its plan, at most _PLAN_CAP of them
    cells_by_color = [row.tolist() for row in schedule.cells_by_color]
    arrivals = _arrivals(injection, cfg.injection_rate, len(table))
    next_slot, conn = next(arrivals, (total_slots, 0))
    draws = _uniforms(reception)
    # Per color, the dummies its cells send while nothing is queued, and per
    # cell its queue and dummy (-1: none).
    dummies = [[entries[dummy_of_cell[c]] for c in cells if dummy_of_cell[c] >= 0]
               for cells in cells_by_color]
    lanes = [[(queues[c], dummy_of_cell[c]) for c in cells] for cells in cells_by_color]
    tracing = cfg.trace
    queued = 0  # packets in the network
    slot = 0
    while slot < total_slots:
        if not queued and slot < next_slot:  # nothing to send before the next injection
            stop = min(next_slot, total_slots)
            _idle(max(slot, warmup), stop, dummies, transmit_slots,
                  trace_rows if tracing else None)
            slot = stop
            continue
        measuring = slot >= warmup
        trace = tracing and measuring
        ids = []  # per transmitter its link: its queue head's, else its dummy
        for q, dummy in lanes[slot % K]:
            if q:
                ids.append(link_of_hop[q[0] >> 1])
            elif dummy >= 0:
                ids.append(dummy)
        plan = plans.get(key := tuple(ids))
        if plan is None:
            if len(plans) >= _PLAN_CAP:
                plans.clear()
            k = slot % K
            if ids and gains[k] is None:
                gains[k] = _gains(np.flatnonzero(link_color == k).tolist(), entries, dep.nodes,
                                  radio.alpha)
            plan = plans[key] = _plan(ids, entries, power, gains[k], model, radio)
        for (cell, next_cell, tx, rx), p, decoded, g in plan:
            if measuring:
                transmit_slots[cell] += 1
            if rx < 0:
                if trace:
                    trace_rows.append((slot, cell, tx, rx, g, "dummy"))
                continue
            q = queues[cell]
            pkt = q[0]
            # A packet injected in the measured window is counted: every slot
            # after its injection is in the window too.
            if pkt & 1:
                success_sums[pkt >> 1] += p
                attempt_counts[pkt >> 1] += 1
            success = decoded and next(draws) < p
            if trace:
                outcome = ("ok" if success else "fail") if decoded else "collision"
                trace_rows.append((slot, cell, tx, rx, g, outcome))
            if not success and tries[cell] + 1 < cfg.attempts_per_hop:
                tries[cell] += 1
                continue
            q.popleft()  # delivered, forwarded or dropped
            tries[cell] = 0
            if success and next_cell >= 0:
                queues[next_cell].append(pkt + 2)
                continue
            queued -= 1
            if pkt & 1:
                (delivered if success else dropped)[hop_conn[pkt >> 1]] += 1
        # Inject after transmissions so a fresh packet waits at least one slot.
        while next_slot == slot:
            h = first_hop[conn]
            queues[entries[link_of_hop[h]][0][0]].append(h << 1 | measuring)  # at its cell
            queued += 1
            if measuring:
                injected[conn] += 1
            next_slot, conn = next(arrivals)
        slot += 1

    in_flight = np.bincount(
        [hop_conn[pkt >> 1] for q in queues for pkt in q if pkt & 1], minlength=len(table)
    ).astype(np.int64)
    # A cell is active in the slots congruent to its color.
    window = np.arange(warmup, total_slots) % K
    active_slots = np.bincount(window, minlength=K)[schedule.color_of_cell]
    with np.errstate(invalid="ignore", divide="ignore"):
        utilization = np.where(active_slots > 0, np.array(transmit_slots) / active_slots, 0.0)
    injected, delivered, dropped = (
        np.array(counts, dtype=np.int64) for counts in (injected, delivered, dropped)
    )
    if np.any(injected != delivered + dropped + in_flight):
        raise AssertionError("packet conservation violated")
    metrics = RunMetrics(
        slots=cfg.measure_slots,
        warmup_slots=warmup,
        routes=table,
        injected=injected,
        delivered=delivered,
        dropped=dropped,
        in_flight=in_flight,
        lambda_realized=float(injected.sum()) / (dep.n * cfg.measure_slots),
        throughput=float(delivered.sum()) / (dep.n * cfg.measure_slots),
        utilization=utilization,
        mean_hop_success=_mean(success_sums, attempt_counts),
        trace=trace_rows,
    )
    if saturated:
        metrics.hop_gamma, metrics.hop_nearest = saturated_hop_samples(
            dep, tess, schedule, table, radio
        )
    return metrics


def _mean(sums: list[float], counts: list[int]) -> np.ndarray:
    """``sums / counts`` elementwise; NaN where the count is 0."""
    sums, counts = np.fromiter(sums, float, len(sums)), np.fromiter(counts, int, len(counts))
    return np.divide(sums, counts, out=np.full(len(sums), math.nan), where=counts > 0)


def _idle(start: int, stop: int, dummies: list[list[tuple]], transmit_slots: list[int],
          trace_rows) -> None:
    """The measured slots ``start`` to ``stop - 1`` when no packet exists:
    each dummy link of ``dummies[slot % K]`` is sent once in each of them,
    which draws nothing.  The sends are counted in closed form, per color;
    when tracing (``trace_rows`` not None) each gets the row that the slot
    loop would write, in the same order."""
    K = len(dummies)
    for s in range(start, min(stop, start + K)):
        sends = len(range(s, stop, K))
        for (cell, *_), *_ in dummies[s % K]:
            transmit_slots[cell] += sends
    if trace_rows is not None:
        for s in range(start, stop):
            trace_rows.extend((s, cell, tx, rx, g, "dummy")
                              for (cell, _, tx, rx), _, _, g in dummies[s % K])


def _arrivals(rng, rate: float, connections: int):
    """The injections, as ``(slot, connection)`` pairs in order, without end.

    Each slot and connection is one Bernoulli(``rate``) trial at position
    ``slot * connections + k``; the gaps between successive successes are
    geometric, so only the successes are drawn.  Within a slot connections
    come in ascending order.  At rate 0 (or with no connection) the stream
    is empty and draws nothing.
    """
    if rate == 0.0 or connections == 0:
        return
    position = -1
    while True:
        for gap in rng.geometric(rate, _BLOCK).tolist():
            position += gap
            yield divmod(position, connections)


def _uniforms(rng):
    """Uniforms on [0, 1), one at a time, drawn ``_BLOCK`` at once."""
    return chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None))


def _link_heads(table: RouteTable, radio: RadioParams) -> tuple[np.ndarray, np.ndarray]:
    """Each link's first hop (``table.link``), ascending, and its received
    power (from the atan2 hop lengths)."""
    heads = np.flatnonzero(table.link == np.arange(len(table.link)))
    return heads, radio.tx_power * path_gain(table.hop_length[heads], radio.alpha)


def _hop_links(table: RouteTable, radio: RadioParams) -> tuple[list, ...]:
    """Per link of ``table`` (``_link_heads``): its plan entry and received
    power; per hop: its link's index (hops of one link share plans) and its
    connection."""
    heads, power = _link_heads(table, radio)
    entries = [(link, math.nan, False, math.nan) for link in zip(
        *(column[heads].tolist() for column in (table.cell, table.next_cell, table.tx, table.rx)))]
    return (entries, np.searchsorted(heads, table.link).tolist(), power.tolist(),
            np.repeat(np.arange(len(table)), table.hop_count).tolist())


def _gains(links: list[int], entries: list[tuple], nodes: np.ndarray, alpha: float) -> tuple:
    """One color's gain rows: to each receiver of its ``links`` (rows) from each
    of their transmitters (columns); and per link its row and column."""
    cols, col = np.unique([entries[i][0][2] for i in links], return_inverse=True)
    rows, row = np.unique([entries[i][0][3] for i in links], return_inverse=True)  # dummies: -1
    gain = pair_gain(nodes[rows], nodes[cols], alpha)[0]
    return gain, dict(zip(links, zip(row.tolist(), col.tolist())))


def _plan(ids, entries, power, gains, model, radio) -> tuple:
    """The plan of a slot that sends over the links ``ids`` (module
    docstring).  A real link's SINR is ``links.sinr`` of its receiver's row
    of ``gains`` over the slot's transmitters.  A node decodes at most one
    packet per slot: only its strongest inbound signal is attempted, the
    rest collide (but still interfere network-wide)."""
    plan = [entries[i] for i in ids]
    real = [j for j, entry in enumerate(plan) if entry[0][3] >= 0]
    if not real:
        return tuple(plan)
    gain, where = gains
    row_gain = gain[[where[ids[j]][0] for j in real]].take([where[i][1] for i in ids], axis=1)
    gamma = sinr([power[ids[j]] for j in real], row_gain, radio, real)
    strongest = {}
    for j in real:
        best = strongest.get(plan[j][0][3])
        if best is None or power[ids[j]] > power[ids[best]]:
            strongest[plan[j][0][3]] = j
    for j, g in zip(real, gamma.tolist()):
        link = plan[j][0]
        plan[j] = (link, model.success(g), strongest[link[3]] == j, g)
    return tuple(plan)


def saturated_hop_samples(
    dep: Deployment,
    tess: Tessellation,
    schedule: Schedule,
    table: RouteTable,
    radio: RadioParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-hop SINR and nearest-interferer distance under saturation, as two
    arrays flat over the hops of ``table``.

    With every occupied cell transmitting in each of its slots the
    transmitting cells of a slot depend only on its color.  The transmitter
    field of a color is each of its occupied cells' relay node (the module
    docstring says when an engine attempt sees exactly that field); a hop's
    own cell is left out of it, since that cell transmits the hop's signal.
    One ``pair_gain`` call per color measures each of its links once, at its
    first hop; ``sinr`` sums the gains, and the distances give the nearest interferer.
    """
    relay_of_cell = tess.relay_of_cell
    cells, rx, link = table.cell, table.rx, table.link
    heads, power = _link_heads(table, radio)
    colors = schedule.color_of_cell[cells[heads]]
    gamma, nearest = np.empty(len(link)), np.empty(len(link))
    position = np.empty(tess.num_cells, dtype=np.int64)  # cell -> index in its field
    for k, field in enumerate(schedule.cells_by_color):
        mine = colors == k
        hops = heads[mine]
        field = field[relay_of_cell[field] >= 0]
        position[field] = np.arange(len(field))
        gain, dist = pair_gain(dep.nodes[rx[hops]], dep.nodes[relay_of_cell[field]], radio.alpha)
        own = position[cells[hops]]
        gamma[hops] = sinr(power[mine], gain, radio, own)
        dist[np.arange(len(hops)), own] = np.inf
        nearest[hops] = dist.min(axis=-1, initial=np.inf)
    return gamma[link], nearest[link]

