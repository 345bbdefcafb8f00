"""The engine's slot loop written plainly, for differential tests.

Each slot, every cell of the slot's color sends its queue head (under
saturated traffic an idle occupied cell's relay sends a dummy); one
``links.pair_gain`` and one ``links.sinr`` call over all of the slot's
transmitters give every SINR; each receiver decodes only its strongest
inbound link.  There is no plan memo, no link id and no jump over idle
stretches.  The two random streams are drawn one value at a time, in the
order in which ``engine.run`` consumes them: injections as geometric gaps
between the successes of one Bernoulli trial per slot and connection,
and one uniform per decoded attempt.
"""

import math
from collections import deque

import numpy as np

from adhocsim import links


def reference_run(dep, tess, schedule, table, model, radio, cfg) -> dict:
    """Counters, per-cell utilization, per-hop mean success and the trace
    of one run, under the names of ``engine.RunMetrics``."""
    K, hops, conns = schedule.num_colors, len(table.cell), len(table)
    warmup = cfg.warmup_slots if cfg.warmup_slots is not None else 10 * K
    total = warmup + cfg.measure_slots
    injection, reception = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))
    cell, tx, rx, next_cell = (col.tolist() for col in (table.cell, table.tx, table.rx,
                                                        table.next_cell))
    power = (radio.tx_power * links.path_gain(table.hop_length, radio.alpha)).tolist()
    conn_of_hop = np.repeat(np.arange(conns), table.hop_count).tolist()
    relay = tess.relay_of_cell.tolist()
    counts = {name: [0] * conns for name in ("injected", "delivered", "dropped")}
    sums, attempts, sends = [0.0] * hops, [0] * hops, [0] * tess.num_cells
    queues = [deque() for _ in range(tess.num_cells)]  # packets: [hop, tries, measured]
    trace = []
    position = -1

    def next_arrival():
        nonlocal position
        if cfg.injection_rate == 0.0 or conns == 0:
            return total, 0
        position += int(injection.geometric(cfg.injection_rate))
        return divmod(position, conns)

    arrival = next_arrival()
    for slot in range(total):
        measuring = slot >= warmup
        senders = [(c, queues[c][0] if queues[c] else None)
                   for c in schedule.cells_by_color[slot % K].tolist()
                   if queues[c] or (cfg.traffic == "saturated" and relay[c] >= 0)]
        nodes = [tx[pkt[0]] if pkt else relay[c] for c, pkt in senders]
        real = [j for j, (_, pkt) in enumerate(senders) if pkt]
        hop = [senders[j][1][0] for j in real]
        gain = links.pair_gain(dep.nodes[[rx[h] for h in hop]], dep.nodes[nodes], radio.alpha)[0]
        gamma = links.sinr([power[h] for h in hop], gain, radio, own=real).tolist()
        sinr_of = dict(zip(real, gamma))
        for j, (c, pkt) in enumerate(senders):
            if measuring:
                sends[c] += 1
            if pkt is None:
                if measuring and cfg.trace:
                    trace.append((slot, c, relay[c], -1, math.nan, "dummy"))
                continue
            h, g = pkt[0], sinr_of[j]
            p = model.success(g)
            if pkt[2]:
                sums[h] += p
                attempts[h] += 1
            # Of equally strong inbound links the earliest in color order wins.
            rivals = [(i, power[senders[i][1][0]]) for i in real
                      if i != j and rx[senders[i][1][0]] == rx[h]]
            decoded = all(q < power[h] if i < j else q <= power[h] for i, q in rivals)
            success = decoded and reception.random() < p
            if measuring and cfg.trace:
                outcome = ("ok" if success else "fail") if decoded else "collision"
                trace.append((slot, c, tx[h], rx[h], g, outcome))
            pkt[1] += 1
            if success or pkt[1] >= cfg.attempts_per_hop:
                queues[c].popleft()
                if success and next_cell[h] >= 0:
                    queues[next_cell[h]].append([h + 1, 0, pkt[2]])
                elif pkt[2]:
                    counts["delivered" if success else "dropped"][conn_of_hop[h]] += 1
        while arrival[0] == slot:
            k = arrival[1]
            queues[cell[table.offsets[k]]].append([int(table.offsets[k]), 0, measuring])
            counts["injected"][k] += measuring
            arrival = next_arrival()
    in_flight = [0] * conns
    for q in queues:
        for h, _, measured in q:
            in_flight[conn_of_hop[h]] += measured
    active = np.bincount(np.arange(warmup, total) % K, minlength=K)[schedule.color_of_cell]
    with np.errstate(invalid="ignore", divide="ignore"):
        utilization = np.where(active > 0, np.array(sends) / active, 0.0)
        mean = np.where(np.array(attempts) > 0, np.array(sums) / np.array(attempts), math.nan)
    return {**{k: np.array(v, dtype=np.int64) for k, v in counts.items()},
            "in_flight": np.array(in_flight, dtype=np.int64), "utilization": utilization,
            "mean_hop_success": mean, "trace": trace}
