#!/usr/bin/env python3
"""Fixed versus conservative scheduling: schedule length and hop SINR.

For each n the script builds both schedules over the same deployments,
measures per-hop SINR under saturation, and writes one CSV row per
(n, seed, regime) with K and SINR percentiles.

Usage: python scripts/run_schedule_comparison.py [--out FILE] [--seeds 5]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from adhocsim import experiment, links, routing, scheduling
from adhocsim.engine import saturated_hop_samples

NS = (500, 1000, 2000, 4000)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/schedule_comparison.csv")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--growth", default="log")
    parser.add_argument("--area-constant", type=float, default=1.2)
    args = parser.parse_args()

    radio = links.RadioParams()
    rows = ["# schema=schedule_comparison_v1",
            "n,seed,regime,K,sinr_p5,sinr_p50,sinr_p95"]
    for n in NS:
        for seed in range(args.seeds):
            dep, tess = experiment.prepare_instance(n, 31 * seed + n, args.area_constant)
            conns = routing.pick_connections(dep, 500 + seed)[:300]
            paths = routing.cell_paths(conns, dep, tess)
            routes = [routing.build_route(c, p, dep, tess) for c, p in zip(conns, paths)]
            for regime, sched in (
                ("fixed", scheduling.build_schedule(tess, 12.0)),
                ("conservative", scheduling.build_conservative_schedule(tess, n, args.growth)),
            ):
                gamma, _ = saturated_hop_samples(dep, tess, sched, routes, radio)
                p5, p50, p95 = np.percentile(gamma, [5, 50, 95])
                rows.append(
                    f"{n},{seed},{regime},{sched.num_colors},"
                    f"{float(p5)!r},{float(p50)!r},{float(p95)!r}"
                )
                print(f"n={n} seed={seed} {regime}: K={sched.num_colors} p5={p5:.4g}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(rows) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
