"""Run one benchmark point in this process and print its result as JSON.

A point is one ``experiment.run_sweep`` call with ``workers=1`` and a
single seed, the way ``adhocsim simulate`` runs it.  ``run.py`` starts a
fresh process per point; it is rarely useful to run this file by hand:

    python3 pipebench/point.py --workload lossy_n500 --seed 0 --out pipebench/out/p --trace 1
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CSV_NAMES = ("connections.csv", "summary.csv", "verification.csv")

# Each workload is a set of ``section.key=value`` overrides on the desk
# defaults; README.md says why each exists.
WORKLOADS = {
    "route_n4000": ["sweep.n=4000"],
    "saturated_n4000": [
        "sweep.n=4000",
        "engine.traffic=saturated",
        "engine.injection_rate=0.0",
        "engine.measure_slots=1000",
    ],
    "lossy_n500": [
        "sweep.n=500",
        "sweep.track_connections=200",
        "link_model.name=constant_p",
        "link_model.p=0.9",
        "engine.injection_rate=0.0015",
        "engine.measure_slots=150000",
    ],
}


def import_program():
    """Import the package from this checkout's ``src``, never an installed copy.

    ``scipy.spatial`` is imported here, before any timing: the tessellation
    imports it lazily, which costs ~0.4 s in the first build of a process,
    and where that import sits should not move ``setup_s``.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.spatial  # noqa: F401

    import adhocsim
    from adhocsim import engine, experiment, geometry

    if Path(adhocsim.__file__).resolve().parent != ROOT / "src" / "adhocsim":
        raise ImportError(f"adhocsim imported from {adhocsim.__file__}, not this checkout")
    return engine, experiment, geometry


def environment() -> dict:
    import numpy
    import scipy

    try:
        from scipy.spatial import SphericalVoronoi  # noqa: F401

        voronoi = True
    except ImportError:
        voronoi = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spherical_voronoi": voronoi,
        "scipy_spatial_imported_before_timing": True,
    }


def install_tracing(tracer, engine, experiment, geometry, stats: dict) -> None:
    """Wrap every layer boundary the per-layer metrics read."""

    def keep(key):
        return lambda result: stats.__setitem__(key, result)

    def add_hops(route):
        stats["hops"] = stats.get("hops", 0) + route.hop_count

    def count_points(points):
        if tracer.inside("experiment.build_tessellation"):
            tracer.counts["points_drawn"] += 1 if points.ndim == 1 else len(points)

    for attr in ("prepare_instance", "deploy", "pick_connections",
                 "delivery_prediction", "throughput_summary"):
        tracer.wrap(experiment, attr)
    tracer.wrap(experiment, "build_tessellation", keep("tess"))
    for attr in ("build_schedule", "build_conservative_schedule"):
        tracer.wrap(experiment, attr, keep("schedule"))
    tracer.wrap(experiment, "build_route", add_hops)
    tracer.wrap(experiment, "run", keep("metrics"))
    tracer.wrap_prefix(experiment, "check_")
    tracer.wrap(experiment, "run_point", keep("point"))
    for attr in ("saturated_hop_samples", "path_gain", "all_cell_relays"):
        tracer.wrap(engine, attr)
    for attr in ("surface_distance", "geodesic_arc"):
        tracer.wrap(geometry, attr)
    tracer.wrap(geometry, "random_point", count_points)


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten values above it (the largest
    value when there are ten or fewer)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(tr, stats: dict, point_s: float) -> dict:
    """Per-layer numbers of one traced point; README.md defines each."""
    import numpy as np

    m, sched, report = stats["metrics"], stats["schedule"], stats["point"].report
    route_ms = [1e3 * d for d in tr.durations("experiment.build_route")]
    run_s = tr.total("experiment.run")
    sat_s = tr.total("engine.saturated_hop_samples")
    slots = m.warmup_slots + m.slots
    # Transmissions in the measured window: utilization is transmissions per
    # active slot, and a cell is active in the slots congruent to its color.
    window = np.arange(m.warmup_slots, m.warmup_slots + m.slots) % sched.num_colors
    active = np.bincount(window, minlength=sched.num_colors)[sched.color_of_cell]
    delivered, dropped = int(m.delivered.sum()), int(m.dropped.sum())
    checks = [n for n in {s[2] for s in tr.spans} if n.startswith("experiment.check_")]
    return {
        "tessellation.build_s": tr.total("experiment.build_tessellation"),
        "tessellation.builds": len(tr.durations("experiment.build_tessellation")),
        "tessellation.points_drawn": tr.counts["points_drawn"],
        "tessellation.cells": stats["tess"].num_cells,
        "scheduling.build_s": tr.total("experiment.build_schedule")
        + tr.total("experiment.build_conservative_schedule"),
        "scheduling.K": sched.num_colors,
        "routing.route_s": sum(route_ms) / 1e3,
        "routing.route_ms_p50": statistics.median(route_ms),
        "routing.route_ms_tail": tail(route_ms),
        "routing.routes": len(route_ms),
        "routing.hops": stats["hops"],
        "geometry.surface_distance_calls": len(tr.durations("geometry.surface_distance")),
        "geometry.surface_distance_s": tr.total("geometry.surface_distance"),
        "geometry.geodesic_arc_s": tr.total("geometry.geodesic_arc"),
        "links.path_gain_calls": len(tr.durations("engine.path_gain")),
        "links.path_gain_s": tr.total("engine.path_gain"),
        "engine.self_s": tr.self_time("experiment.run"),
        "engine.sat_samples_s": sat_s,
        "engine.slots": slots,
        "engine.slot_us": 1e6 * (run_s - sat_s - tr.total("engine.all_cell_relays")) / slots,
        "engine.transmissions": int(round(float(np.sum(m.utilization * active)))),
        "engine.injected": int(m.injected.sum()),
        "engine.delivered": delivered,
        "engine.dropped": dropped,
        "engine.in_flight": int(m.in_flight.sum()),
        "engine.delivery_ratio": delivered / (delivered + dropped) if delivered + dropped else 0.0,
        "verification.checks_s": sum(tr.total(n) for n in checks)
        + tr.total("experiment.delivery_prediction"),
        "verification.records": len(report.records),
        "verification.failed": sum(not r.passed for r in report.records),
        "experiment.run_point_s": tr.total("experiment.run_point"),
        "experiment.write_s": point_s - tr.total("experiment.run_point"),
    }


def check_outputs(sweep_dir: Path, returned) -> dict:
    """The output checks; each value is True when the check passed."""
    checks = {
        "run_sweep_true": returned is True,
        "no_errors_txt": not (sweep_dir / "errors.txt").exists(),
        "csvs_written": all((sweep_dir / n).is_file() for n in CSV_NAMES),
    }
    conserved = False
    if checks["csvs_written"]:
        with open(sweep_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        conserved = bool(rows) and all(
            int(r["injected"]) == int(r["delivered"]) + int(r["dropped"]) + int(r["in_flight"])
            for r in rows
        )
    checks["summary_conserves_packets"] = conserved
    return checks


def digests(sweep_dir: Path) -> dict:
    files = {n: hashlib.sha256((sweep_dir / n).read_bytes()).hexdigest()
             for n in CSV_NAMES if (sweep_dir / n).is_file()}
    joined = "".join(f"{n}:{files.get(n, '-')}\n" for n in CSV_NAMES)
    return {"csv_sha256": hashlib.sha256(joined.encode()).hexdigest(), "files": files}


def run_point(workload: str, seed: int, out: Path, trace: bool) -> dict:
    engine, experiment, geometry = import_program()
    from tracer import Tracer

    spec = experiment.load_spec(None, WORKLOADS[workload] + ["sweep.workers=1"])
    shutil.rmtree(out, ignore_errors=True)
    sweep_dir = out / "sweep"
    spec = replace(spec, seeds=(seed,), out_dir=str(sweep_dir))

    tracer = Tracer(run_id=f"{workload}-{seed}-{'traced' if trace else 'plain'}")
    stats: dict = {}
    if trace:
        install_tracing(tracer, engine, experiment, geometry, stats)
    else:
        tracer.wrap(experiment, "run")  # the single setup/engine boundary
    result = {"workload": workload, "seed": seed, "traced": trace, "env": environment()}
    returned, error = None, None
    t0 = time.perf_counter()
    try:
        returned = experiment.run_sweep(spec)
    except Exception:
        error = traceback.format_exc()
    t1 = time.perf_counter()
    tracer.restore()

    engine_spans = [s for s in tracer.spans if s[2] == "experiment.run"]
    if error is None and not engine_spans:
        error = "the engine was never entered"
    result["error"] = error
    result["checks"] = check_outputs(sweep_dir, returned) if error is None else {}
    result["ok"] = error is None and all(result["checks"].values())
    result.update(digests(sweep_dir))
    if error is not None:
        return result
    engine_span = engine_spans[0]
    result.update(
        point_s=t1 - t0,
        setup_s=engine_span[3] - t0,
        sim_s=engine_span[4] - engine_span[3],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if trace:
        result["layers"] = layer_metrics(tracer, stats, t1 - t0)
        tracer.write(out / "spans.csv")
        result["spans"] = len(tracer.spans)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run_point(args.workload, args.seed, args.out, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
