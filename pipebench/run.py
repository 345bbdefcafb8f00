"""Pipeline benchmark: run one workload for a fixed time and print its metrics.

    python3 pipebench/run.py --workload saturated_n4000 --seed 0 --seconds 56 --trace 0

A run is a closed loop with one client: each point is one
``experiment.run_sweep`` call in a fresh process (``point.py``), and the
next point starts when the previous one has finished.  The points cycle
through a fixed panel of sweep seeds made from ``--seed``, so two
commits measure the same instances however fast they run.  No point
starts that would end after ``--seconds``, except those of the first
cycle and one repeat.  The last line of standard output is the JSON
result; the full record goes to ``pipebench/out/``.  README.md explains
the workloads, the metrics and how to read a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from point import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SEED_STRIDE = 10_007  # panel seed j is  seed + j * SEED_STRIDE
# Sweep seeds in an untraced run's panel: as many as fit, with one repeat,
# in a run of BENCHMARK.json's run_seconds on the hardware in README.md.
PANEL = {"route_n4000": 8, "saturated_n4000": 6, "lossy_n500": 8}
DEADLINE_S = 170.0  # every run must end within 180 s


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "fresh_process_per_point": True,
    }


def baseline_digests(workload: str) -> dict:
    """CSV digests recorded by the committed baseline, by sweep seed."""
    found = {}
    for path in sorted((HERE / "baseline").glob(f"{workload}.*.json")):
        found |= json.loads(path.read_text())["csv_sha256_by_sweep_seed"]
    return found


def run_point(workload: str, seed: int, traced: bool, out: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "point.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"point process exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.splitlines()[-1])


def panel(workload: str, seed: int, traced: bool) -> list[int]:
    """The sweep seeds a run cycles through.  A traced run keeps to
    ``seed`` itself, so its per-layer figures describe one instance."""
    return [seed + j * SEED_STRIDE for j in range(1 if traced else PANEL[workload])]


def run_loop(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Cycle the panel.  A traced run visits each seed with an untraced
    point and then a traced one, so that adjacent points form a pair.  The
    loop runs at least one whole cycle and one repeat of a visit."""
    seeds = panel(workload, seed, traced)
    visit = 2 if traced else 1  # points per visit to a seed
    minimum = visit * (len(seeds) + 1)
    start = time.monotonic()
    points, walls = [], []
    while True:
        k = len(points)
        sweep_seed = seeds[(k // visit) % len(seeds)]
        t = time.monotonic()
        timeout = DEADLINE_S - (t - start)
        out = OUT / workload / f"p{k}"
        points.append(run_point(workload, sweep_seed, traced and k % 2 == 1, out, timeout))
        walls.append(time.monotonic() - t)
        if len(points) < minimum or len(points) % visit:
            continue
        if time.monotonic() + visit * max(walls) > start + min(seconds, DEADLINE_S):
            return points


def panel_mean(points: list[dict], key: str) -> float:
    """Geometric mean over sweep seeds of each seed's median of ``key``.

    Every seed of the panel weighs the same however often it ran.  The
    instances differ in scale (set-up varies up to fivefold with the
    packing passes), so the mean is geometric: a change that speeds every
    instance up by a share moves the value by that share.
    """
    by_seed = defaultdict(list)
    for p in points:
        by_seed[p["seed"]].append(p[key])
    return statistics.geometric_mean(statistics.median(v) for v in by_seed.values())


def summarize(points: list[dict], traced: bool) -> tuple[dict, dict, int]:
    """Metric values, CSV digest per sweep seed, and the count of failed points."""
    timed = [p for p in points if p["error"] is None]
    if not timed:
        raise SystemExit("no point finished: " + points[0]["error"])
    digests = {}
    failed = 0
    for p in points:
        ref = digests.setdefault(p["seed"], p["csv_sha256"])
        p["repeat_identical"] = p["csv_sha256"] == ref
        failed += not (p["ok"] and p["repeat_identical"])

    values = {key: panel_mean(timed, key) for key in ("point_s", "setup_s", "sim_s", "peak_rss_mb")}
    values["ok_frac"] = (len(points) - failed) / len(points)
    if traced:
        with_layers = [p for p in timed if p["traced"]]
        pairs = [(a, b) for a, b in zip(points[::2], points[1::2])
                 if a["error"] is None and b["error"] is None]
        if not pairs:
            raise SystemExit("a traced run needs an untraced and a traced point that finished")
        for key in with_layers[0]["layers"]:  # one sweep seed: a plain median
            values[key] = statistics.median(p["layers"][key] for p in with_layers)
        values["trace.overhead_s"] = statistics.median(
            b["point_s"] - a["point_s"] for a, b in pairs)
    return values, digests, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0; 1 is held out)")
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "adhocsim" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'adhocsim'} is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    traced = bool(args.trace)

    points = run_loop(args.workload, args.seed, seconds, traced)
    values, digests, failed = summarize(points, traced)
    declared = bench["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    known = baseline_digests(args.workload)
    same = {s: known[str(s)] == d for s, d in digests.items() if str(s) in known}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "env": environment() | points[0]["env"],
        "panel": panel(args.workload, args.seed, traced),
        "csv_sha256_by_sweep_seed": digests,
        "csv_matches_baseline": same,
        "metrics": metrics, "points": points,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for k, p in enumerate(points):
        timing = "" if p["error"] else (
            f"point_s={p['point_s']:.3f} setup_s={p['setup_s']:.3f} sim_s={p['sim_s']:.3f}")
        print(f"point {k} sweep_seed={p['seed']} traced={int(p['traced'])} ok={int(p['ok'])} "
              f"{timing} csv_sha256={p['csv_sha256'][:16]}")
    print(f"CSVs identical to the committed baseline for {sum(same.values())} of the "
          f"{len(same)} sweep seeds it recorded")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(points), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
