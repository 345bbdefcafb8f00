"""Median and quartile spread of each metric over a set of run records.

    python3 pipebench/spread.py setA/*.trace0.json [--against setB/*.trace0.json]

Groups the records that ``run.py`` writes by workload and prints, per
metric, the count of runs, the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, next to the metric's bound in BENCHMARK.json.
With ``--against``, it also prints by what share the second set's
median is worse than the first's (negative: better).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict:
    runs = defaultdict(lambda: defaultdict(list))
    for path in paths:
        rec = json.loads(Path(path).read_text())
        for name, m in rec["metrics"].items():
            runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"] + bench["per_layer"]}
    cut = argv.index("--against") if "--against" in argv else len(argv)
    runs, second = load(argv[:cut]), load(argv[cut + 1:])
    for (workload, trace), metrics in sorted(runs.items()):
        print(f"{workload} trace={trace}")
        for name, values in metrics.items():
            if len(values) < 2:
                print(f"  {name:34s} n=1 value={values[0]:.6g}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if trace == 0 else None
            line = (f"  {name:34s} n={len(values):2d} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                    f"spread={share:.3f}" + (f" bound={bound}" if bound is not None else ""))
            again = second[(workload, trace)].get(name)
            if again and med:
                worse = (statistics.median(again) - med) / med * (1 if lower[name] else -1)
                line += f" second_median={statistics.median(again):.6g} worse_by={worse:.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
