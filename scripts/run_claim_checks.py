#!/usr/bin/env python3
"""One-shot claim verification on a single network instance.

Runs the closed-form checks, then one saturated point of the standard
pipeline (the one ``adhocsim verify`` runs) at the requested size, and
prints the bound set derived from the measured schedule length.  Exit
code 1 if anything fails.

Usage: python scripts/run_claim_checks.py [--n 2000] [--seed 0] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

from adhocsim import experiment, verification


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--area-constant", type=float, default=1.2)
    parser.add_argument("--out", default="runs/claims")
    args = parser.parse_args()

    failures = 0

    appendix = experiment.verify_appendix(seed=args.seed)
    for rec in appendix.records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status} {rec.check_id}: {rec.lhs!r} vs {rec.rhs!r}")
        failures += not rec.passed

    spec = experiment.load_spec(None, [
        f"sweep.area_constant={args.area_constant!r}",
        f"sweep.out={args.out}",
        "engine.traffic=saturated",
        "engine.injection_rate=0.0",
    ])
    res = experiment.run_single(spec, args.n, args.seed)
    K = res.schedule.num_colors
    print(f"n={args.n} rho_n={res.tess.rho_n:.5f} cells={res.tess.num_cells} K={K}")

    bounds = verification.compute_bounds(alpha=spec.radio.alpha, c1=K - 1)
    print(f"t0={bounds.t0:.6f} m0={bounds.m0:.0f} beta0={bounds.beta0:.4g} beta1={bounds.beta1:.4g}")

    report = res.report
    for check_id in sorted({r.check_id for r in report.records}):
        rate = report.pass_rate(check_id)
        print(f"{check_id}: pass rate {rate:.4f}")
        if check_id == "sinr_bounded_fraction":
            failures += rate < 0.95
        else:
            failures += rate < 1.0

    out = Path(args.out)
    report.write_text(out / "verification.txt")
    print(f"report written to {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
