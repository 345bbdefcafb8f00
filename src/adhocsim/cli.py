"""Command-line interface.

Exit codes: 0 on success, 1 when a verified invariant or, for ``verify``,
a claim check failed, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiment, verification
from .errors import ConfigurationError, GeometryError, RoutingError
from .routing import write_routes
from .scheduling import save_schedule
from .tessellation import deploy, save_tessellation
from .verification import throughput_summary

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2


def _spec_from_args(args) -> experiment.ExperimentSpec:
    spec = experiment.load_spec(args.config, args.set)
    if args.out is not None:
        spec = replace(spec, out_dir=args.out)
    return spec


def cmd_deploy(args) -> int:
    dep = deploy(args.n, args.seed)
    out = Path(args.out or "deployment.txt")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write("# adhocsim deployment v1\n")
        fh.write(f"n {dep.n}\nseed {dep.seed}\n")
        for i, v in enumerate(dep.nodes):
            fh.write(f"p {i} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
    print(f"wrote {dep.n} nodes to {out}")
    return EXIT_OK


def cmd_tessellate(args) -> int:
    spec = _spec_from_args(args)
    _, tess = experiment.prepare_instance(args.n, args.seed, spec.area_constant)
    out = Path(args.out or "tessellation.txt")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_tessellation(tess, out)
    sched = experiment.make_schedule(spec, tess)
    save_schedule(sched, out.with_suffix(".schedule.txt"))
    print(
        f"n={args.n} rho_n={tess.rho_n:.6f} cells={tess.num_cells} K={sched.num_colors} "
        f"min_occupancy={tess.occupancy().min()} gap_ratio={tess.gap_ratio:.6f} "
        f"cover_ratio={tess.cover_ratio:.6f} -> {out}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    res = experiment.run_single(spec, args.n, args.seed)
    summary = throughput_summary(res.tess, res.schedule)
    print(
        f"n={args.n} seed={args.seed} rho_n={res.tess.rho_n:.6f} cells={res.tess.num_cells} "
        f"K={res.schedule.num_colors}"
    )
    print(
        f"lambda_n={res.metrics.lambda_realized:.6g} Lambda_n={res.metrics.throughput:.6g} "
        f"delivered={int(res.metrics.delivered.sum())}/{int(res.metrics.injected.sum())}"
    )
    print(f"injection ceiling 1/(Q*K)={summary.injection_ceiling:.6g}")
    return EXIT_OK if res.hard_invariants_ok else EXIT_INVARIANT


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    if args.workers is not None:
        spec = replace(spec, workers=args.workers)
    ok = experiment.run_sweep(spec)
    print(f"sweep outputs in {Path(spec.out_dir)} ({'ok' if ok else 'INVARIANT FAILURE'})")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_schedules(args) -> int:
    spec = _spec_from_args(args)
    for n, seed, regime, K, p5, _, _ in experiment.run_schedules(spec):
        print(f"n={n} seed={seed} {regime}: K={K} sinr_p5={float(p5):.4g}")
    print(f"wrote {Path(spec.out_dir) / 'schedule_comparison.csv'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    res = experiment.run_single(spec, args.n, args.seed)
    out = Path(spec.out_dir)
    res.report.write_text(out / "verification.txt")
    write_routes(res.routes, out / "routes.txt")
    K, bounds = res.schedule.num_colors, res.bounds
    print(f"n={args.n} rho_n={res.tess.rho_n:.5f} cells={res.tess.num_cells} K={K}")
    print(f"t0={bounds.t0:.6f} m0={bounds.m0:.0f} beta0={bounds.beta0:.4g} "
          f"beta1={bounds.beta1:.4g}")
    # one cell per slot is a schedule without spatial reuse, not a claim failure
    sizes = [len(cells) for cells in res.schedule.cells_by_color]
    print(f"cells per slot: min={min(sizes)} mean={sum(sizes) / len(sizes):.2f}")
    for check_id, (passes, total) in res.report.pass_counts().items():
        print(f"{check_id}: pass rate {passes / total:.3f}")
    gamma = res.metrics.hop_gamma
    if gamma is not None:
        print(f"realized per-hop SINR: min={gamma.min():.4g} median={np.median(gamma):.4g}")
    failed = verification.failed_claims(res.report)
    print("claims:", f"FAILED {' '.join(failed)}" if failed else "ok")
    return EXIT_INVARIANT if failed else EXIT_OK


def cmd_bounds(args) -> int:
    bounds = verification.compute_bounds(
        eps1=args.eps1, eps2=args.eps2, alpha=args.alpha, c1=args.c1,
        phi_of_beta0=args.phi_beta0,
    )
    report = None
    if args.rho_n is not None or args.n is not None:
        if args.phi_beta0 is None or args.rho_n is None:
            raise ConfigurationError("--rho-n and --n need --phi-beta0 and --rho-n")
        report = verification.throughput_ceilings(
            args.rho_n, int(args.c1) + 1, args.injection_rate, args.phi_beta0, n=args.n
        )
    print(f"t0={bounds.t0!r}")
    print(f"m0={bounds.m0!r} (straight-line), m0_arbitrary={bounds.m0_arbitrary!r}")
    print(f"beta0={bounds.beta0!r} beta1={bounds.beta1!r}")
    if bounds.c0 is not None:
        print(f"c0={bounds.c0!r}")
    if report is not None:
        print(f"lambda_bound={report.lambda_bound!r}")
        if report.occupancy_ceiling is not None:
            print(f"occupancy_ceiling={report.occupancy_ceiling!r}")
            print(f"conservative_ceiling={report.conservative_ceiling!r}")
            print(f"c0_over_n={report.c0_over_n!r}")
            print(f"conservative_sqrt_form={report.conservative_sqrt_form!r}")
    return EXIT_OK


def cmd_appendix(args) -> int:
    records = experiment.verify_appendix(seed=args.seed, pairs=args.pairs).records
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status} {rec.check_id}: lhs={rec.lhs!r} rhs={rec.rhs!r} {rec.detail}")
    return EXIT_OK if all(rec.passed for rec in records) else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adhocsim",
        description="Packet-level simulator of multi-hop ad hoc networks on the "
        "unit sphere, with claim-verification tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def point(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    def config(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override")

    p = sub.add_parser("deploy", help="write a uniform node deployment")
    point(p)
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("tessellate", help="build and export a certified tessellation")
    point(p)
    config(p)
    p.set_defaults(func=cmd_tessellate)

    p = sub.add_parser("simulate", help="run one simulation point")
    point(p)
    config(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the configured n/seed grid")
    config(p)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the claim checkers on one point")
    point(p)
    config(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schedules", help="fixed against conservative schedules on the grid")
    config(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schedules)

    p = sub.add_parser("bounds", help="closed-form bound calculator")
    p.add_argument("--eps1", type=float, default=verification.DEFAULT_EPS)
    p.add_argument("--eps2", type=float, default=verification.DEFAULT_EPS)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--c1", type=float, required=True, help="measured K - 1")
    p.add_argument("--phi-beta0", type=float, default=None)
    p.add_argument("--rho-n", type=float, default=None)
    p.add_argument("--injection-rate", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("appendix", help="closed-form Monte Carlo checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=1_000_000)
    p.set_defaults(func=cmd_appendix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RoutingError as exc:
        print(f"routing failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
