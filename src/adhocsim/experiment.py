"""Sweep orchestration: the config schema, the point pipeline, CSV output.

Every run is reproducible from (spec, seed): the pipeline derives all
sub-seeds from the point seed, and points run and write their rows in
sorted ``(n, seed)`` order, so repeated sweeps produce byte-identical
CSVs.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import contextlib
import csv
import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import geometry
from .engine import EngineConfig, RunMetrics, run, throughput_summary
from .errors import ConfigurationError
from .links import RadioParams, filter_model_params, make_link_model
from .routing import Route, build_route, detour_factor, pick_connections
from .scheduling import (
    DEFAULT_CONFLICT_MULTIPLIER,
    Schedule,
    build_conservative_schedule,
    build_schedule,
    growth_value,
)
from .tessellation import (
    Deployment,
    Tessellation,
    build_tessellation,
    deploy,
    rho_for_n,
)
from .verification import (
    VerificationReport,
    check_consecutive_short_hops,
    check_hop_count,
    check_interferer_proximity,
    check_short_hops,
    check_sinr_bounded_fraction,
    compute_bounds,
    delivery_prediction,
)

_SEED_STRIDE = 1_000_003  # sub-seed separation between pipeline stages
SCHEDULE_REGIMES = ("fixed", "conservative")


@dataclass(frozen=True)
class ExperimentSpec:
    n_values: tuple[int, ...] = (250, 500, 1000, 2000, 4000)
    seeds: tuple[int, ...] = tuple(range(10))
    area_constant: float = 1.2
    radio: RadioParams = RadioParams()
    link_model_name: str = "logistic"
    link_model_params: tuple[tuple[str, float], ...] = ()
    schedule_regime: str = "fixed"
    schedule_delta: float = DEFAULT_CONFLICT_MULTIPLIER
    schedule_growth: str = "log"
    routing_strategy: str = "straight_line"
    engine: EngineConfig = EngineConfig()
    out_dir: str = "runs"
    workers: int = 1
    track_connections: int | None = None  # limit injected sources; None = all

    def __post_init__(self):
        if any(n < 2 for n in self.n_values):
            raise ConfigurationError("every n must be at least 2")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigurationError("seeds must be nonnegative")
        if not self.area_constant > 0:
            raise ConfigurationError("area_constant must be positive")
        if self.workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if self.track_connections is not None and self.track_connections < 1:
            raise ConfigurationError("track_connections must be at least 1")
        if self.schedule_regime not in SCHEDULE_REGIMES:
            raise ConfigurationError(
                f"unknown schedule regime {self.schedule_regime!r}; "
                f"expected one of {SCHEDULE_REGIMES}"
            )
        growth_value(self.schedule_growth, 2)
        detour_factor(self.routing_strategy)

    def link_model(self):
        return make_link_model(self.link_model_name, **dict(self.link_model_params))


def prepare_instance(
    n: int, seed: int, area_constant: float, max_redeploys: int = 50
) -> tuple[Deployment, Tessellation]:
    """Deploy and tessellate, resampling the seed until no cell is empty (the
    large-n regime guarantees occupancy only with high probability, so
    desk-scale runs occasionally redraw)."""
    rho = rho_for_n(n, area_constant)
    for k in range(max_redeploys):
        dep = deploy(n, seed + k * _SEED_STRIDE)
        tess = build_tessellation(dep, rho, seed + k * _SEED_STRIDE + 1)
        if tess.occupancy().min() > 0:
            return dep, tess
    raise ConfigurationError(
        f"no fully occupied deployment in {max_redeploys} redraws at n={n}; "
        "raise area_constant"
    )


def make_schedule(spec: ExperimentSpec, tess: Tessellation, n: int) -> Schedule:
    if spec.schedule_regime == "fixed":
        return build_schedule(tess, delta=spec.schedule_delta)
    return build_conservative_schedule(tess, n, spec.schedule_growth)


@dataclass
class PointResult:
    n: int
    seed: int
    rho_n: float
    num_cells: int
    schedule_length: int
    metrics: RunMetrics
    routes: list[Route]
    report: VerificationReport
    min_occupancy: int
    hard_invariants_ok: bool
    error: str | None = None


def run_point(spec: ExperimentSpec, n: int, seed: int) -> PointResult:
    dep, tess = prepare_instance(n, seed, spec.area_constant)
    schedule = make_schedule(spec, tess, n)
    connections = pick_connections(dep, seed + 3 * _SEED_STRIDE)
    if spec.track_connections is not None:
        connections = connections[: spec.track_connections]
    routes = [
        build_route(
            c, dep, tess,
            strategy=spec.routing_strategy,
            seed=seed + 4 * _SEED_STRIDE + c.id,
        )
        for c in connections
    ]
    cfg = replace(spec.engine, seed=seed + 5 * _SEED_STRIDE)
    metrics = run(dep, tess, schedule, routes, spec.link_model(), spec.radio, cfg)

    report = VerificationReport()
    straight = spec.routing_strategy == "straight_line"
    bounds = compute_bounds(alpha=spec.radio.alpha, c1=schedule.num_colors - 1)
    for r in routes:
        if straight:
            report.records.append(check_hop_count(r, tess.rho_n))
            report.records.append(check_short_hops(r, tess.rho_n, bounds.t0))
        report.records.append(check_consecutive_short_hops(r, tess.rho_n))
    if metrics.saturated:
        report.extend(
            check_interferer_proximity(
                metrics, routes,
                m=bounds.m0 if straight else bounds.m0_arbitrary,
                schedule_length=schedule.num_colors,
                rho_n=tess.rho_n,
                use_path_length=not straight,
            )
        )
        report.extend(
            check_sinr_bounded_fraction(
                metrics, routes, bounds, tess.rho_n, arbitrary=not straight
            )
        )
    report.extend(delivery_prediction(metrics, routes, spec.link_model(), cfg.attempts_per_hop))

    hard_ids = {"hop_count", "consecutive_short_hops"}
    hard_ok = all(r.passed for r in report.records if r.check_id in hard_ids)
    return PointResult(
        n=n,
        seed=seed,
        rho_n=tess.rho_n,
        num_cells=tess.num_cells,
        schedule_length=schedule.num_colors,
        metrics=metrics,
        routes=routes,
        report=report,
        min_occupancy=int(tess.occupancy().min()),
        hard_invariants_ok=hard_ok,
    )


def _run_point_task(args) -> PointResult:
    """``run_point``, with any exception recorded as the point's error so
    that the rest of the grid still runs."""
    spec, n, seed = args
    try:
        return run_point(spec, n, seed)
    except Exception as exc:
        return PointResult(
            n=n, seed=seed, rho_n=float("nan"), num_cells=0, schedule_length=0,
            metrics=None, routes=[], report=VerificationReport(), min_occupancy=0,
            hard_invariants_ok=False, error=f"{type(exc).__name__}: {exc}",
        )


def run_sweep(spec: ExperimentSpec) -> bool:
    """Run the grid in sorted ``(n, seed)`` order, writing each point's rows
    as soon as it finishes; True iff every point ran and kept every hard
    invariant.  Points that raised are listed in ``errors.txt``."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _clear_outputs(out)
    points = sorted((n, seed) for n in spec.n_values for seed in spec.seeds)
    tasks = [(spec, n, seed) for n, seed in points]
    all_ok = True
    errors = []
    with contextlib.ExitStack() as stack:
        writer = stack.enter_context(CsvWriter(out))
        if spec.workers > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=spec.workers))
            results = pool.map(_run_point_task, tasks)
        else:
            results = map(_run_point_task, tasks)
        for res in results:
            if res.error is None:
                writer.write_point(res)
            else:
                errors.append(f"n={res.n} seed={res.seed}: {res.error}")
            all_ok = all_ok and res.hard_invariants_ok
    if errors:
        (out / "errors.txt").write_text("\n".join(errors) + "\n")
    return all_ok


def run_single(spec: ExperimentSpec, n: int, seed: int) -> PointResult:
    """Run one point and write what ``simulate`` and ``verify`` leave behind.

    The outputs are those of a one-point sweep, plus
    ``verification_detail.csv``, ``trace.csv`` when ``engine.trace`` is on,
    and ``config.resolved.ini`` for the one point.
    """
    spec = replace(spec, n_values=(n,), seeds=(seed,))
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _clear_outputs(out)
    write_resolved_config(spec, out / "config.resolved.ini")
    res = run_point(spec, n, seed)
    names = SWEEP_CSVS + ("verification_detail.csv",)
    if spec.engine.trace:
        names += ("trace.csv",)
    with CsvWriter(out, names) as writer:
        writer.write_point(res)
        writer.write("verification_detail.csv", detail_rows(res.report))
        if spec.engine.trace:
            writer.write("trace.csv", trace_rows(res.metrics))
    return res


# --- CSV output ---------------------------------------------------------------

CSV_LAYOUTS = {  # file name -> (schema stamp, header)
    "connections.csv": (
        "connections_v1",
        "n,seed,rho_n,K,conn_id,L,L_hat,H,lambda_i,injected,delivered,dropped,"
        "in_flight,delivery_prob",
    ),
    "summary.csv": (
        "summary_v1",
        "n,seed,rho_n,num_cells,K,lambda_n,Lambda_n,injected,delivered,dropped,"
        "in_flight,min_occupancy,mean_H,injection_ceiling,occupancy_rate_bound,hard_ok",
    ),
    "verification.csv": ("verification_v1", "n,seed,check_id,connection_id,lhs,rhs,passed"),
    "verification_detail.csv": (
        "verification_detail_v1", "check_id,connection_id,lhs,rhs,passed,detail"
    ),
    "trace.csv": ("trace_v1", "slot,cell,tx_node,rx_node,sinr,outcome"),
}
SWEEP_CSVS = ("connections.csv", "summary.csv", "verification.csv")
# Every file a run writes into its out dir except ``config.resolved.ini``,
# which ``adhocsim sweep`` writes before ``run_sweep`` starts.
OUTPUT_FILES = (*CSV_LAYOUTS, "errors.txt", "verification.txt", "routes.txt")


def _clear_outputs(out: Path) -> None:
    """Delete what an earlier run left in ``out``; other files stay."""
    for name in OUTPUT_FILES:
        (out / name).unlink(missing_ok=True)


class CsvWriter:
    """The one writer of every CSV layout in ``CSV_LAYOUTS``.

    Each named file opens with its schema stamp and header; rows are
    appended as they are produced, so a sweep holds one point at a time.
    """

    def __init__(self, out_dir, names=SWEEP_CSVS):
        self._files = contextlib.ExitStack()
        self._writers = {}
        for name in names:
            fh = self._files.enter_context(open(Path(out_dir) / name, "w", newline=""))
            schema, header = CSV_LAYOUTS[name]
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"# schema={schema}"])
            writer.writerow(header.split(","))
            self._writers[name] = writer

    def write(self, name: str, rows) -> None:
        self._writers[name].writerows(rows)

    def write_point(self, res: PointResult) -> None:
        """Append one finished point to the sweep layouts."""
        self.write("connections.csv", connection_rows(res))
        self.write("summary.csv", [summary_row(res)])
        self.write("verification.csv", verification_rows(res))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._files.close()


def connection_rows(res: PointResult) -> list[list]:
    rows = []
    m = res.metrics
    delivery = m.delivery_probability()
    by_conn = {r.connection_id: r for r in res.routes}
    for k, cid in enumerate(m.connection_ids):
        r = by_conn[int(cid)]
        dp = float(delivery[k])
        rows.append([
            res.n, res.seed, repr(res.rho_n), res.schedule_length, int(cid),
            repr(r.length), repr(r.path_length), r.hop_count,
            repr(float(m.injected[k]) / m.slots), int(m.injected[k]), int(m.delivered[k]),
            int(m.dropped[k]), int(m.in_flight[k]), "" if math.isnan(dp) else repr(dp),
        ])
    return rows


def summary_row(res: PointResult) -> list:
    m = res.metrics
    ts = throughput_summary(m)
    mean_h = float(np.mean([r.hop_count for r in res.routes])) if res.routes else 0.0
    return [
        res.n, res.seed, repr(res.rho_n), res.num_cells, res.schedule_length,
        repr(m.lambda_realized), repr(m.throughput), int(m.injected.sum()),
        int(m.delivered.sum()), int(m.dropped.sum()), int(m.in_flight.sum()),
        res.min_occupancy, repr(mean_h), repr(ts.injection_ceiling),
        repr(ts.occupancy_rate_bound), int(res.hard_invariants_ok),
    ]


def verification_rows(res: PointResult) -> list[list]:
    """The detail rows without ``detail``, keyed by ``(n, seed)``."""
    return [[res.n, res.seed, *row[:-1]] for row in detail_rows(res.report)]


def detail_rows(report: VerificationReport) -> list[list]:
    return [
        [r.check_id, "" if r.connection_id is None else r.connection_id,
         repr(r.lhs), repr(r.rhs), int(r.passed), r.detail]
        for r in report.records
    ]


def trace_rows(metrics: RunMetrics) -> list[list]:
    return [[slot, cell, tx, rx, repr(sinr), outcome]
            for slot, cell, tx, rx, sinr, outcome in metrics.trace]


@dataclass(frozen=True)
class AppendixReport:
    records: list
    passed: bool


def verify_appendix(seed: int = 0, pairs: int = 1_000_000, grid: int = 1000) -> AppendixReport:
    """Closed-form checks: pair-distance expectation, distance law, cap sandwich."""
    from .verification import CheckRecord

    rng = np.random.default_rng(seed)
    a = geometry.random_point(rng, pairs)
    b = geometry.random_point(rng, pairs)
    dist = geometry.surface_distance(a, b)
    records = []
    for delta in (0.1, 0.5, 0.9, math.exp(-2.0 * math.sqrt(math.pi))):
        vals = delta**dist
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(pairs))
        closed = geometry.expected_delta_pow_L(delta)
        records.append(
            CheckRecord(
                check_id="pair_distance_expectation",
                connection_id=None,
                lhs=mc,
                rhs=closed,
                passed=bool(abs(mc - closed) <= 3.0 * se),
                detail=f"delta={delta!r} se={se!r}",
            )
        )
    ks = kolmogorov_statistic(dist)
    records.append(
        CheckRecord(
            check_id="distance_law_ks",
            connection_id=None,
            lhs=ks,
            rhs=0.002,
            passed=bool(ks < 0.002),
            detail=f"pairs={pairs}",
        )
    )
    rhos = np.linspace(geometry.MAX_DISTANCE / 2.0 / grid, geometry.MAX_DISTANCE / 2.0, grid)
    areas = geometry.cap_area(rhos)
    ok_lower = bool(np.all(math.pi * rhos**2 / 2.0 <= areas))
    ok_upper = bool(np.all(areas <= math.pi * rhos**2))
    records.append(
        CheckRecord(
            check_id="cap_area_sandwich",
            connection_id=None,
            lhs=float(ok_lower and ok_upper),
            rhs=1.0,
            passed=ok_lower and ok_upper,
            detail=f"grid={grid}",
        )
    )
    return AppendixReport(records=records, passed=all(r.passed for r in records))


def kolmogorov_statistic(distances: np.ndarray) -> float:
    """KS distance between the empirical distance CDF and the closed form."""
    x = np.sort(distances)
    cdf = geometry.distance_cdf(x)
    n = len(x)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


# --- configuration file handling -------------------------------------------

@dataclass(frozen=True)
class ConfigKey:
    """One INI key: its section and name, the ``ExperimentSpec`` field it
    sets (a dotted path into ``radio`` or ``engine``), and how its value is
    read and written.  The key ``*`` stands for every other key of its
    section; in ``link_model`` those are the variant's parameters."""

    section: str
    key: str
    field: str
    parse: Callable[[str], object] = str
    format: Callable[[object], str] = str


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(s) for s in raw.split(",") if s.strip())


def _seeds(raw: str) -> tuple[int, ...]:
    """A count (``10`` means seeds 0..9) or a list (``3,9,27``; ``5,`` is one seed)."""
    return _ints(raw) if "," in raw else tuple(range(int(raw)))


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _join_seeds(seeds) -> str:
    # a trailing comma keeps a list of fewer than two seeds from reading as a count
    return _join(seeds) + ("," if len(seeds) < 2 else "")


def _optional_int(raw: str) -> int | None:
    return int(raw) if raw else None


def _optional(value) -> str:
    return "" if value is None else str(value)


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


CONFIG_KEYS = (
    ConfigKey("sweep", "n", "n_values", _ints, _join),
    ConfigKey("sweep", "seeds", "seeds", _seeds, _join_seeds),
    ConfigKey("sweep", "area_constant", "area_constant", float, repr),
    ConfigKey("sweep", "out", "out_dir"),
    ConfigKey("sweep", "workers", "workers", int),
    ConfigKey("sweep", "track_connections", "track_connections", _optional_int, _optional),
    ConfigKey("radio", "tx_power", "radio.tx_power", float, repr),
    ConfigKey("radio", "noise", "radio.noise", float, repr),
    ConfigKey("radio", "alpha", "radio.alpha", float, repr),
    ConfigKey("link_model", "name", "link_model_name"),
    ConfigKey("link_model", "*", "link_model_params", float, repr),
    ConfigKey("schedule", "regime", "schedule_regime"),
    ConfigKey("schedule", "delta", "schedule_delta", float, repr),
    ConfigKey("schedule", "growth", "schedule_growth"),
    ConfigKey("routing", "strategy", "routing_strategy"),
    ConfigKey("engine", "injection_rate", "engine.injection_rate", float, repr),
    ConfigKey("engine", "attempts_per_hop", "engine.attempts_per_hop", int),
    ConfigKey("engine", "measure_slots", "engine.measure_slots", int),
    ConfigKey("engine", "warmup_slots", "engine.warmup_slots", _optional_int, _optional),
    ConfigKey("engine", "traffic", "engine.traffic"),
    ConfigKey("engine", "trace", "engine.trace", _bool),
)
_KEYS = {(k.section, k.key): k for k in CONFIG_KEYS}
_SECTIONS = {k.section for k in CONFIG_KEYS}


def load_spec(path=None, overrides: list[str] | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from an INI file plus ``section.key=value``
    overrides; every key left out keeps the dataclass default."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if path is not None and not parser.read(path):
            raise ConfigurationError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigurationError(f"unreadable config file {path}: {exc}") from None
    for item in overrides or []:
        key, eq, value = item.partition("=")
        section, dot, option = (s.strip() for s in key.partition("."))
        if not eq or not dot:
            raise ConfigurationError(f"override must look like section.key=value: {item!r}")
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value.strip())

    fields = {"": {}, "radio": {}, "engine": {}}  # by the dataclass they set
    model_params = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for option, raw in parser.items(section):
            k = _KEYS.get((section, option)) or _KEYS.get((section, "*"))
            if k is None:
                raise ConfigurationError(f"unknown config key {section}.{option}")
            try:
                value = k.parse(raw)
            except (ValueError, KeyError):
                raise ConfigurationError(
                    f"malformed value for {section}.{option}: {raw!r}"
                ) from None
            if k.key == "*":
                model_params[option] = value
            else:
                owner, _, name = k.field.rpartition(".")
                fields[owner][name] = value

    base = ExperimentSpec()
    name = fields[""].get("link_model_name", base.link_model_name)
    fields[""]["link_model_params"] = tuple(
        sorted(filter_model_params(name, model_params).items())
    )
    return replace(
        base,
        radio=replace(base.radio, **fields["radio"]),
        engine=replace(base.engine, **fields["engine"]),
        **fields[""],
    )


def write_resolved_config(spec: ExperimentSpec, path) -> None:
    """Every run records the fully resolved configuration next to its outputs."""
    p = configparser.ConfigParser(interpolation=None)
    for k in CONFIG_KEYS:
        value = functools.reduce(getattr, k.field.split("."), spec)
        if not p.has_section(k.section):
            p.add_section(k.section)
        for key, v in value if k.key == "*" else [(k.key, value)]:
            p.set(k.section, key, k.format(v))
    with open(path, "w") as fh:
        p.write(fh)
