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
import gc
import math
from dataclasses import dataclass, field, replace
from itertools import product, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from . import geometry
from .engine import EngineConfig, RunMetrics, run, saturated_hop_samples
from .errors import ConfigurationError
from .links import RadioParams, filter_model_params, make_link_model
from .routing import (Route, RouteTable, build_route, cell_paths, detour_factor,
                      pick_connections, route_table)
from .scheduling import (
    DEFAULT_CONFLICT_MULTIPLIER,
    Schedule,
    build_conservative_schedule,
    build_schedule,
    check_conflict_multiplier,
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
    BoundSet,
    CheckTable,
    VerificationReport,
    check_consecutive_short_hops,
    check_hop_count,
    check_interferer_proximity,
    check_short_hops,
    check_sinr_bounded_fraction,
    compute_bounds,
    delivery_prediction,
    hard_invariants_hold,
    throughput_summary,
)

_SEED_STRIDE = 1_000_003  # sub-seed separation between pipeline stages
MAX_REDEPLOYS = 50  # deployments tried per point before giving up
_CAP_GRID = 1000  # cap radii the appendix's cap-area sandwich evaluates
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
        if not self.n_values or not self.seeds:
            raise ConfigurationError("the sweep grid needs at least one n and one seed")
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
        check_conflict_multiplier(self.schedule_delta)
        growth_value(self.schedule_growth, 2)
        detour_factor(self.routing_strategy)
        self.link_model()

    def link_model(self):
        return make_link_model(self.link_model_name, **dict(self.link_model_params))


def prepare_instance(n: int, seed: int, area_constant: float) -> tuple[Deployment, Tessellation]:
    """Deploy and tessellate, resampling the seed until no cell is empty (the
    large-n regime guarantees occupancy only with high probability, so
    desk-scale runs occasionally redraw)."""
    rho = rho_for_n(n, area_constant)
    for k in range(MAX_REDEPLOYS):
        dep = deploy(n, seed + k * _SEED_STRIDE)
        tess = build_tessellation(dep, rho, seed + k * _SEED_STRIDE + 1)
        if tess.occupancy().min() > 0:
            return dep, tess
    raise ConfigurationError(
        f"no fully occupied deployment in {MAX_REDEPLOYS} redraws at n={n}; "
        "raise area_constant"
    )


def make_schedule(spec: ExperimentSpec, tess: Tessellation) -> Schedule:
    if spec.schedule_regime == "fixed":
        return build_schedule(tess, delta=spec.schedule_delta)
    return build_conservative_schedule(tess, spec.schedule_growth)


@dataclass
class PointResult:
    n: int
    seed: int
    tess: Tessellation
    schedule: Schedule
    metrics: RunMetrics
    routes: list[Route]
    bounds: BoundSet  # the checkers' constants, c1 = K - 1
    report: VerificationReport
    error: str | None = None
    hard_invariants_ok: bool = field(init=False)  # ran, and kept every hard invariant

    def __post_init__(self):
        self.hard_invariants_ok = self.error is None and hard_invariants_hold(self.report)


def point_routes(
    spec: ExperimentSpec, n: int, seed: int
) -> tuple[Deployment, Tessellation, list[list[int]], RouteTable]:
    """The instance of point ``(n, seed)``, the cell paths of its connections
    (the first ``track_connections`` of them, if set) and their route table,
    whose row ``k`` is path ``k``'s route."""
    dep, tess = prepare_instance(n, seed, spec.area_constant)
    connections = tuple(column[: spec.track_connections]
                        for column in pick_connections(dep, seed + 3 * _SEED_STRIDE))
    paths = cell_paths(connections, dep, tess, spec.routing_strategy, seed + 4 * _SEED_STRIDE)
    return dep, tess, paths, route_table(connections, paths, dep, tess)


def run_point(spec: ExperimentSpec, n: int, seed: int) -> PointResult:
    dep, tess, paths, table = point_routes(spec, n, seed)
    columns = table.as_lists()
    routes = [build_route(k, cells, columns) for k, cells in enumerate(paths)]
    schedule = make_schedule(spec, tess)
    cfg = replace(spec.engine, seed=seed + 5 * _SEED_STRIDE)
    model = spec.link_model()
    metrics = run(dep, tess, schedule, table, model, spec.radio, cfg)

    report = VerificationReport()
    arbitrary, rho = spec.routing_strategy != "straight_line", tess.rho_n
    bounds = compute_bounds(alpha=spec.radio.alpha, c1=schedule.num_colors - 1)
    if arbitrary:
        report.add(check_consecutive_short_hops(table, rho))
    else:  # written route by route: hop_count, short_hops, consecutive_short_hops
        report.add(check_hop_count(table, rho), check_short_hops(table, rho, bounds.t0),
                   check_consecutive_short_hops(table, rho))
    if metrics.saturated:
        report.add(check_interferer_proximity(metrics, bounds, rho, arbitrary))
        report.add(check_sinr_bounded_fraction(metrics, bounds, rho, arbitrary))
    report.add(delivery_prediction(metrics, model, cfg.attempts_per_hop))
    return PointResult(n=n, seed=seed, tess=tess, schedule=schedule, metrics=metrics,
                       routes=routes, bounds=bounds, report=report)


def _run_point_task(args) -> PointResult:
    """``run_point``, with any exception recorded as the point's error so
    that the rest of the grid still runs."""
    spec, n, seed = args
    try:
        return run_point(spec, n, seed)
    except Exception as exc:
        return PointResult(
            n=n, seed=seed, tess=None, schedule=None, metrics=None, routes=[], bounds=None,
            report=VerificationReport(), error=f"{type(exc).__name__}: {exc}",
        )


@contextlib.contextmanager
def _frozen_heap():
    """Freeze the objects alive on entry until exit, so that the run's (and its
    forked workers') collections skip them; a heap the caller froze stays frozen."""
    with contextlib.ExitStack() as stack:
        if not gc.get_freeze_count():
            gc.freeze()
            stack.callback(gc.unfreeze)
        yield


@_frozen_heap()
def run_sweep(spec: ExperimentSpec) -> bool:
    """Run the grid in sorted ``(n, seed)`` order, writing each point's rows
    as soon as it finishes; True iff every point ran and kept every hard
    invariant.  Points that raised are listed in ``errors.txt``; the
    resolved configuration is in ``config.resolved.ini``."""
    out = _open_out_dir(spec)
    tasks = [(spec, n, seed) for n, seed in sorted(product(spec.n_values, spec.seeds))]
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


@_frozen_heap()
def run_single(spec: ExperimentSpec, n: int, seed: int) -> PointResult:
    """Run one point and write what ``simulate`` and ``verify`` leave behind.

    The outputs are those of a one-point sweep, plus
    ``verification_detail.csv``, ``trace.csv`` when ``engine.trace`` is on,
    and ``config.resolved.ini`` for the one point.
    """
    spec = replace(spec, n_values=(n,), seeds=(seed,))
    out = _open_out_dir(spec)
    res = run_point(spec, n, seed)
    names = SWEEP_CSVS + ("verification_detail.csv",)
    if spec.engine.trace:
        names += ("trace.csv",)
    with CsvWriter(out, names) as writer:
        writer.write_point(res)
        writer.write_fields("verification_detail.csv", verification_rows(res.report, detail=True))
        if spec.engine.trace:
            writer.write("trace.csv", trace_rows(res.metrics))
    return res


@_frozen_heap()
def run_schedules(spec: ExperimentSpec) -> list[list]:
    """Fixed against conservative spatial reuse over the sweep grid.

    Each ``(n, seed)`` point's instance and routes get one schedule per
    regime in ``SCHEDULE_REGIMES``; its row holds the schedule length and
    the 5th, 50th and 95th percentiles of the saturated per-hop SINR.  The
    rows go to ``schedule_comparison.csv`` and are returned.
    """
    out = _open_out_dir(spec)
    rows = []
    with CsvWriter(out, ("schedule_comparison.csv",)) as writer:
        for n, seed in sorted(product(spec.n_values, spec.seeds)):
            dep, tess, _, table = point_routes(spec, n, seed)
            for regime in SCHEDULE_REGIMES:
                schedule = make_schedule(replace(spec, schedule_regime=regime), tess)
                gamma, _ = saturated_hop_samples(dep, tess, schedule, table, spec.radio)
                p5, p50, p95 = np.percentile(gamma, [5, 50, 95]).tolist()
                row = [n, seed, regime, schedule.num_colors, repr(p5), repr(p50), repr(p95)]
                writer.write("schedule_comparison.csv", [row])
                rows.append(row)
    return rows


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
    "trace.csv": ("trace_v2", "slot,cell,tx_node,rx_node,sinr,outcome"),
    "schedule_comparison.csv": (
        "schedule_comparison_v1", "n,seed,regime,K,sinr_p5,sinr_p50,sinr_p95"
    ),
}
SWEEP_CSVS = ("connections.csv", "summary.csv", "verification.csv")
# Every file a run writes into its out dir except ``config.resolved.ini``,
# which every run rewrites.
OUTPUT_FILES = (*CSV_LAYOUTS, "errors.txt", "verification.txt", "routes.txt")


def _open_out_dir(spec: ExperimentSpec) -> Path:
    """Create the out dir, delete what an earlier run left there (other
    files stay) and record the resolved configuration."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in OUTPUT_FILES:
        (out / name).unlink(missing_ok=True)
    write_resolved_config(spec, out / "config.resolved.ini")
    return out


class CsvWriter:
    """The one writer of every CSV layout in ``CSV_LAYOUTS``.

    Each named file opens with its schema stamp and header; rows are
    appended as they are produced, so a sweep holds one point at a time.
    """

    def __init__(self, out_dir, names=SWEEP_CSVS):
        self._files = contextlib.ExitStack()
        self._handles = {}
        for name in names:
            fh = self._files.enter_context(open(Path(out_dir) / name, "w", newline=""))
            schema, header = CSV_LAYOUTS[name]
            fh.write(f"# schema={schema}\n{header}\n")
            self._handles[name] = fh

    def write(self, name: str, rows) -> None:
        csv.writer(self._handles[name], lineterminator="\n").writerows(rows)

    def write_fields(self, name: str, rows: list[tuple[str, ...]]) -> None:
        """Append rows of two or more str fields each.  When no field holds
        a comma, quote or line break, the csv writer would write each row as
        its fields joined by commas, so that is done directly, several times
        faster; otherwise the rows go through the csv writer."""
        text = "".join([",".join(row) + "\n" for row in rows])
        plain = text.count(",") == sum(map(len, rows)) - len(rows)
        if plain and text.count("\n") == len(rows) and '"' not in text and "\r" not in text:
            self._handles[name].write(text)
        else:
            self.write(name, rows)

    def write_point(self, res: PointResult) -> None:
        """Append one finished point to the sweep layouts."""
        self.write_fields("connections.csv", connection_rows(res))
        self.write("summary.csv", [summary_row(res)])
        self.write_fields("verification.csv",
                          verification_rows(res.report, (str(res.n), str(res.seed))))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._files.close()


def connection_rows(res: PointResult) -> list[tuple[str, ...]]:
    m, table = res.metrics, res.metrics.routes
    lead = (str(res.n), str(res.seed), repr(res.tess.rho_n), str(res.schedule.num_colors))
    return list(zip(
        *map(repeat, lead), map(str, table.connection_ids.tolist()),
        map(repr, table.length.tolist()), map(repr, table.path_length.tolist()),
        map(str, table.hop_count.tolist()), map(repr, (m.injected / m.slots).tolist()),
        *(map(str, c.tolist()) for c in (m.injected, m.delivered, m.dropped, m.in_flight)),
        ["" if math.isnan(dp) else repr(dp) for dp in m.delivery_probability().tolist()],
    ))


def summary_row(res: PointResult) -> list:
    m, tess = res.metrics, res.tess
    ts = throughput_summary(tess, res.schedule)
    mean_h = float(np.mean(m.routes.hop_count)) if len(m.routes) else 0.0
    return [
        res.n, res.seed, repr(tess.rho_n), tess.num_cells, res.schedule.num_colors,
        repr(m.lambda_realized), repr(m.throughput), int(m.injected.sum()),
        int(m.delivered.sum()), int(m.dropped.sum()), int(m.in_flight.sum()),
        int(tess.occupancy().min()), repr(mean_h), repr(ts.injection_ceiling),
        repr(ts.occupancy_rate_bound), int(res.hard_invariants_ok),
    ]


def verification_rows(
    report: VerificationReport, lead=(), detail=False
) -> list[tuple[str, ...]]:
    """One row of str fields per record, in written order: ``lead`` (the
    point's ``n`` and seed in ``verification.csv``), the check id, the
    connection id (empty for a check of the whole run), lhs, rhs, passed as
    0 or 1, and the detail string if ``detail``."""

    def rows_of(t):
        ids = repeat("") if t.connection_ids is None else map(str, t.connection_ids.tolist())
        columns = [*map(repeat, lead), repeat(t.check_id), ids, map(repr, t.lhs.tolist()),
                   map(repr, t.rhs.tolist()), np.where(t.passed, "1", "0").tolist()]
        return zip(*columns, *([t.details()] if detail else []))

    return report.rows(rows_of)


def trace_rows(metrics: RunMetrics) -> list[list]:
    return [[slot, cell, tx, rx, repr(sinr), outcome]
            for slot, cell, tx, rx, sinr, outcome in metrics.trace]


def verify_appendix(seed: int = 0, pairs: int = 1_000_000) -> VerificationReport:
    """Closed-form checks: pair-distance expectation, distance law, cap sandwich."""
    if pairs < 2:
        raise ConfigurationError("pairs must be at least 2 (a standard error needs two)")
    if seed < 0:
        raise ConfigurationError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    a = geometry.random_point(rng, pairs)
    b = geometry.random_point(rng, pairs)
    dist = geometry.surface_distance(a, b)
    deltas = np.array([0.1, 0.5, 0.9, math.exp(-2.0 * math.sqrt(math.pi))])
    mc, se, closed = np.empty(4), np.empty(4), np.empty(4)
    for k, delta in enumerate(deltas.tolist()):
        vals = delta**dist
        mc[k], se[k] = vals.mean(), vals.std(ddof=1) / math.sqrt(pairs)
        closed[k] = geometry.expected_delta_pow_L(delta)
    report = VerificationReport()
    report.add(CheckTable(
        "pair_distance_expectation", None, mc, closed, np.abs(mc - closed) <= 3.0 * se,
        "delta={delta!r} se={se!r}", {"delta": deltas, "se": se},
    ))
    ks = kolmogorov_statistic(dist)
    report.add(CheckTable("distance_law_ks", None, np.array([ks]), np.array([0.002]),
                          np.array([ks < 0.002]), f"pairs={pairs}"))
    rhos = np.linspace(
        geometry.MAX_DISTANCE / 2.0 / _CAP_GRID, geometry.MAX_DISTANCE / 2.0, _CAP_GRID
    )
    areas = geometry.cap_area(rhos)
    ok = bool(np.all(math.pi * rhos**2 / 2.0 <= areas) and np.all(areas <= math.pi * rhos**2))
    report.add(CheckTable("cap_area_sandwich", None, np.array([float(ok)]), np.array([1.0]),
                          np.array([ok]), f"grid={_CAP_GRID}"))
    return report


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


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError(raw)
    return value


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


CONFIG_KEYS = (
    ConfigKey("sweep", "n", "n_values", _ints, _join),
    ConfigKey("sweep", "seeds", "seeds", _seeds, _join_seeds),
    ConfigKey("sweep", "area_constant", "area_constant", _finite, repr),
    ConfigKey("sweep", "out", "out_dir"),
    ConfigKey("sweep", "workers", "workers", int),
    ConfigKey("sweep", "track_connections", "track_connections", _optional_int, _optional),
    ConfigKey("radio", "tx_power", "radio.tx_power", _finite, repr),
    ConfigKey("radio", "noise", "radio.noise", _finite, repr),
    ConfigKey("radio", "alpha", "radio.alpha", _finite, repr),
    ConfigKey("link_model", "name", "link_model_name"),
    ConfigKey("link_model", "*", "link_model_params", _finite, repr),
    ConfigKey("schedule", "regime", "schedule_regime"),
    ConfigKey("schedule", "delta", "schedule_delta", _finite, repr),
    ConfigKey("schedule", "growth", "schedule_growth"),
    ConfigKey("routing", "strategy", "routing_strategy"),
    ConfigKey("engine", "injection_rate", "engine.injection_rate", _finite, repr),
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
