"""Empirical checkers for the hop-count, interference and throughput claims.

A checker returns one ``CheckTable``, its records as columns: the two
compared numbers (never just a boolean), the verdict, and the numbers its
detail strings are formatted from when written.  Checkers are
side-effect-free over run measurements.

The hop-count and short-hop checks assert the finite-size forms of the
claims, which keep the endpoint-cell correction term ``8*rho_n`` that the
asymptotic statements drop: a source-destination pair closer than about
``0.2*rho_n`` still needs one hop, so the uncorrected upper bound
``16*L/(pi*rho)`` is violated with positive probability at any finite
scale.  Both forms are computed and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable

import numpy as np

from . import geometry
from .errors import ConfigurationError, SaturationError
from .engine import RunMetrics
from .links import LinkModel, hop_success_with_retries
from .routing import RouteTable
from .scheduling import Schedule
from .tessellation import Tessellation

DEFAULT_EPS = 1.0 / 32.0
ARBITRARY_EPS = 1.0 / 640.0
SHORT_HOP_W = 40
SHORT_HOP_T = 0.01
# Cells reachable by SHORT_HOP_W hops of length <= SHORT_HOP_T*rho_n: 2*(w*t + 4)**2.
SHORT_HOP_CELL_BOUND = 2.0 * (SHORT_HOP_W * SHORT_HOP_T + 4.0) ** 2


@dataclass(frozen=True)
class BoundSet:
    """Constants of the bounded-SINR hop-fraction argument.

    ``c1`` is never assumed: it is read off the built schedule as ``K - 1``
    since every inequality uses only ``1 + c1``.  ``m0_arbitrary`` is the
    interferer-distance constant of the arbitrary-routing variant (chosen
    from ``eps = 1/640``), and ``beta1`` is derived from it.
    """

    eps1: float
    eps2: float
    alpha: float
    c1: float
    t0: float
    m0: float
    beta0: float
    m0_arbitrary: float
    beta1: float
    c0: float | None  # needs phi(beta0); see throughput_ceilings


def short_hop_fraction(t: float) -> float:
    """Guaranteed long-hop fraction coefficient ``(1 - 16t/pi) / (8 - t)``."""
    return (1.0 - 16.0 * t / math.pi) / (8.0 - t)


def short_hop_threshold_root(eps1: float) -> float:
    """Bisection solve of ``short_hop_fraction(t) == 1/8 - eps1`` on (0, pi/16)."""
    target = 0.125 - eps1
    lo, hi = 0.0, math.pi / 16.0
    f_lo = short_hop_fraction(1e-15) - target
    f_hi = -target
    if f_lo <= 0 or f_hi >= 0:
        raise ConfigurationError("no root in (0, pi/16); eps1 out of range")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if short_hop_fraction(mid) - target > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def compute_bounds(
    eps1: float = DEFAULT_EPS,
    eps2: float = DEFAULT_EPS,
    alpha: float = 3.0,
    c1: float = 0.0,
    phi_of_beta0: float | None = None,
) -> BoundSet:
    if not eps1 + eps2 < 0.125:
        raise ConfigurationError("eps1 + eps2 must stay below 1/8")
    if not alpha > 2:
        raise ConfigurationError("alpha must exceed 2")
    if not (c1 >= 0 and eps2 > 0):
        raise ConfigurationError("c1 = K - 1 must be nonnegative and eps2 positive")
    t0 = short_hop_threshold_root(eps1)
    m0 = 2.0 * (1.0 + c1) / eps2
    m0_arbitrary = 2.0 * (1.0 + c1) / ARBITRARY_EPS
    beta0 = ((m0 + 8.0) / t0) ** alpha
    beta1 = 100.0**alpha * (m0_arbitrary + 8.0) ** alpha
    return BoundSet(
        eps1=eps1, eps2=eps2, alpha=alpha, c1=c1, t0=t0, m0=m0, beta0=beta0,
        m0_arbitrary=m0_arbitrary, beta1=beta1,
        c0=None if phi_of_beta0 is None else _c0(phi_of_beta0),
    )


def _c0(phi_of_beta0: float) -> float:
    """The throughput constant ``2**12 / log(phi(beta0))**2``."""
    if not 0.0 < phi_of_beta0 < 1.0:
        raise ConfigurationError("phi(beta0) must lie in (0, 1)")
    return 2.0**12 / math.log(phi_of_beta0) ** 2


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    connection_id: int | None
    lhs: float
    rhs: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckTable:
    """One check's records as columns: per record its connection id (none
    for a check of the whole run), the two compared numbers and whether it
    passed.  A record's detail string is ``detail.format(**columns)``, made
    only when written: an array in ``columns`` holds one value per record,
    any other value is shared by all of them."""

    check_id: str
    connection_ids: np.ndarray | None
    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray
    detail: str = ""
    columns: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.passed)

    def details(self, rows=slice(None)) -> list[str]:
        """The detail strings of records ``rows`` (an index array), or of
        every record, formatted on each call."""
        shared = {k: v for k, v in self.columns.items() if not isinstance(v, np.ndarray)}
        own = {k: v[rows].tolist() for k, v in self.columns.items() if isinstance(v, np.ndarray)}
        return [self.detail.format(**shared, **{k: v[i] for k, v in own.items()})
                for i in range(len(self.passed[rows]))]


@dataclass
class VerificationReport:
    """A run's check tables in written order.  The tables of one ``add``
    call hold one record per route each and are written interleaved, route
    by route; each call's records follow the one before."""

    groups: list[tuple[CheckTable, ...]] = field(default_factory=list)

    def add(self, *tables: CheckTable) -> None:
        self.groups.append(tables)

    @property
    def tables(self) -> list[CheckTable]:
        return [t for group in self.groups for t in group]

    def rows(self, rows_of: Callable[[CheckTable], Iterable]) -> list:
        """The rows ``rows_of`` makes of each table, in written order."""
        rows = []
        for group in self.groups:
            rows += chain.from_iterable(zip(*map(rows_of, group), strict=True))
        return rows

    @property
    def records(self) -> list[CheckRecord]:
        """Every record with its detail, in written order; built on each read."""
        return self.rows(lambda t: map(
            CheckRecord, repeat(t.check_id),
            repeat(None) if t.connection_ids is None else t.connection_ids.tolist(),
            t.lhs.tolist(), t.rhs.tolist(), t.passed.tolist(), t.details()))

    def pass_counts(self) -> dict[str, tuple[int, int]]:
        """Passed and total records of each check that has one, by check id."""
        counts = {}
        for t in self.tables:
            if len(t):
                passes, total = counts.get(t.check_id, (0, 0))
                counts[t.check_id] = (passes + int(t.passed.sum()), total + len(t))
        return dict(sorted(counts.items()))

    def pass_rate(self, check_id: str) -> float:
        passes, total = self.pass_counts().get(check_id, (0, 0))
        return passes / total if total else float("nan")

    def write_text(self, path) -> None:
        """Each check's pass count, then its failing records in written order
        (no ``add`` call holds two tables of one check).  Only the failing
        records' detail strings are formatted."""
        with open(path, "w") as fh:
            fh.write("# adhocsim verification report\n")
            for cid, (passes, total) in self.pass_counts().items():
                fh.write(f"{cid}: {passes}/{total} pass ({passes / total:.3f})\n")
                for t in self.tables:
                    if t.check_id == cid:
                        fh.writelines(_failure_lines(t))


def _failure_lines(t: CheckTable) -> list[str]:
    """The ``verification.txt`` line of each failing record of ``t``."""
    bad = np.flatnonzero(np.logical_not(t.passed))
    ids = repeat(None) if t.connection_ids is None else t.connection_ids[bad].tolist()
    return [f"  FAIL conn={conn} lhs={lhs!r} rhs={rhs!r} {detail}\n" for conn, lhs, rhs, detail
            in zip(ids, t.lhs[bad].tolist(), t.rhs[bad].tolist(), t.details(bad))]


def _route_counts(hit: np.ndarray, offsets: np.ndarray, trim: int) -> np.ndarray:
    """Per route of ``offsets``, the set entries of the per-hop flag ``hit``
    over its hops less ``trim`` at each end: with ``trim`` 1, over its
    interior hops (all but the source and destination hops)."""
    below = np.concatenate(([0], np.cumsum(hit)))  # below[i]: hits before hop i
    start, end = offsets[:-1] + trim, offsets[1:] - trim
    return below[end] - below[np.minimum(start, end)]


def check_hop_count(routes: RouteTable, rho_n: float) -> CheckTable:
    """Hop counts against the geodesic-length bounds (straight-line routes):
    at least ``max(L/(8*rho), 1)``, at most the endpoint-corrected
    ``16*(L + 8*rho)/(pi*rho)``; the asymptotic ``16*L/(pi*rho)`` is reported."""
    length, h = routes.length, routes.hop_count
    lower = np.maximum(length / (8.0 * rho_n), 1.0)
    upper = 16.0 * (length + 8.0 * rho_n) / (math.pi * rho_n)
    return CheckTable(
        "hop_count", routes.connection_ids, h.astype(float), upper, (lower <= h) & (h <= upper),
        "lower={lower!r} upper_asymptotic={upper_asymptotic!r}",
        {"lower": lower, "upper_asymptotic": 16.0 * length / (math.pi * rho_n)},
    )


def check_short_hops(routes: RouteTable, rho_n: float, t: float) -> CheckTable:
    """Long-hop counts ``H - h`` against their guaranteed floor, ``h`` the
    hops shorter than ``t * rho_n``.

    The floor keeps the ``128 t / pi`` endpoint correction inherited from the
    corrected hop-count upper bound; the asymptotic floor is reported.
    """
    if not 0.0 < t < math.pi / 16.0:
        raise ConfigurationError("t must lie in (0, pi/16)")
    h_short = _route_counts(routes.hop_length < t * rho_n, routes.offsets, 0)
    long_hops = routes.hop_count - h_short
    ratio = routes.length / rho_n
    floor = (ratio * (1.0 - 16.0 * t / math.pi) - 128.0 * t / math.pi) / (8.0 - t)
    return CheckTable(
        "short_hops", routes.connection_ids, long_hops.astype(float), floor, long_hops >= floor,
        "t={t!r} h_short={h_short} floor_asymptotic={floor_asymptotic!r}",
        {"t": t, "h_short": h_short, "floor_asymptotic": ratio * short_hop_fraction(t)},
    )


def max_short_run(routes: RouteTable, rho_n: float) -> np.ndarray:
    """Per route, its longest run of consecutive hops of length
    ``SHORT_HOP_T * rho_n`` or less, by one scan over all routes' hops."""
    hops, offsets = routes.hop_length, routes.offsets
    index = np.arange(len(hops))
    # reset[i]: the hop at or before i after which i's run starts, a long hop
    # or the hop before its route's first
    reset = np.where(hops <= SHORT_HOP_T * rho_n, -1, index)
    nonempty = np.diff(offsets) > 0
    first = offsets[:-1][nonempty]
    reset[first] = np.maximum(reset[first], first - 1)
    run = index - np.maximum.accumulate(reset)
    best = np.zeros(len(routes), dtype=np.int64)
    best[nonempty] = np.maximum.reduceat(run, first)
    return best


def check_consecutive_short_hops(routes: RouteTable, rho_n: float) -> CheckTable:
    """No ``SHORT_HOP_W`` consecutive hops of length ``SHORT_HOP_T * rho_n`` or less."""
    run = max_short_run(routes, rho_n)
    return CheckTable(
        "consecutive_short_hops", routes.connection_ids, run.astype(float),
        np.full(len(run), float(SHORT_HOP_W)), run < SHORT_HOP_W,
        "cell_bound={cell_bound!r}", {"cell_bound": SHORT_HOP_CELL_BOUND},
    )


def check_interferer_proximity(
    metrics: RunMetrics,
    bounds: BoundSet,
    rho_n: float,
    arbitrary: bool = False,
) -> CheckTable:
    """Count interior hops with no concurrent transmitter within ``(m+8)*rho_n``.

    Requires a saturated run (otherwise a silent cell would inflate the count
    for reasons unrelated to the claim).  The straight-line variant takes
    ``m = bounds.m0`` and compares against ``(L/rho) * 2K/m``, ``K = c1 + 1``;
    the arbitrary-routing variant takes ``bounds.m0_arbitrary`` and the
    traversed path length instead.
    """
    if not metrics.saturated:
        raise SaturationError("interferer-proximity counting needs a saturated trace")
    m = bounds.m0_arbitrary if arbitrary else bounds.m0
    radius = (m + 8.0) * rho_n
    routes = metrics.routes
    isolated = _route_counts(metrics.hop_nearest > radius, routes.offsets, 1)
    length = routes.path_length if arbitrary else routes.length
    bound = (length / rho_n) * 2.0 * (bounds.c1 + 1) / m
    return CheckTable(
        "interferer_proximity", routes.connection_ids, isolated.astype(float), bound,
        isolated <= bound, "m={m!r} radius={radius!r} interior_hops={interior_hops}",
        {"m": m, "radius": radius, "interior_hops": np.maximum(routes.hop_count - 2, 0)},
    )


def check_sinr_bounded_fraction(
    metrics: RunMetrics,
    bounds: BoundSet,
    rho_n: float,
    arbitrary: bool = False,
) -> CheckTable:
    """Interior hops with SINR below the ceiling, against the required count.

    Straight-line variant: at least ``L/(16*rho_n)`` hops at or below
    ``beta0``; arbitrary variant: at least ``Lhat/(640*rho_n)`` at or below
    ``beta1``.  A required count below one passes trivially.
    """
    if not metrics.saturated:
        raise SaturationError("bounded-SINR counting needs a saturated trace")
    ceiling = bounds.beta1 if arbitrary else bounds.beta0
    routes = metrics.routes
    count = _route_counts(metrics.hop_gamma <= ceiling, routes.offsets, 1)
    length = routes.path_length if arbitrary else routes.length
    required = length / ((640.0 if arbitrary else 16.0) * rho_n)
    return CheckTable(
        "sinr_bounded_fraction" + ("_arbitrary" if arbitrary else ""), routes.connection_ids,
        count.astype(float), required, (required < 1.0) | (count >= required),
        "ceiling={ceiling!r}", {"ceiling": ceiling},
    )


def hard_invariants_hold(report: VerificationReport) -> bool:
    """Whether every ``hop_count`` and ``consecutive_short_hops`` record of
    ``report`` passed; ``simulate`` and ``sweep`` fail when one did not."""
    hard_ids = {"hop_count", "consecutive_short_hops"}
    return all(bool(t.passed.all()) for t in report.tables if t.check_id in hard_ids)


def failed_claims(report: VerificationReport) -> list[str]:
    """The checks of ``report`` below their floor, in sorted order;
    ``adhocsim verify`` fails when there is any.

    ``sinr_bounded_fraction`` asserts its count on at least 95 % of its
    records, every other check on all of them.  ``delivery_prediction`` is
    left out: it is a 3-sigma report, not an assertion.
    """
    failed = []
    for check_id in report.pass_counts():
        floor = 0.95 if check_id == "sinr_bounded_fraction" else 1.0
        if check_id != "delivery_prediction" and report.pass_rate(check_id) < floor:
            failed.append(check_id)
    return failed


@dataclass(frozen=True)
class CeilingReport:
    lambda_bound: float  # injection rate times the delivery-decay factor
    c0: float
    c0_over_n: float | None
    conservative_ceiling: float | None  # 1 / (n * rho_n * K), unit constant
    conservative_sqrt_form: float | None  # 1 / (K * sqrt(n * log n))
    occupancy_ceiling: float | None  # 4 / (pi * n * rho_n^2)


def throughput_ceilings(
    rho_n: float,
    schedule_length: int,
    injection_rate: float,
    phi_beta0: float,
    n: int | None = None,
) -> CeilingReport:
    if not rho_n > 0:
        raise ConfigurationError("rho_n must be positive")
    if n is not None and n < 2:
        raise ConfigurationError("n must be at least 2")
    if not 0.0 <= injection_rate <= 1.0:
        raise ConfigurationError("injection rate must lie in [0, 1]")
    c0 = _c0(phi_beta0)
    lambda_bound = injection_rate * 1024.0 * math.pi * rho_n**2 / math.log(phi_beta0) ** 2
    if n is None:
        return CeilingReport(lambda_bound, c0, None, None, None, None)
    return CeilingReport(
        lambda_bound=lambda_bound,
        c0=c0,
        c0_over_n=c0 / n,
        conservative_ceiling=1.0 / (n * rho_n * schedule_length),
        conservative_sqrt_form=1.0 / (schedule_length * math.sqrt(n * math.log(n))),
        occupancy_ceiling=_occupancy_ceiling(n, rho_n),
    )


def _occupancy_ceiling(n: int, rho_n: float) -> float:
    """Per-node rate cap ``4 / (pi * n * rho_n**2)`` of any certified tessellation."""
    return 4.0 / (math.pi * n * rho_n**2)


@dataclass(frozen=True)
class ThroughputSummary:
    injection_ceiling: float  # 1 / (max occupancy * K)
    occupancy_rate_bound: float  # 4 / (pi * n * rho_n^2)


def throughput_summary(tess: Tessellation, schedule: Schedule) -> ThroughputSummary:
    """The cell-sharing feasibility ceilings of a run.

    A cell with ``Q`` resident nodes transmitting once per ``K`` slots cannot
    give any of them more than ``1/(Q*K)`` injections per slot, and for any
    certified tessellation the per-node rate is capped by
    ``4 / (pi * n * rho_n**2)``.
    """
    return ThroughputSummary(
        injection_ceiling=1.0 / (int(tess.occupancy().max()) * schedule.num_colors),
        occupancy_rate_bound=_occupancy_ceiling(len(tess.cell_of_node), tess.rho_n),
    )


def delivery_decay_direct(injection_rate: float, rho_n: float, phi_beta0: float) -> float:
    """Delivery-rate bound via the closed-form pair-distance expectation."""
    delta = phi_beta0 ** (1.0 / (16.0 * rho_n))
    return injection_rate * geometry.expected_delta_pow_L(delta)


def delivery_decay_stepwise(injection_rate: float, rho_n: float, phi_beta0: float) -> float:
    """The same bound composed stepwise in terms of ``phi(beta0)`` directly."""
    log_phi = math.log(phi_beta0)
    num = 512.0 * math.pi * rho_n**2 * (
        1.0 + phi_beta0 ** (math.sqrt(math.pi) / (32.0 * rho_n))
    )
    den = 1024.0 * math.pi * rho_n**2 + log_phi**2
    return injection_rate * num / den


def delivery_prediction(metrics: RunMetrics, model: LinkModel, attempts: int) -> CheckTable:
    """Measured delivery against the independent-hops product prediction.

    The prediction multiplies each hop's retry-budget success probability at
    the hop's mean per-attempt success probability over the run's counted
    attempts.  Both numbers are recorded with a three-standard-error binomial
    band; the schedule can correlate hops, so treat the band as a report, not
    an assertion, outside the case where the per-hop probabilities are exact
    (constant-p).  Under a saturated fixed schedule a hop's SINR is its
    measured ``hop_gamma`` only in the slots where every other transmitter
    is its cell's relay; a first-hop packet elsewhere in the slot is sent
    by its source node and shifts the field.
    """
    offsets, mean_success = metrics.routes.offsets.tolist(), metrics.mean_hop_success.tolist()
    resolved_of = metrics.delivered + metrics.dropped
    kept, predicted = [], []
    for k, resolved in enumerate(resolved_of.tolist()):
        if resolved == 0:
            continue
        means = mean_success[offsets[k]:offsets[k + 1]]
        if model.continuous and any(math.isnan(p) for p in means):
            continue  # a hop never attempted has no success probability
        # An SINR-independent model succeeds with the same probability on a
        # hop never attempted.
        predicted.append(math.prod(
            hop_success_with_retries(model.success(0.0) if math.isnan(p) else p, attempts)
            for p in means
        ))
        kept.append(k)
    kept, predicted = np.array(kept, dtype=np.int64), np.array(predicted, dtype=float)
    resolved = resolved_of[kept]
    measured = metrics.delivery_probability()[kept]
    sigma = np.sqrt(np.maximum(predicted * (1.0 - predicted), 1e-12) / resolved)
    return CheckTable(
        "delivery_prediction", metrics.routes.connection_ids[kept], measured, predicted,
        np.abs(measured - predicted) <= 3.0 * sigma,
        "resolved={resolved} sigma={sigma!r}", {"resolved": resolved, "sigma": sigma},
    )
