"""Conflict-graph coloring of cells into a cyclic TDMA schedule.

Two cells conflict when their centers are within ``delta * rho_n`` or
the cells are adjacent; a proper coloring of that graph gives every cell
one slot per cycle of length ``K`` (the color count), and cells sharing a
slot are more than ``delta * rho_n`` apart.  The fixed regime keeps
``delta`` constant; the conservative regime scales it with a diverging
function of ``n`` so that spatial reuse shrinks as the network grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .tessellation import Tessellation, centers_within

MIN_CONFLICT_MULTIPLIER = 4.0
DEFAULT_CONFLICT_MULTIPLIER = 12.0


@dataclass
class Schedule:
    color_of_cell: np.ndarray  # (m,) color per cell
    conflict_multiplier: float
    regime: str  # "fixed" or "conservative:<growth>"
    num_colors: int = field(init=False)
    cells_by_color: list[np.ndarray] = field(init=False)  # slot s runs color s mod num_colors

    def __post_init__(self):
        self.num_colors = int(self.color_of_cell.max()) + 1
        self.cells_by_color = [
            np.flatnonzero(self.color_of_cell == k) for k in range(self.num_colors)
        ]


def _conflict_radius(tess: Tessellation, delta: float) -> float:
    """Centers within the larger of ``delta * rho_n`` and the adjacency radius conflict."""
    return max(delta * tess.rho_n, tess.adjacency_radius)


def _conflict_sets(tess: Tessellation, delta: float) -> list[set[int]]:
    near = centers_within(tess.centers, _conflict_radius(tess, delta))
    return [set(row.tolist()) for row in near]


def _greedy_coloring(conflicts: list[set[int]]) -> list[int]:
    m = len(conflicts)
    order = sorted(range(m), key=lambda c: (-len(conflicts[c]), c))
    colors = [-1] * m
    for c in order:
        used = {colors[d] for d in conflicts[c]}
        color = 0
        while color in used:
            color += 1
        colors[c] = color
    return colors


def _rebalance_classes(colors: list[int], conflicts: list[set[int]]) -> list[int]:
    """Move cells from large color classes into singleton classes.

    Keeps the coloring proper and the color count unchanged.  Without this
    pass the greedy order can leave colors used by a single cell, i.e. slots
    in which only one cell in the whole network transmits; rebalancing keeps
    every slot populated by at least two transmitters wherever the conflict
    graph allows it.
    """
    colors = list(colors)
    num_colors = max(colors) + 1
    members = [[] for _ in range(num_colors)]
    for c, k in enumerate(colors):
        members[k].append(c)
    for _ in range(num_colors):
        moved = False
        for k in [k for k in range(num_colors) if len(members[k]) == 1]:
            target = members[k][0]
            c = min((c for c in range(len(colors))
                     if len(members[colors[c]]) >= 3 and c not in conflicts[target]),
                    key=lambda c: (-len(members[colors[c]]), c), default=None)
            if c is not None:
                members[colors[c]].remove(c)
                colors[c] = k
                members[k].append(c)
                moved = True
        if not moved:
            break
    return colors


def _color(tess: Tessellation, delta: float, regime: str) -> Schedule:
    """The one coloring path of both regimes: conflict sets, greedy
    coloring, rebalancing, then the hard properness check."""
    conflicts = _conflict_sets(tess, delta)
    colors = _rebalance_classes(_greedy_coloring(conflicts), conflicts)
    sched = Schedule(color_of_cell=np.array(colors, dtype=np.int64),
                     conflict_multiplier=float(delta), regime=regime)
    assert_proper(sched, tess)
    return sched


def build_schedule(tess: Tessellation, delta: float = DEFAULT_CONFLICT_MULTIPLIER) -> Schedule:
    """Greedy largest-degree-first coloring of the conflict graph.

    Color classes are rebalanced afterwards so no color is left on a single
    cell when the conflict graph allows an alternative.
    """
    check_conflict_multiplier(delta)
    return _color(tess, delta, "fixed")


def check_conflict_multiplier(delta: float) -> None:
    """A fixed schedule's ``delta`` must be at least ``MIN_CONFLICT_MULTIPLIER``."""
    if not delta >= MIN_CONFLICT_MULTIPLIER:
        raise ConfigurationError(
            f"conflict multiplier {delta} < {MIN_CONFLICT_MULTIPLIER} would let a "
            "receiver's own cell transmit while it is receiving"
        )


def growth_value(growth: str, n: int) -> float:
    """Diverging growth functions for the conservative regime."""
    if growth == "log":
        return math.log(n)
    if growth == "sqrt_log":
        return math.sqrt(math.log(n))
    if growth.startswith("pow:"):
        try:
            eps = float(growth.split(":", 1)[1])
        except ValueError:
            eps = math.nan
        if not eps > 0:
            raise ConfigurationError(f"pow growth exponent must be positive in {growth!r}")
        return float(n) ** eps
    raise ConfigurationError(
        f"unknown growth {growth!r}; expected log, sqrt_log or pow:<eps> "
        "(the growth function must diverge with n)"
    )


def build_conservative_schedule(tess: Tessellation, growth: str) -> Schedule:
    """Schedule with conflict radius ``12 * growth(n) * rho_n`` over ``n`` nodes.

    Widening the conflict radius shrinks spatial reuse, so the measured
    schedule length grows with ``n``.
    """
    delta = DEFAULT_CONFLICT_MULTIPLIER * growth_value(growth, len(tess.cell_of_node))
    return _color(tess, delta, f"conservative:{growth}")


def assert_proper(sched: Schedule, tess: Tessellation) -> None:
    """Hard check: conflicting cells never share a color, and neither do
    adjacent cells, so no inter-cell hop's receiver transmits in its
    transmitter's slot.  Each color's centers are compared among themselves,
    apart from the conflict sets the coloring used."""
    radius = _conflict_radius(tess, sched.conflict_multiplier)
    for cells in sched.cells_by_color:
        if any(len(row) for row in centers_within(tess.centers[cells], radius)):
            raise AssertionError("improper coloring: adjacent or conflicting cells share a color")


def save_schedule(sched: Schedule, path) -> None:
    with open(path, "w") as fh:
        fh.write("# adhocsim schedule v1\n")
        fh.write(f"regime {sched.regime}\n")
        fh.write(f"delta {sched.conflict_multiplier!r}\n")
        fh.write(f"colors {sched.num_colors}\n")
        for cell, color in enumerate(sched.color_of_cell):
            fh.write(f"s {cell} {color}\n")
