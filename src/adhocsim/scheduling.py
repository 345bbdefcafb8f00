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
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigurationError
from .tessellation import Tessellation

MIN_CONFLICT_MULTIPLIER = 4.0
DEFAULT_CONFLICT_MULTIPLIER = 12.0


@dataclass
class Schedule:
    color_of_cell: np.ndarray  # (m,) color per cell
    num_colors: int
    conflict_multiplier: float
    regime: str  # "fixed" or "conservative:<growth>"
    cells_by_color: list[np.ndarray]  # slot s runs color s mod num_colors


def _conflict_sets(tess: Tessellation, delta: float) -> list[set[int]]:
    theta = min(delta * tess.rho_n / geometry.RADIUS, math.pi)
    cos_thr = math.cos(theta)
    gram = tess.centers @ tess.centers.T
    conflict = gram >= cos_thr - 1e-15
    for c, nbrs in enumerate(tess.neighbors):
        conflict[c, nbrs] = True  # adjacency reaches 4*rho_n*(1+1e-9)
    np.fill_diagonal(conflict, False)
    return [set(np.flatnonzero(row)) for row in conflict]


def _greedy_coloring(conflicts: list[set[int]]) -> np.ndarray:
    m = len(conflicts)
    order = sorted(range(m), key=lambda c: (-len(conflicts[c]), c))
    colors = np.full(m, -1, dtype=np.int64)
    for c in order:
        used = {colors[d] for d in conflicts[c] if colors[d] >= 0}
        color = 0
        while color in used:
            color += 1
        colors[c] = color
    return colors


def _rebalance_classes(colors: np.ndarray, conflicts: list[set[int]]) -> np.ndarray:
    """Move cells from large color classes into singleton classes.

    Keeps the coloring proper and the color count unchanged.  Without this
    pass the greedy order can leave colors used by a single cell, i.e. slots
    in which only one cell in the whole network transmits; rebalancing keeps
    every slot populated by at least two transmitters wherever the conflict
    graph allows it.
    """
    colors = colors.copy()
    num_colors = int(colors.max()) + 1
    members = [list(np.flatnonzero(colors == k)) for k in range(num_colors)]
    for _ in range(num_colors):
        singles = [k for k in range(num_colors) if len(members[k]) == 1]
        if not singles:
            break
        moved = False
        for k in singles:
            target = members[k][0]
            donors = sorted(
                (c for c in range(len(colors)) if len(members[colors[c]]) >= 3),
                key=lambda c: (-len(members[colors[c]]), c),
            )
            for c in donors:
                if c not in conflicts[target]:
                    members[colors[c]].remove(c)
                    colors[c] = k
                    members[k].append(c)
                    moved = True
                    break
        if not moved:
            break
    return colors


def _finalize(colors, delta, regime, tess) -> Schedule:
    num_colors = int(colors.max()) + 1
    sched = Schedule(
        color_of_cell=colors,
        num_colors=num_colors,
        conflict_multiplier=float(delta),
        regime=regime,
        cells_by_color=[np.flatnonzero(colors == k) for k in range(num_colors)],
    )
    assert_proper(sched, tess)
    return sched


def build_schedule(tess: Tessellation, delta: float = DEFAULT_CONFLICT_MULTIPLIER) -> Schedule:
    """Greedy largest-degree-first coloring of the conflict graph.

    Color classes are rebalanced afterwards so no color is left on a single
    cell when the conflict graph allows an alternative.
    """
    if delta < MIN_CONFLICT_MULTIPLIER:
        raise ConfigurationError(
            f"conflict multiplier {delta} < {MIN_CONFLICT_MULTIPLIER} would let a "
            "receiver's own cell transmit while it is receiving"
        )
    conflicts = _conflict_sets(tess, delta)
    colors = _rebalance_classes(_greedy_coloring(conflicts), conflicts)
    return _finalize(colors, delta, "fixed", tess)


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


def build_conservative_schedule(tess: Tessellation, n: int, growth: str) -> Schedule:
    """Schedule with conflict radius ``12 * growth(n) * rho_n``.

    Widening the conflict radius shrinks spatial reuse, so the measured
    schedule length grows with ``n``.
    """
    delta = DEFAULT_CONFLICT_MULTIPLIER * growth_value(growth, n)
    conflicts = _conflict_sets(tess, delta)
    colors = _rebalance_classes(_greedy_coloring(conflicts), conflicts)
    return _finalize(colors, delta, f"conservative:{growth}", tess)


def assert_proper(sched: Schedule, tess: Tessellation) -> None:
    """Hard check: conflicting cells never share a color, and neither do
    adjacent cells (``tess.neighbors``), so no inter-cell hop's receiver
    transmits in its transmitter's slot."""
    colors = sched.color_of_cell
    for c, nbrs in enumerate(tess.neighbors):
        if np.any(colors[nbrs] == colors[c]):
            raise AssertionError("improper coloring: adjacent cells share a color")
    theta = min(sched.conflict_multiplier * tess.rho_n / geometry.RADIUS, math.pi)
    cos_thr = math.cos(theta)
    for cells in sched.cells_by_color:
        if len(cells) < 2:
            continue
        gram = tess.centers[cells] @ tess.centers[cells].T
        np.fill_diagonal(gram, -1.0)
        if gram.max() >= cos_thr - 1e-15:
            raise AssertionError("improper coloring: conflicting cells share a color")


def save_schedule(sched: Schedule, path) -> None:
    with open(path, "w") as fh:
        fh.write("# adhocsim schedule v1\n")
        fh.write(f"regime {sched.regime}\n")
        fh.write(f"delta {sched.conflict_multiplier!r}\n")
        fh.write(f"colors {sched.num_colors}\n")
        for cell, color in enumerate(sched.color_of_cell):
            fh.write(f"s {cell} {color}\n")
