"""Route construction: great-circle cell routing plus arbitrary strategies.

A route visits a sequence of pairwise-distinct cells in which consecutive
cells are adjacent, and relays its packets along a node chain whose first
entry is the source and last entry is the destination; interior entries
are each cell's relay node.  Hop ``h`` transmits from ``relays[h]`` (a
node of ``cells[h]``) to ``relays[h+1]``.  A source and destination that
share a cell make a single intra-cell hop, so the hop count is always at
least one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import ConfigurationError, GeometryError, RoutingError
from .tessellation import Deployment, Tessellation

MAX_HOP_FACTOR = 8.0  # hop length never exceeds 8*rho_n under adjacency
_HALF_PI = 0.5 * math.pi
_PHI_SLACK = 1e-12  # rounding allowance, in radians, on a bisector crossing
STRATEGIES = ("straight_line", "shortest_cell_path", "random_walk_loop_erased")


@dataclass(frozen=True)
class Connection:
    """One source-destination pair and its geodesic length."""

    id: int
    source: int
    destination: int
    length: float

    def __post_init__(self):
        if self.source == self.destination:
            raise ConfigurationError("source and destination must differ")


@dataclass
class Route:
    connection_id: int
    cells: list[int]  # distinct cells crossed, in order
    relays: list[int]  # node chain, len = hop count + 1
    hop_lengths: np.ndarray
    length: float  # geodesic source-destination distance
    path_length: float = field(init=False)  # sum of hop lengths

    def __post_init__(self):
        self.path_length = float(np.sum(self.hop_lengths))

    @property
    def hop_count(self) -> int:
        return len(self.hop_lengths)


def pick_connections(dep: Deployment, seed: int) -> list[Connection]:
    """One connection per node; destination uniform over the other nodes."""
    if dep.n < 2:
        raise ConfigurationError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    offsets = rng.integers(1, dep.n, size=dep.n)
    dests = (np.arange(dep.n) + offsets) % dep.n
    lengths = geometry.surface_distance(dep.nodes, dep.nodes[dests])
    return [
        Connection(id=i, source=i, destination=int(dests[i]), length=float(lengths[i]))
        for i in range(dep.n)
    ]


def _crossed_cells(tess: Tessellation, a: np.ndarray, b: np.ndarray, theta: float) -> list[int]:
    """Cells whose region the minor arc from a to b crosses, in order.

    Walks the Voronoi bisectors exactly.  On the arc
    ``x(phi) = (sin(theta - phi) a + sin(phi) b) / sin(theta)``, with ``theta``
    the central angle from a to b, ``x(phi).(c_i - c_j)`` is a positive
    multiple of ``P cos(phi) + Q sin(phi)`` with ``P = sin(theta) a.w`` and
    ``Q = b.w - cos(theta) a.w`` for ``w = c_i - c_j``.  The arc therefore
    leaves cell i across its bisector with j at ``phi = atan2(Q, P) + pi/2``,
    and enters the neighbor whose bisector it crosses first; the cell just
    left is not a candidate.  The 4*rho_n neighbor lists hold every Voronoi
    neighbor because the covering radius is at most 2*rho_n.  The end cells
    are the endpoints' nearest centers.
    """
    start = int(np.argmax(tess.centers @ a))
    end = int(np.argmax(tess.centers @ b))
    ax, ay, az = a.tolist()
    bx, by, bz = b.tolist()
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    bisectors, max_cells = tess.bisectors, tess.num_cells
    cells = [start]
    prev, cell = -1, start
    while cell != end:
        exit_phi, nxt = math.inf, -1
        for j, wx, wy, wz in bisectors[cell]:
            if j == prev:
                continue
            aw = ax * wx + ay * wy + az * wz
            phi = math.atan2(bx * wx + by * wy + bz * wz - cos_t * aw, sin_t * aw) + _HALF_PI
            # a crossing rounded to just below 0 lies at the start point
            if -_PHI_SLACK <= phi < exit_phi:
                exit_phi, nxt = phi, j
        if exit_phi > theta + _PHI_SLACK:
            raise RoutingError(f"geodesic walk left cell {cell} beyond the arc's end", cell=cell)
        if len(cells) == max_cells:
            raise RoutingError("geodesic walk is longer than the cell count")
        prev, cell = cell, nxt
        cells.append(cell)
    return cells


def _assemble(conn: Connection, cells: list[int], tess: Tessellation, dep: Deployment) -> Route:
    if len(set(cells)) != len(cells):
        raise RoutingError("route revisits a cell")
    relay = tess.relay_of_cell
    chain = [conn.source]
    for c in cells[1:-1]:
        if relay[c] < 0:
            raise RoutingError(f"route crosses empty cell {c}", cell=c)
        chain.append(int(relay[c]))
    chain.append(conn.destination)
    hops = geometry.surface_distance(dep.nodes[chain[:-1]], dep.nodes[chain[1:]])
    hops = np.atleast_1d(hops)
    route = Route(
        connection_id=conn.id,
        cells=cells,
        relays=chain,
        hop_lengths=hops,
        length=conn.length,
    )
    _assert_route_invariants(route, tess)
    return route


def _assert_route_invariants(route: Route, tess: Tessellation) -> None:
    limit = MAX_HOP_FACTOR * tess.rho_n
    if np.any(route.hop_lengths <= 0.0):
        raise GeometryError("a hop's transmitter and receiver are co-located")
    if np.any(route.hop_lengths > limit + 1e-12):
        raise AssertionError("hop longer than 8*rho_n")
    if route.path_length < route.length - 1e-9:
        raise AssertionError("total path length shorter than the geodesic")


def straight_line_route(conn: Connection, dep: Deployment, tess: Tessellation) -> Route:
    """Route through every cell the source-destination geodesic crosses."""
    a, b = dep.nodes[conn.source], dep.nodes[conn.destination]
    theta = float(geometry.central_angle(a, b))
    if theta == 0.0:
        raise GeometryError("co-located endpoints cannot be routed")
    if theta > math.pi - 1e-9:
        raise GeometryError("antipodal endpoints cannot be routed")
    return _assemble(conn, _crossed_cells(tess, a, b, theta), tess, dep)


def _bfs_cells(tess: Tessellation, start: int, goal: int) -> list[int]:
    if start == goal:
        return [start]
    prev = {start: -1}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for d in tess.neighbors[c]:
            d = int(d)
            if d not in prev:
                prev[d] = c
                if d == goal:
                    path = [d]
                    while path[-1] != start:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(d)
    raise RoutingError(f"no adjacency path from cell {start} to cell {goal}")


def _loop_erase(path: list[int]) -> list[int]:
    out: list[int] = []
    index: dict[int, int] = {}
    for c in path:
        if c in index:
            del_from = index[c] + 1
            for dropped in out[del_from:]:
                del index[dropped]
            out = out[:del_from]
        else:
            index[c] = len(out)
            out.append(c)
    return out


def _random_walk_cells(
    tess: Tessellation, start: int, goal: int, rng: np.random.Generator
) -> list[int]:
    max_steps = 60 * tess.num_cells + 100
    path = [start]
    c = start
    for _ in range(max_steps):
        if c == goal:
            return _loop_erase(path)
        nbrs = tess.neighbors[c]
        if len(nbrs) == 0:
            raise RoutingError(f"cell {c} has no neighbors")
        c = int(nbrs[rng.integers(len(nbrs))])
        path.append(c)
    raise RoutingError("random walk failed to reach the destination cell")


def _detour_cells(
    tess: Tessellation, start: int, goal: int, kappa: float, rng: np.random.Generator
) -> list[int]:
    base = _bfs_cells(tess, start, goal)
    base_len = _cells_path_length(base, tess)
    for _ in range(40):
        w = int(rng.integers(tess.num_cells))
        if w == start or w == goal:
            continue
        try:
            cells = _loop_erase(_bfs_cells(tess, start, w) + _bfs_cells(tess, w, goal)[1:])
        except RoutingError:
            continue
        if _cells_path_length(cells, tess) <= kappa * base_len:
            return cells
    return base


def _cells_path_length(cells: list[int], tess: Tessellation) -> float:
    if len(cells) < 2:
        return 0.0
    centers = tess.centers[cells]
    return float(np.sum(geometry.surface_distance(centers[:-1], centers[1:])))


def detour_factor(strategy: str) -> float | None:
    """The ``kappa`` of a ``detour:<kappa>`` strategy; None for a strategy in
    ``STRATEGIES``.  Any other name is a configuration error."""
    if strategy in STRATEGIES:
        return None
    if strategy.startswith("detour:"):
        try:
            kappa = float(strategy.split(":", 1)[1])
        except ValueError:
            kappa = math.nan
        if kappa >= 1.0:
            return kappa
        raise ConfigurationError(f"detour factor must be a number >= 1 in {strategy!r}")
    raise ConfigurationError(
        f"unknown routing strategy {strategy!r}; expected one of {STRATEGIES} "
        "or detour:<kappa>"
    )


def arbitrary_route(
    conn: Connection, dep: Deployment, tess: Tessellation, strategy: str, seed: int = 0
) -> Route:
    """Route under the adjacency-hops / no-revisit constraints.

    Strategies: ``shortest_cell_path`` (BFS over cell adjacency),
    ``random_walk_loop_erased``, or ``detour:<kappa>`` which accepts a random
    waypoint only while the cell-path length stays within ``kappa`` times the
    BFS path length.
    """
    kappa = detour_factor(strategy)
    rng = np.random.default_rng(seed)
    start = int(tess.cell_of_node[conn.source])
    goal = int(tess.cell_of_node[conn.destination])
    if kappa is not None:
        cells = _detour_cells(tess, start, goal, kappa, rng)
    elif strategy == "shortest_cell_path":
        cells = _bfs_cells(tess, start, goal)
    elif strategy == "random_walk_loop_erased":
        cells = _random_walk_cells(tess, start, goal, rng)
    else:
        raise ConfigurationError(f"{strategy!r} is not an arbitrary routing strategy")
    return _assemble(conn, cells, tess, dep)


def build_route(
    conn: Connection,
    dep: Deployment,
    tess: Tessellation,
    strategy: str = "straight_line",
    seed: int = 0,
) -> Route:
    if strategy == "straight_line":
        return straight_line_route(conn, dep, tess)
    return arbitrary_route(conn, dep, tess, strategy, seed=seed)


def write_routes(routes: list[Route], path) -> None:
    """Per-connection cell/relay/hop-length listing as plain text."""
    with open(path, "w") as fh:
        fh.write("# adhocsim routes v1\n")
        for r in sorted(routes, key=lambda r: r.connection_id):
            cells = ",".join(str(c) for c in r.cells)
            relays = ",".join(str(x) for x in r.relays)
            hops = ",".join(repr(float(h)) for h in r.hop_lengths)
            fh.write(
                f"route {r.connection_id} L={r.length!r} Lhat={r.path_length!r} "
                f"cells={cells} relays={relays} hops={hops}\n"
            )
