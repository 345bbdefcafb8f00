"""Route construction: cell paths (``cell_paths``), then every relay chain and
hop length in one pass (``relay_chains``), then each route (``build_route``),
and all routes as the one table of columns that is read (``route_table``).

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
from itertools import accumulate, chain

import numpy as np

from . import geometry
from .errors import ConfigurationError, GeometryError, RoutingError
from .tessellation import Deployment, Tessellation

MAX_HOP_FACTOR = 8.0  # hop length never exceeds 8*rho_n under adjacency
_HALF_PI = 0.5 * math.pi
_PHI_SLACK = 1e-12  # rounding allowance, in radians, on a bisector crossing
_RECHECK = 1e-9  # a step decided closer than this is re-decided with libm's atan2
_atan2 = np.frompyfunc(math.atan2, 2, 1)
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
        self.path_length = float(self.hop_lengths.sum())

    @property
    def hop_count(self) -> int:
        return len(self.hop_lengths)


@dataclass(frozen=True)
class RouteTable:
    """Routes as columns, in ascending connection id.  Per route: connection
    id, geodesic ``length`` and ``path_length``.  Per hop, flat (route ``k``'s
    hops are ``offsets[k]:offsets[k + 1]``): cell, transmitter, receiver,
    next cell (-1 after the route's last hop) and length."""

    connection_ids: np.ndarray
    length: np.ndarray
    path_length: np.ndarray
    offsets: np.ndarray  # (routes + 1,)
    cell: np.ndarray
    tx: np.ndarray
    rx: np.ndarray
    next_cell: np.ndarray
    hop_length: np.ndarray

    def __len__(self) -> int:
        return len(self.connection_ids)

    @property
    def hop_count(self) -> np.ndarray:
        return np.diff(self.offsets)


def route_table(routes: list[Route]) -> RouteTable:
    """The one ``RouteTable`` of ``routes``, given in any order."""
    routes = sorted(routes, key=lambda r: r.connection_id)
    counts = np.fromiter((r.hop_count for r in routes), np.int64, len(routes))
    offsets = np.zeros(len(routes) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    hops = int(offsets[-1])
    cell = np.fromiter(chain.from_iterable(r.cells[:r.hop_count] for r in routes),
                       np.int64, hops)
    next_cell = np.full(hops, -1, dtype=np.int64)  # the next hop's cell; -1 after a route's last
    next_cell[:-1] = cell[1:]
    next_cell[offsets[1:] - 1] = -1
    # The relay chains end to end: hop h of route k sends from entry h + k.
    relays = np.fromiter(chain.from_iterable(r.relays for r in routes), np.int64,
                         hops + len(routes))
    sender = np.arange(hops) + np.repeat(np.arange(len(routes)), counts)
    return RouteTable(
        connection_ids=np.fromiter((r.connection_id for r in routes), np.int64, len(routes)),
        length=np.fromiter((r.length for r in routes), float, len(routes)),
        path_length=np.fromiter((r.path_length for r in routes), float, len(routes)),
        offsets=offsets, cell=cell, tx=relays[sender], rx=relays[sender + 1],
        next_cell=next_cell,
        hop_length=np.concatenate([r.hop_lengths for r in routes]) if routes else np.empty(0),
    )


def pick_connections(dep: Deployment, seed: int) -> list[Connection]:
    """One connection per node; destination uniform over the other nodes."""
    if dep.n < 2:
        raise ConfigurationError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    offsets = rng.integers(1, dep.n, size=dep.n)
    dests = (np.arange(dep.n) + offsets) % dep.n
    lengths = geometry.surface_distance(dep.nodes, dep.nodes[dests])
    return [
        Connection(id=i, source=i, destination=d, length=length)
        for i, (d, length) in enumerate(zip(dests.tolist(), lengths.tolist()))
    ]


def bisector_table(tess: Tessellation) -> tuple[np.ndarray, np.ndarray]:
    """Per cell ``i``, its neighbors ``j`` padded with -1 to the largest
    degree ``D``, shape ``(m, D)``, and the normals ``c_i - c_j`` of the
    bisector planes that bound cell ``i``, shape ``(m, D, 3)``."""
    width = max(map(len, tess.neighbors), default=0)
    nbrs = np.full((tess.num_cells, width), -1, dtype=np.int64)
    for i, row in enumerate(tess.neighbors):
        nbrs[i, : len(row)] = row
    return nbrs, tess.centers[:, None, :] - tess.centers[nbrs]


def walk_geodesics(table, a, b, theta, start, end, ids) -> list[list[int]]:
    """Cells whose region each minor arc from ``a[k]`` to ``b[k]`` crosses,
    in order, for all arcs at once.

    Walks the Voronoi bisectors exactly.  On the arc
    ``x(phi) = (sin(theta - phi) a + sin(phi) b) / sin(theta)``, with ``theta``
    the central angle from a to b, ``x(phi).(c_i - c_j)`` is a positive
    multiple of ``P cos(phi) + Q sin(phi)`` with ``P = sin(theta) a.w`` and
    ``Q = b.w - cos(theta) a.w`` for ``w = c_i - c_j``.  The arc therefore
    leaves cell i across its bisector with j at ``phi = atan2(Q, P) + pi/2``,
    and enters the neighbor whose bisector it crosses first (the first in
    table order on a tie); the cell just left is not a candidate.  The
    4*rho_n neighbor lists hold every Voronoi neighbor because the covering
    radius is at most 2*rho_n.

    ``table`` is ``bisector_table``'s pair; each step gathers its rows for
    the walks still running.  The walk is libm's: ``sin`` and ``cos`` are
    libm's, and so is every ``atan2`` that decides a step.  A step computes
    its crossings with numpy's ``atan2``, whose last bits may differ from
    libm's, and recomputes a row with libm's only where a decision lies
    within ``_RECHECK`` of flipping: a candidate against the start-point
    cut, the runner-up against the minimum, the minimum against the arc's
    end.  Elsewhere the two agree on every decision.  A walk
    that leaves a cell beyond its arc's end, or grows as long as the cell
    count, raises ``RoutingError`` naming its arc's id from ``ids``.
    """
    nbrs, normals = table
    sin_t = np.array([math.sin(t) for t in theta.tolist()])
    cos_t = np.array([math.cos(t) for t in theta.tolist()])
    cell = np.array(start, dtype=np.int64)
    prev = np.full(len(cell), -1, dtype=np.int64)
    paths = [[c] for c in cell.tolist()]
    walking = np.flatnonzero(cell != end)
    while len(walking):
        here = cell[walking]
        j, w = nbrs[here], normals[here]
        u, v = a[walking, :, None], b[walking, :, None]
        wx, wy, wz = w[..., 0], w[..., 1], w[..., 2]
        aw = u[:, 0] * wx + u[:, 1] * wy + u[:, 2] * wz
        q = v[:, 0] * wx + v[:, 1] * wy + v[:, 2] * wz - cos_t[walking, None] * aw
        p = sin_t[walking, None] * aw
        candidate = (j >= 0) & (j != prev[walking, None])
        raw = np.where(candidate, np.arctan2(q, p) + _HALF_PI, math.inf)
        phi = _crossings(raw)
        rows = np.arange(len(walking))
        pick = np.argmin(phi, axis=1)
        exit_phi = phi[rows, pick]
        # rows with a decision near flipping (docstring) are re-decided by libm
        phi[rows, pick] = math.inf  # leaves the runner-up as the row minimum
        near = (np.abs(raw + _PHI_SLACK) <= _RECHECK).any(axis=1)
        near |= phi.min(axis=1) - exit_phi <= _RECHECK
        near |= np.abs(exit_phi - (theta[walking] + _PHI_SLACK)) <= _RECHECK
        redo = np.flatnonzero(near)
        if len(redo):
            exact = np.full((len(redo), j.shape[1]), math.inf)
            mask = candidate[redo]
            exact[mask] = _atan2(q[redo][mask], p[redo][mask]).astype(float) + _HALF_PI
            exact = _crossings(exact)
            pick[redo] = np.argmin(exact, axis=1)
            exit_phi[redo] = exact[np.arange(len(redo)), pick[redo]]
        nxt = j[rows, pick]
        over = np.flatnonzero(exit_phi > theta[walking] + _PHI_SLACK)
        if len(over):
            k, c = walking[over[0]], int(here[over[0]])
            raise RoutingError(
                f"connection {ids[k]}: geodesic walk left cell {c} beyond the arc's end", cell=c
            )
        if len(paths[walking[0]]) == len(nbrs):  # every running walk is as long
            raise RoutingError(
                f"connection {ids[walking[0]]}: geodesic walk is longer than the cell count"
            )
        prev[walking], cell[walking] = cell[walking], nxt
        for k, c in zip(walking.tolist(), nxt.tolist()):
            paths[k].append(c)
        walking = walking[nxt != end[walking]]
    return paths


def _crossings(phi: np.ndarray) -> np.ndarray:
    """``phi`` with every crossing behind the start point set to inf; a
    crossing rounded to just below 0 lies at the start point."""
    return np.where(phi < -_PHI_SLACK, math.inf, phi)


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


def cell_paths(
    connections: list[Connection],
    dep: Deployment,
    tess: Tessellation,
    strategy: str = "straight_line",
    seed: int = 0,
) -> list[list[int]]:
    """Each connection's cell path under ``strategy``, in order; ``relay_chains``
    and ``build_route`` make the routes.  ``straight_line`` walks all geodesics at once.
    The arbitrary strategies keep only the adjacency-hops / no-revisit
    constraints, per connection with a generator seeded ``seed + conn.id``:
    ``shortest_cell_path`` (BFS over cell adjacency), ``random_walk_loop_erased``,
    or ``detour:<kappa>``, which accepts a random waypoint only while the
    cell-path length stays within ``kappa`` times the BFS path length.
    """
    kappa = detour_factor(strategy)
    if strategy == "straight_line":
        src = np.array([c.source for c in connections], dtype=np.int64)
        dst = np.array([c.destination for c in connections], dtype=np.int64)
        a, b = dep.nodes[src], dep.nodes[dst]
        theta = geometry.central_angle(a, b)
        bad = (theta == 0.0) | (theta > math.pi - 1e-9)
        if bad.any():
            k = int(np.argmax(bad))
            what = "co-located" if theta[k] == 0.0 else "antipodal"
            raise GeometryError(
                f"connection {connections[k].id}: {what} endpoints cannot be routed"
            )
        ids = [c.id for c in connections]
        cells = tess.cell_of_node  # the end cells are the endpoints' cells
        return walk_geodesics(bisector_table(tess), a, b, theta, cells[src], cells[dst], ids)
    paths = []
    for conn in connections:
        rng = np.random.default_rng(seed + conn.id)
        start = int(tess.cell_of_node[conn.source])
        goal = int(tess.cell_of_node[conn.destination])
        if kappa is not None:
            paths.append(_detour_cells(tess, start, goal, kappa, rng))
        elif strategy == "shortest_cell_path":
            paths.append(_bfs_cells(tess, start, goal))
        else:
            paths.append(_random_walk_cells(tess, start, goal, rng))
    return paths


def relay_chains(
    connections: list[Connection], paths: list[list[int]], dep: Deployment, tess: Tessellation
) -> tuple[list[list[int]], list[np.ndarray]]:
    """Per connection, the relay chain through its path (-1 at an empty cell)
    and the hop lengths, views of one flat array measured in one pass."""
    relay = tess.relay_of_cell.tolist()
    chains = [[conn.source, *[relay[c] for c in cells[1:-1]], conn.destination]
              for conn, cells in zip(connections, paths)]
    tx = [x for chain in chains for x in chain[:-1]]
    rx = [x for chain in chains for x in chain[1:]]
    flat = geometry.surface_distance(dep.nodes[tx], dep.nodes[rx])
    ends = list(accumulate((len(chain) - 1 for chain in chains), initial=0))
    return chains, [flat[i:j] for i, j in zip(ends, ends[1:])]


def build_route(
    conn: Connection, cells: list[int], chain: list[int], hops: np.ndarray, rho_n: float
) -> Route:
    """The route through ``cells`` along ``chain``.  Called per connection in
    order, it reports the first connection that breaks a route invariant."""
    if len(set(cells)) != len(cells):
        raise RoutingError(f"connection {conn.id}: route revisits a cell")
    if -1 in chain:
        c = cells[chain.index(-1)]
        raise RoutingError(f"connection {conn.id}: route crosses empty cell {c}", cell=c)
    route = Route(conn.id, cells, chain, hops, conn.length)
    lengths = hops.tolist()  # min and max of a short list are cheaper in Python
    if min(lengths) <= 0.0:
        raise GeometryError(f"connection {conn.id}: a hop's endpoints are co-located")
    if max(lengths) > MAX_HOP_FACTOR * rho_n + 1e-12:
        raise AssertionError(f"connection {conn.id}: hop longer than 8*rho_n")
    if route.path_length < conn.length - 1e-9:
        raise AssertionError(f"connection {conn.id}: total path length shorter than the geodesic")
    return route


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
