"""Route construction: cell paths (``cell_paths``), then every route as the
one table of columns that is read (``route_table``), then each route's
``Route`` record (``build_route``).

A set of connections is four columns in ascending id, as
``pick_connections`` makes them: ids, sources, destinations and geodesic
source-destination lengths.

A route visits a sequence of pairwise-distinct cells in which consecutive
cells are adjacent, and relays its packets along a node chain whose first
entry is the source and last entry is the destination; interior entries
are each cell's relay node.  Hop ``h`` transmits from ``relays[h]`` (a
node of ``cells[h]``) to ``relays[h+1]``.  A source and destination that
share a cell make a single intra-cell hop, so the hop count is always at
least one.

``route_table`` works on flat arrays, with no loop over routes: relays are
gathered by index and the route invariants are checked as arrays.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain

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


@dataclass
class Route:
    connection_id: int
    cells: list[int]  # distinct cells crossed, in order
    relays: list[int]  # node chain, len = hop count + 1
    hop_lengths: np.ndarray
    length: float  # geodesic source-destination distance
    path_length: float  # sum of hop lengths

    @property
    def hop_count(self) -> int:
        return len(self.hop_lengths)


@dataclass(frozen=True)
class RouteTable:
    """Routes as columns, in ascending connection id.  Per route: connection
    id, geodesic ``length`` and ``path_length``.  Per hop, flat (route ``k``'s
    hops are ``offsets[k]:offsets[k + 1]``): cell, transmitter, receiver,
    next cell (-1 after the route's last hop), length and link.  Hops with
    equal transmitter, receiver and next cell are one link, named by its
    first hop: ``link[h] <= h`` and ``link[link] == link``."""

    connection_ids: np.ndarray
    length: np.ndarray
    path_length: np.ndarray
    offsets: np.ndarray  # (routes + 1,)
    cell: np.ndarray
    tx: np.ndarray
    rx: np.ndarray
    next_cell: np.ndarray
    hop_length: np.ndarray
    link: np.ndarray

    def __len__(self) -> int:
        return len(self.connection_ids)

    @property
    def hop_count(self) -> np.ndarray:
        return np.diff(self.offsets)

    def as_lists(self) -> tuple:
        """The columns ``build_route`` reads, converted once: lists, but the
        hop lengths stay one array."""
        return (self.connection_ids.tolist(), self.offsets.tolist(), self.tx.tolist(),
                self.rx.tolist(), self.hop_length, self.length.tolist(),
                self.path_length.tolist())


def route_table(
    connections: tuple[np.ndarray, ...], paths: list[list[int]], dep: Deployment,
    tess: Tessellation,
) -> RouteTable:
    """The one ``RouteTable`` of ``connections`` through their cell ``paths``,
    in the same order.  Hop ``h`` is sent from the path's ``h``-th cell, by
    the source at ``h = 0``, else by the cell's relay; one ``surface_distance``
    call measures each link (``RouteTable``) at its first hop.

    Ids that do not ascend are a configuration error.  Of the connections
    that break a route invariant, the one with the lowest id is reported,
    with the first invariant it breaks (``broken`` lists them in order).
    """
    ids, src, dst, length = connections
    if np.any(ids[1:] <= ids[:-1]):
        k = int(np.argmax(ids[1:] <= ids[:-1]))
        raise ConfigurationError(f"connection ids must ascend: {ids[k + 1]} follows {ids[k]}")
    sizes = np.fromiter(map(len, paths), np.int64, len(paths))
    cells = np.fromiter(chain.from_iterable(paths), np.int64, int(sizes.sum()))
    counts = np.maximum(sizes - 1, 1)  # a one-cell path is one hop
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    hops, first, last = int(offsets[-1]), offsets[:-1], offsets[1:] - 1
    # Hop j of route k lies in its path's cell j: flat position start_k + j.
    route_of_hop = np.repeat(np.arange(len(paths)), counts)
    cell = cells[np.arange(hops) + (np.cumsum(sizes) - sizes - first)[route_of_hop]]
    next_cell = np.full(hops, -1, dtype=np.int64)  # the next hop's cell; -1 after a route's last
    next_cell[:-1] = cell[1:]
    next_cell[last] = -1
    relay = tess.relay_of_cell
    tx, rx = relay[cell], relay[next_cell]
    tx[first], rx[last] = src, dst
    # Next cell is -1 or the cell that rx relays for, so a link is (tx, rx, last
    # hop or not); the key is injective, also on an empty cell's relay -1.
    key = ((tx + 1) * (dep.n + 1) + rx + 1) * 2 + (next_cell < 0)
    order = np.argsort(key)
    new = np.ones(hops, dtype=bool)
    new[1:] = key[order[1:]] != key[order[:-1]]
    rank = np.cumsum(new) - 1  # per hop in key order, its link's rank
    heads = np.minimum.reduceat(order, np.flatnonzero(new))  # per link, its first hop
    link, hop_length = np.empty(hops, dtype=np.int64), np.empty(hops)
    link[order] = heads[rank]
    hop_length[order] = geometry.surface_distance(dep.nodes[tx[heads]],
                                                  dep.nodes[rx[heads]])[rank]

    path_length = _segment_sums(hop_length, offsets)
    revisits = np.zeros(len(paths), dtype=bool)
    keys = np.sort(np.repeat(np.arange(len(paths)), sizes) * tess.num_cells + cells)
    revisits[keys[1:][keys[1:] == keys[:-1]] // tess.num_cells] = True
    empty = np.zeros(len(paths), dtype=bool)
    empty[route_of_hop[tx < 0]] = True
    broken = [  # per invariant, in the order checked: the routes that break it
        (src == dst, ConfigurationError, "source and destination must differ"),
        (revisits, RoutingError, "route revisits a cell"),
        (empty, RoutingError, "route crosses empty cell"),
        (np.minimum.reduceat(hop_length, first) <= 0.0, GeometryError,
         "a hop's endpoints are co-located"),
        (np.maximum.reduceat(hop_length, first) > MAX_HOP_FACTOR * tess.rho_n + 1e-12,
         AssertionError, "hop longer than 8*rho_n"),
        (path_length < length - 1e-9, AssertionError,
         "total path length shorter than the geodesic"),
    ]
    bad = np.flatnonzero(np.logical_or.reduce([flags for flags, _, _ in broken]))
    if len(bad):
        k = int(bad[0])
        flags, error, message = next(check for check in broken if check[0][k])
        if flags is empty:  # name the first empty cell
            c = int(cell[first[k] + np.argmax(tx[first[k]:last[k] + 1] < 0)])
            raise RoutingError(f"connection {ids[k]}: {message} {c}", cell=c)
        raise error(f"connection {ids[k]}: {message}")
    return RouteTable(
        connection_ids=ids, length=length, path_length=path_length, offsets=offsets,
        cell=cell, tx=tx, rx=rx, next_cell=next_cell, hop_length=hop_length, link=link,
    )


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The sum of each segment ``values[offsets[k]:offsets[k + 1]]`` (none
    empty), bit for bit each view's ``.sum()``: the segments of one length
    are the rows of one matrix, and numpy sums a contiguous row as it sums
    a view of the same length."""
    counts = np.diff(offsets)
    sums = np.empty(len(counts))
    for h in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == h)
        sums[rows] = values[offsets[rows, None] + np.arange(h)].sum(axis=1)
    return sums


def pick_connections(dep: Deployment, seed: int) -> tuple[np.ndarray, ...]:
    """One connection per node, as columns (module docstring): connection
    ``i`` starts at node ``i``, and its destination is uniform over the
    other nodes."""
    if dep.n < 2:
        raise ConfigurationError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    offsets = rng.integers(1, dep.n, size=dep.n)
    dests = (np.arange(dep.n) + offsets) % dep.n
    lengths = geometry.surface_distance(dep.nodes, dep.nodes[dests])
    return np.arange(dep.n), np.arange(dep.n), dests, lengths


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
    connections: tuple[np.ndarray, ...],
    dep: Deployment,
    tess: Tessellation,
    strategy: str = "straight_line",
    seed: int = 0,
) -> list[list[int]]:
    """Each connection's cell path under ``strategy``, in the order of the
    ``connections`` columns; ``route_table`` makes the routes.
    ``straight_line`` walks all geodesics at once.  The arbitrary strategies
    keep only the adjacency-hops / no-revisit constraints, per connection
    with a generator seeded ``seed`` plus its id: ``shortest_cell_path``
    (BFS over cell adjacency), ``random_walk_loop_erased``, or
    ``detour:<kappa>``, which accepts a random waypoint only while the
    cell-path length stays within ``kappa`` times the BFS path length.
    """
    kappa = detour_factor(strategy)
    ids, src, dst, _ = connections
    start, goal = tess.cell_of_node[src], tess.cell_of_node[dst]  # the endpoints' cells
    if strategy == "straight_line":
        a, b = dep.nodes[src], dep.nodes[dst]
        theta = geometry.central_angle(a, b)
        bad = (theta == 0.0) | (theta > math.pi - 1e-9)
        if bad.any():
            k = int(np.argmax(bad))
            what = "co-located" if theta[k] == 0.0 else "antipodal"
            raise GeometryError(f"connection {ids[k]}: {what} endpoints cannot be routed")
        return walk_geodesics(bisector_table(tess), a, b, theta, start, goal, ids)
    ends = list(zip(start.tolist(), goal.tolist()))
    if strategy == "shortest_cell_path":
        return [_bfs_cells(tess, s, g) for s, g in ends]
    rngs = (np.random.default_rng(seed + cid) for cid in ids.tolist())
    if kappa is not None:
        return [_detour_cells(tess, s, g, kappa, rng) for (s, g), rng in zip(ends, rngs)]
    return [_random_walk_cells(tess, s, g, rng) for (s, g), rng in zip(ends, rngs)]


def build_route(k: int, cells: list[int], columns: tuple) -> Route:
    """Route ``k`` of a route table, through ``cells``, from the table's
    ``as_lists()``; it makes no numpy call."""
    ids, offsets, tx, rx, hop_length, length, path_length = columns
    i, j = offsets[k], offsets[k + 1]
    return Route(ids[k], cells, tx[i:j] + rx[j - 1:j], hop_length[i:j], length[k], path_length[k])


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
