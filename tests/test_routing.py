import math
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adhocsim import experiment, geometry, links, routing, tessellation
from adhocsim.errors import ConfigurationError, GeometryError, RoutingError
from conftest import assemble, connections, rows, take


def straight(conns, dep, tess):
    """The straight route of the one connection of the columns ``conns``."""
    return assemble(conns, routing.cell_paths(conns, dep, tess), dep, tess)[0]


class TestPickConnections:
    def test_one_per_node_no_self_loops(self, small_instance):
        dep, _, _, conns, _, _ = small_instance
        ids, src, dst, _ = conns
        assert ids.tolist() == src.tolist() == list(range(dep.n))
        assert np.all(src != dst)
        assert [column.dtype for column in conns] == [np.int64] * 3 + [np.float64]

    def test_deterministic(self, small_instance):
        dep, _, _, conns, _, _ = small_instance
        again = routing.pick_connections(dep, 45)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(conns, again, strict=True))

    def test_length_matches_distance(self, small_instance):
        dep, _, _, conns, _, _ = small_instance
        for _, src, dst, length in rows(take(conns, slice(50))):
            assert length == pytest.approx(
                float(geometry.surface_distance(dep.nodes[src], dep.nodes[dst]))
            )

    def test_length_distribution_matches_closed_form(self):
        dep = tessellation.deploy(100_000, 21)
        lengths = np.sort(routing.pick_connections(dep, 22)[3])
        n = len(lengths)
        cdf = geometry.distance_cdf(lengths)
        ks = max(
            np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)
        )
        # 1.9495 is the Kolmogorov distribution's upper 0.1 % point
        assert ks * math.sqrt(n) < 1.9495


class TestStraightLineRoutes:
    def test_same_cell_pair_is_one_hop(self, small_instance):
        dep, tess, _, _, _, _ = small_instance
        cell = int(np.argmax(tess.occupancy()))
        src, dst = np.flatnonzero(tess.cell_of_node == cell)[:2].tolist()
        length = float(geometry.surface_distance(dep.nodes[src], dep.nodes[dst]))
        route = straight(connections((0, src, dst, length)), dep, tess)
        assert route.cells == [cell]
        assert route.hop_count == 1
        assert route.relays == [src, dst]

    def test_consecutive_cells_adjacent_and_distinct(self, small_instance):
        _, tess, _, _, routes, _ = small_instance
        for r in routes:
            assert len(set(r.cells)) == len(r.cells)
            for a, b in zip(r.cells, r.cells[1:]):
                assert b in set(tess.neighbors[a].tolist())

    def test_hop_lengths_below_eight_rho(self, small_instance):
        _, tess, _, _, routes, _ = small_instance
        for r in routes:
            assert np.all(r.hop_lengths <= 8 * tess.rho_n * (1 + 1e-9))

    def test_hop_count_within_exact_bounds(self, small_instance):
        _, tess, _, _, routes, _ = small_instance
        rho = tess.rho_n
        for r in routes:
            lower = max(r.length / (8 * rho), 1.0)
            upper = 16 * (r.length + 8 * rho) / (math.pi * rho)
            assert lower <= r.hop_count <= upper

    def test_path_at_least_geodesic(self, small_instance):
        _, _, _, _, routes, _ = small_instance
        for r in routes:
            assert r.path_length >= r.length - 1e-9

    def test_endpoints_are_actual_nodes(self, small_instance):
        _, _, _, (_, src, dst, _), routes, _ = small_instance
        assert [r.relays[0] for r in routes] == src.tolist()
        assert [r.relays[-1] for r in routes] == dst.tolist()

    def test_relays_live_in_their_cells(self, small_instance):
        dep, tess, _, _, routes, _ = small_instance
        for r in routes[:200]:
            if len(r.cells) < 2:
                continue
            for cell, relay in zip(r.cells[1:-1], r.relays[1:-1]):
                assert tess.cell_of_node[relay] == cell

    def test_empty_cell_raises_with_cell_id(self):
        # The first cell of the path that sends a hop and holds no relay is
        # named; the empty cells' relays (-1) do not change which one.
        dep = tessellation.deploy(40, 3)
        rho = tessellation.rho_for_n(2000, 1.2)
        tess = tessellation.build_tessellation(dep, rho, 4)
        conns = routing.pick_connections(dep, 5)
        one = take(conns, [np.argmax(conns[3])])
        (cells,) = routing.cell_paths(one, dep, tess)
        empty = [c for c in cells[1:-1] if tess.relay_of_cell[c] < 0]
        assert len(empty) >= 2
        match = f"^connection {one[0][0]}: route crosses empty cell {empty[0]}$"
        with pytest.raises(RoutingError, match=match) as err:
            routing.route_table(one, [cells], dep, tess)
        assert err.value.cell == empty[0]


    def test_colocated_rejected(self, small_instance):
        dep, tess, _, _, _, _ = small_instance
        nodes = dep.nodes.copy()
        nodes[1] = nodes[0]
        twin = tessellation.Deployment(seed=dep.seed, nodes=nodes)
        with pytest.raises(GeometryError):
            routing.cell_paths(connections((0, 0, 1, 0.0)), twin, tess)


def assert_walk_covers_arc(tess, a, b, walk, lo, hi, count, depth=3):
    """``walk`` holds, in order, every cell the arc from a to b crosses over
    the arclengths [lo, hi], and, to the resolution of ``depth`` levels of
    sampling, no other cell.

    The cells of ``count`` evenly spaced samples form a subsequence of
    ``walk`` with its first and last cell.  A walk cell the samples miss
    lies between two consecutive samples, so the arc crosses it over less
    than one sampling step; sampling that stretch ``count`` times more finely
    must find it, down to ``depth`` levels."""
    s = np.linspace(lo, hi, count)
    nearest = np.argmax(geometry.geodesic_arc(a, b, s) @ tess.centers.T, axis=1).tolist()
    runs = [0] + [i for i in range(1, count) if nearest[i] != nearest[i - 1]]
    pos = [walk.index(nearest[i]) for i in runs]  # ValueError: the walk skipped a cell
    assert pos[0] == 0 and pos[-1] == len(walk) - 1
    assert all(p < q for p, q in zip(pos, pos[1:]))
    for k in range(1, len(runs)):
        if pos[k] > pos[k - 1] + 1 and depth > 1:
            i = runs[k]
            assert_walk_covers_arc(
                tess, a, b, walk[pos[k - 1]:pos[k] + 1], s[i - 1], s[i], count, depth - 1
            )


directions = hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) > 0.1
)


def unit(v):
    return v / np.linalg.norm(v)


# Arcs between two random directions, and short ones from a direction to a
# nearby point: within one cell or across a few (a cell's radius is at most
# 2*rho_n, 0.45 rad at n = 600).
arcs = st.one_of(
    st.tuples(directions.map(unit), directions.map(unit)),
    st.builds(
        lambda v, d, s: (unit(v), unit(unit(v) + s * unit(d))),
        directions, directions, st.floats(1e-6, 1.0),
    ),
).filter(lambda ab: 1e-9 < float(geometry.central_angle(*ab)) < math.pi - 1e-6)


def reference_walk(tess, a, b, theta):
    """The per-arc walk that ``routing.walk_geodesics`` batches, on plain
    floats: the scalar reference for the batch."""
    rows = [
        [(j, *w) for j, w in zip(nbrs.tolist(), (c - tess.centers[nbrs]).tolist())]
        for c, nbrs in zip(tess.centers, tess.neighbors)
    ]
    start = int(np.argmax(tess.centers @ a))
    end = int(np.argmax(tess.centers @ b))
    ax, ay, az = a.tolist()
    bx, by, bz = b.tolist()
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    cells = [start]
    prev, cell = -1, start
    while cell != end:
        exit_phi, nxt = math.inf, -1
        for j, wx, wy, wz in rows[cell]:
            if j == prev:
                continue
            aw = ax * wx + ay * wy + az * wz
            phi = math.atan2(bx * wx + by * wy + bz * wz - cos_t * aw, sin_t * aw) + math.pi / 2
            if -1e-12 <= phi < exit_phi:
                exit_phi, nxt = phi, j
        if exit_phi > theta + 1e-12:
            raise RoutingError("geodesic walk left cell beyond the arc's end", cell=cell)
        if len(cells) == tess.num_cells:
            raise RoutingError("geodesic walk is longer than the cell count")
        prev, cell = cell, nxt
        cells.append(cell)
    return cells


def walk_one(tess, a, b, theta):
    """``routing.walk_geodesics`` on the single arc from a to b."""
    ends = np.array([np.argmax(tess.centers @ a)]), np.array([np.argmax(tess.centers @ b)])
    return routing.walk_geodesics(
        routing.bisector_table(tess), a[None], b[None], np.array([theta]), *ends, [0]
    )[0]


def near_decision_arcs(near, dep, tess, routes):
    """Arcs whose walk meets a decision within 1e-9 of flipping, by kind:

    ``start_cut``: the arc starts 1e-11 inside a route's first cell, next to
    its bisector with the second, so it crosses it near the start-point cut.
    ``runner_up``: the arc runs from a cell's center through a Voronoi vertex
    of the cell, so two of its exits tie.
    ``arc_end``: the arc ends 1e-11 inside a cell, on its edge with a
    neighbor, and runs through that neighbor's center, so it leaves the
    neighbor at the arc's end.
    """
    def cell_of(x):
        return int(np.argmax(tess.centers @ x))

    if near == "start_cut":
        for route in routes:
            if len(route.cells) > 2:
                ci, cj = tess.centers[route.cells[:2]]
                a = unit(ci + cj + 1e-11 * (ci - cj))
                if cell_of(a) == route.cells[0]:  # not in a third cell
                    yield a, dep.nodes[route.relays[-1]]
    elif near == "runner_up":
        for i, nbrs in enumerate(tess.neighbors):
            for j, k in combinations(nbrs.tolist(), 2):
                ci, cj, ck = tess.centers[[i, j, k]]
                v = unit(np.cross(cj - ci, ck - ci))
                v = v if v @ ci > 0 else -v
                if np.count_nonzero(tess.centers @ v > v @ ci - 1e-9) == 3:  # a vertex
                    yield ci, unit(2 * v - ci)
    else:
        for route in routes:
            for x, y in zip(route.cells, route.cells[1:]):
                cx, cy = tess.centers[[x, y]]
                b = unit(cx + cy + 1e-11 * (cy - cx))
                if cell_of(b) == y and (tess.centers @ b).max() - cx @ b < 1e-9:  # on the edge
                    yield unit(2 * cx - cy), b


def walk_connection(table, dep, route):
    """``routing.walk_geodesics`` over ``table`` on the arc of ``route``'s
    connection."""
    a, b = dep.nodes[route.relays[:1]], dep.nodes[route.relays[-1:]]
    theta = np.array([route.length / geometry.RADIUS])
    ends = np.array(route.cells[:1]), np.array(route.cells[-1:])
    return routing.walk_geodesics(table, a, b, theta, *ends, [route.connection_id])


class TestExactWalk:
    @given(directions, directions)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_walk_holds_every_sampled_cell(self, small_instance, a, b):
        _, tess, _, _, _, _ = small_instance
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        theta = float(geometry.central_angle(a, b))
        assume(1e-9 < theta < math.pi - 1e-6)
        walk = walk_one(tess, a, b, theta)
        d = geometry.RADIUS * theta
        count = max(math.ceil(d / (tess.rho_n / 1000)) + 1, 2)
        assert_walk_covers_arc(tess, a, b, walk, 0.0, d, count)

    def test_cell_the_sampled_walk_skipped(self, small_instance):
        # The arc of connection 6 crosses cell 9 over 0.0041, less than the
        # rho_n/10 = 0.0064 step of the sampled walk this one replaced, which
        # routed it through [19, 3, 31, 36, 15].
        dep, tess, _, conns, _, _ = small_instance
        route = straight(take(conns, [6]), dep, tess)
        assert route.cells == [19, 9, 3, 31, 36, 15]
        a, b = dep.nodes[route.relays[0]], dep.nodes[route.relays[-1]]
        assert_walk_covers_arc(tess, a, b, route.cells, 0.0, route.length, 10_001, depth=1)

    def test_near_antipodal_rejected(self, small_instance):
        dep, tess, _, _, _, _ = small_instance
        nodes = dep.nodes.copy()
        nodes[1] = -nodes[0] + 1e-12
        nodes[1] /= np.linalg.norm(nodes[1])
        twin = tessellation.Deployment(seed=dep.seed, nodes=nodes)
        with pytest.raises(GeometryError):
            routing.cell_paths(connections((0, 0, 1, geometry.MAX_DISTANCE)), twin, tess)

    def test_walk_past_the_arc_raises(self, small_instance):
        # Without the bisector into the end cell the walk would leave the
        # cell before it beyond the arc's end.
        dep, tess, _, _, routes, _ = small_instance
        route = next(r for r in routes if len(r.cells) > 2)
        last, end = route.cells[-2:]
        nbrs, normals = routing.bisector_table(tess)
        nbrs = nbrs.copy()
        nbrs[last][nbrs[last] == end] = -1
        with pytest.raises(RoutingError, match="beyond the arc"):
            walk_connection((nbrs, normals), dep, route)

    def test_cycling_walk_stops_at_the_cell_count(self, small_instance):
        # Bisector rows corrupted into a three-cell cycle, each crossed at
        # the start point, never reach the end cell.
        dep, tess, _, _, routes, _ = small_instance
        route = next(r for r in routes if len(r.cells) > 4)
        a, b = dep.nodes[route.relays[0]], dep.nodes[route.relays[-1]]
        w = (a @ b) * a - b
        i, j, k = route.cells[:3]
        nbrs = np.full((tess.num_cells, 1), -1)
        normals = np.zeros((tess.num_cells, 1, 3))
        for cell, nxt in ((i, j), (j, k), (k, i)):
            nbrs[cell], normals[cell] = nxt, w
        with pytest.raises(RoutingError, match="cell count"):
            walk_connection((nbrs, normals), dep, route)

    @pytest.mark.parametrize("near", ["start_cut", "runner_up", "arc_end"])
    def test_near_decisions_are_rechecked_with_libm(self, small_instance, monkeypatch, near):
        # Crafted arcs whose walk meets a decision within 1e-9 of flipping,
        # one kind per parameter (see near_decision_arcs).  numpy's atan2 may
        # not decide it the way libm's does: the walk must ask libm and still
        # take libm's walk.
        dep, tess, _, _, routes, _ = small_instance
        calls = []

        def counting_atan2(q, p):
            calls.append(len(q))
            return libm_atan2(q, p)

        libm_atan2 = routing._atan2
        monkeypatch.setattr(routing, "_atan2", counting_atan2)
        checked = 0
        for a, b in near_decision_arcs(near, dep, tess, routes):
            theta = float(geometry.central_angle(a, b))
            calls.clear()
            walk = walk_one(tess, a, b, theta)
            assert calls, (near, checked)  # a step was re-decided with libm
            assert walk == reference_walk(tess, a, b, theta)
            checked += 1
            if checked == 12:
                break
        assert checked == 12

    @given(st.lists(arcs, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_batch_matches_the_scalar_walk(self, small_instance, pairs):
        _, tess, _, _, _, _ = small_instance
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        theta = geometry.central_angle(a, b)
        start = np.array([np.argmax(tess.centers @ x) for x in a])
        end = np.array([np.argmax(tess.centers @ x) for x in b])
        walks = routing.walk_geodesics(
            routing.bisector_table(tess), a, b, theta, start, end, ids=range(len(pairs))
        )
        for k, walk in enumerate(walks):
            assert walk == reference_walk(tess, a[k], b[k], float(theta[k]))


def reference_assembly(src, dst, cells, dep, tess):
    """One route's relay chain, hop-length bytes and path length, measured
    route by route: the reference for ``routing.route_table``'s flat arrays."""
    chain = [src, *tess.relay_of_cell[cells[1:-1]].tolist(), dst]
    hops = geometry.surface_distance(dep.nodes[chain[:-1]], dep.nodes[chain[1:]])
    return chain, hops.tobytes(), float(hops.sum())


def reference_route(row, cells, dep, tess):
    """The route of connection ``row`` (id, source, destination, length)
    through ``cells``, assembled by the reference."""
    cid, src, dst, length = row
    chain, hops, path_length = reference_assembly(src, dst, cells, dep, tess)
    return routing.Route(cid, cells, chain, np.frombuffer(hops), length, path_length)


def assert_assembly_matches_reference(conns, paths, dep, tess):
    routes = assemble(conns, paths, dep, tess)
    for (cid, src, dst, _), cells, route in zip(rows(conns), paths, routes, strict=True):
        batched = route.relays, route.hop_lengths.tobytes(), route.path_length
        assert batched == reference_assembly(src, dst, cells, dep, tess), cid


def reference_hop_table(routes, radio):
    """The routes' hops, flat in the order given: per hop its cell,
    transmitter, receiver and next cell (-1 after a route's last hop) as
    lists, and its received power as an array, gathered route by route:
    the reference for ``routing.route_table``'s columns."""
    cells, tx, rx, next_cells = [], [], [], []
    for r in routes:
        cells += r.cells[:r.hop_count]
        tx += r.relays[:-1]
        rx += r.relays[1:]
        next_cells += [*r.cells[1:r.hop_count], -1]
    hops = np.concatenate([r.hop_lengths for r in routes]) if routes else np.empty(0)
    return cells, tx, rx, radio.tx_power * links.path_gain(hops, radio.alpha), next_cells


class TestRouteTable:
    @pytest.mark.parametrize("case", ["small_instance", "same_cell", "empty"])
    def test_columns_match_the_reference(self, small_instance, case):
        dep, tess, _, conns, _, paths = small_instance
        if case == "same_cell":  # connection 7 between two nodes of one cell
            cell = int(np.argmax(tess.occupancy()))
            src, dst = np.flatnonzero(tess.cell_of_node == cell)[:2].tolist()
            length = float(geometry.surface_distance(dep.nodes[src], dep.nodes[dst]))
            conns, paths = connections((7, src, dst, length)), [[cell]]
        elif case == "empty":
            conns, paths = connections(), []
        routes = [reference_route(row, cells, dep, tess) for row, cells in zip(rows(conns), paths)]
        radio = links.RadioParams()
        table = routing.route_table(conns, paths, dep, tess)
        cells, tx, rx, power, next_cells = reference_hop_table(routes, radio)
        assert [table.cell.tolist(), table.tx.tolist(), table.rx.tolist(),
                table.next_cell.tolist()] == [cells, tx, rx, next_cells]
        measured = radio.tx_power * links.path_gain(table.hop_length, radio.alpha)
        assert measured.tobytes() == power.tobytes()
        assert table.connection_ids.tolist() == [r.connection_id for r in routes]
        for column, name in ((table.length, "length"), (table.path_length, "path_length")):
            assert column.tobytes() == np.array([getattr(r, name) for r in routes]).tobytes()
        hop_counts = [r.hop_count for r in routes]
        assert table.offsets.tolist() == list(accumulate(hop_counts, initial=0))
        assert table.hop_count.tolist() == hop_counts and len(table) == len(routes)
        for column in (table.connection_ids, table.offsets, table.cell, table.tx, table.rx,
                       table.next_cell):
            assert column.dtype == np.int64

    @pytest.mark.parametrize("case", ["reversed", "repeated", "broken_descending"])
    def test_ids_that_do_not_ascend_are_rejected(self, small_instance, case):
        # The table's rows are the connections in the order given, so ids
        # that do not ascend are refused before any route is checked, even
        # when connections given out of order also break route invariants.
        dep, tess, _, conns, _, paths = small_instance
        batch, broken = take(conns, slice(8)), list(paths[:8])
        if case == "reversed":
            batch, broken = take(conns, slice(None, None, -1)), paths[::-1]
        elif case == "repeated":
            batch[0][5] = batch[0][4]
        else:
            batch[3][2] = 10.0  # connection 2's path is shorter than its geodesic
            broken[5] = broken[5] + broken[5][:1]  # connection 5 revisits a cell
            batch, broken = take(batch, slice(None, None, -1)), broken[::-1]
        with pytest.raises(ConfigurationError, match="^connection ids must ascend"):
            routing.route_table(batch, broken, dep, tess)


def assert_link_contract(table):
    """``table.link`` names each hop's link by the link's first hop: hops share
    a link exactly when their transmitter, receiver and next cell are equal,
    and their lengths are then equal bit for bit."""
    link, hops = table.link, np.arange(len(table.link))
    assert link.dtype == np.int64 and len(link) == len(table.cell)
    assert np.all(link <= hops) and np.array_equal(link[link], link)
    for column in (table.cell, table.tx, table.rx, table.next_cell):
        assert np.array_equal(column[link], column)
    assert table.hop_length[link].tobytes() == table.hop_length.tobytes()
    first_of = {}
    triples = zip(table.tx.tolist(), table.rx.tolist(), table.next_cell.tolist())
    assert link.tolist() == [first_of.setdefault(t, h) for h, t in enumerate(triples)]


class TestLinks:
    @pytest.mark.parametrize("strategy", [*routing.STRATEGIES, "detour:2.0", "empty"])
    def test_link_contract(self, small_instance, strategy):
        dep, tess, _, conns, _, paths = small_instance
        if strategy == "empty":
            conns, paths = connections(), []
        elif strategy != "straight_line":
            conns = take(conns, slice(150))
            paths = routing.cell_paths(conns, dep, tess, strategy, 9)
        table = routing.route_table(conns, paths, dep, tess)
        assert_link_contract(table)
        if paths:  # routes share relays
            assert len(np.unique(table.link)) < len(table.link)

    def test_a_destination_that_is_a_relay_is_its_own_link(self, small_instance):
        # Connection B goes from the relay of cell a to the relay of cell b,
        # both cells of route A, which hops from the one relay to the other.
        # The two hops join one pair of nodes, but A's packet goes on to cell
        # b's next hop and B's stays: they are two links.
        dep, tess, _, conns, _, paths = small_instance
        k = next(k for k, cells in enumerate(paths) if len(cells) >= 4)
        a, b = paths[k][1:3]  # A's hop 1 is interior: it goes on from cell b
        src, dst = tess.relay_of_cell[[a, b]].tolist()
        length = float(geometry.surface_distance(dep.nodes[src], dep.nodes[dst]))
        batch = connections(rows(take(conns, [k]))[0], (dep.n, src, dst, length))
        table = routing.route_table(batch, [paths[k], [a, b]], dep, tess)
        interior, last = 1, int(table.offsets[1])
        assert [table.tx[interior], table.rx[interior]] == [table.tx[last], table.rx[last]]
        assert [table.next_cell[interior], table.next_cell[last]] == [b, -1]
        assert table.link[[interior, last]].tolist() == [interior, last]
        assert_link_contract(table)


class TestBatchedAssembly:
    # sweep seeds of the benchmark's two panels: saturated_n4000 and lossy_n500
    @pytest.mark.parametrize("n, seed", [(4000, 0), (500, 0), (500, 10007)])
    def test_straight_routes_match_the_reference(self, n, seed):
        dep, tess = experiment.prepare_instance(n, seed, 1.2)
        conns = routing.pick_connections(dep, seed + 1)
        assert_assembly_matches_reference(conns, routing.cell_paths(conns, dep, tess), dep, tess)

    @pytest.mark.parametrize(
        "strategy", ["shortest_cell_path", "random_walk_loop_erased", "detour:2.0"]
    )
    def test_arbitrary_routes_match_the_reference(self, small_instance, strategy):
        dep, tess, _, conns, _, _ = small_instance
        conns = take(conns, slice(150))
        paths = routing.cell_paths(conns, dep, tess, strategy, 9)
        assert_assembly_matches_reference(conns, paths, dep, tess)

    def test_the_first_connection_to_break_an_invariant_is_reported(self, small_instance):
        # Of a path that revisits a cell and one shorter than its geodesic,
        # the connection with the lower id is the one named.
        dep, tess, _, conns, routes, _ = small_instance
        paths = [r.cells for r in routes[:8]]
        for too_long, revisits, error, message in (
            (2, 5, AssertionError, "total path length"),
            (5, 2, RoutingError, "route revisits"),
        ):
            batch = take(conns, slice(8))
            batch[3][too_long] = 10.0
            broken = list(paths)
            broken[revisits] = paths[revisits] + paths[revisits][:1]
            first = batch[0][min(too_long, revisits)]
            with pytest.raises(error, match=f"^connection {first}: {message}"):
                assemble(batch, broken, dep, tess)

    def test_segment_sums_equal_each_views_sum(self):
        # Segment lengths 1-300, in random order, cross numpy's pairwise
        # summation blocks (8 and 128).
        rng = np.random.default_rng(17)
        counts = rng.permutation(np.repeat(np.arange(1, 301), 3))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        values = rng.uniform(0, 0.01, offsets[-1]) * rng.choice([1e-6, 1.0, 1e3], offsets[-1])
        views = np.array([values[i:j].sum() for i, j in zip(offsets[:-1], offsets[1:])])
        assert routing._segment_sums(values, offsets).tobytes() == views.tobytes()

    def test_a_source_that_is_its_destination_is_rejected(self, small_instance):
        dep, tess, _, conns, _, paths = small_instance
        ids, src, dst, length = take(conns, slice(6))
        dst[4] = src[4]
        with pytest.raises(ConfigurationError, match=f"^connection {ids[4]}: source and"):
            routing.route_table((ids, src, dst, length), paths[:6], dep, tess)


class TestRoutingErrors:
    def test_errors_name_their_connection(self, small_instance):
        dep, tess, _, conns, routes, _ = small_instance
        route = next(r for r in routes if len(r.cells) > 2)
        last, end = route.cells[-2:]
        nbrs, normals = routing.bisector_table(tess)
        nbrs = nbrs.copy()
        nbrs[last][nbrs[last] == end] = -1
        # Only walks that step from ``last`` into ``end`` can fail.
        others = [r for r in routes if (last, end) not in zip(r.cells, r.cells[1:])]
        batch = others[:4] + [route] + others[4:8]
        src = [r.relays[0] for r in batch]
        dst = [r.relays[-1] for r in batch]
        a, b = dep.nodes[src], dep.nodes[dst]
        with pytest.raises(RoutingError, match=f"^connection {route.connection_id}: ") as err:
            routing.walk_geodesics(
                (nbrs, normals), a, b, geometry.central_angle(a, b), tess.cell_of_node[src],
                tess.cell_of_node[dst], [r.connection_id for r in batch],
            )
        assert err.value.cell is not None

        nodes = dep.nodes.copy()
        nodes[1] = nodes[0]
        twin = tessellation.Deployment(seed=dep.seed, nodes=nodes)
        with pytest.raises(GeometryError, match="^connection 17: co-located"):
            routing.cell_paths(connections(*rows(take(conns, slice(2, 5))), (17, 0, 1, 0.0)),
                               twin, tess)

        sparse = tessellation.deploy(40, 3)
        tess = tessellation.build_tessellation(sparse, tessellation.rho_for_n(2000, 1.2), 4)
        ids, _, _, lengths = conns = routing.pick_connections(sparse, 5)
        long = int(np.argmax(lengths))
        with pytest.raises(RoutingError, match=f"^connection {ids[long]}: .*empty cell") as err:
            straight(take(conns, [long]), sparse, tess)
        assert err.value.cell is not None


class TestArbitraryRoutes:
    def test_bfs_adjacent_cells_single_hop(self, small_instance):
        dep, tess, _, conns, _, _ = small_instance
        for row in rows(conns):
            ca = int(tess.cell_of_node[row[1]])
            cb = int(tess.cell_of_node[row[2]])
            if cb in set(tess.neighbors[ca].tolist()):
                one = connections(row)
                paths = routing.cell_paths(one, dep, tess, "shortest_cell_path")
                r = assemble(one, paths, dep, tess)[0]
                assert r.cells == [ca, cb]
                assert r.hop_count == 1
                break
        else:
            pytest.skip("no adjacent-cell pair in sample")

    def test_loop_erased_walk_never_revisits(self, small_instance):
        dep, tess, _, conns, _, _ = small_instance
        paths = routing.cell_paths(take(conns, slice(100)), dep, tess, "random_walk_loop_erased")
        for r in assemble(take(conns, slice(100)), paths, dep, tess):
            assert len(set(r.cells)) == len(r.cells)
            for a, b in zip(r.cells, r.cells[1:]):
                assert b in set(tess.neighbors[a].tolist())

    def test_detour_length_within_factor_of_bfs(self, small_instance):
        dep, tess, _, conns, _, _ = small_instance
        bfs = routing.cell_paths(take(conns, slice(60)), dep, tess, "shortest_cell_path")
        detour = routing.cell_paths(take(conns, slice(60)), dep, tess, "detour:2.0")
        for base, cells in zip(bfs, detour):
            bfs_len = routing._cells_path_length(base, tess)
            det_len = routing._cells_path_length(cells, tess)
            assert det_len <= 2.0 * max(bfs_len, 1e-12) + 1e-9

    def test_unknown_strategy(self, small_instance):
        dep, tess, _, conns, _, _ = small_instance
        with pytest.raises(ConfigurationError):
            routing.cell_paths(take(conns, slice(1)), dep, tess, "teleport")

    def test_loop_erasure_helper(self):
        assert routing._loop_erase([1, 2, 3, 2, 4]) == [1, 2, 4]
        assert routing._loop_erase([1, 2, 3, 1, 4]) == [1, 4]
        assert routing._loop_erase([5]) == [5]


class TestRouteDump:
    def test_write_routes(self, tmp_path, small_instance):
        _, _, _, _, routes, _ = small_instance
        path = tmp_path / "routes.txt"
        routing.write_routes(routes[:10], path)
        lines = [l for l in path.read_text().splitlines() if l.startswith("route ")]
        assert len(lines) == 10
        assert "cells=" in lines[0] and "relays=" in lines[0] and "hops=" in lines[0]
