import math
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adhocsim import experiment, geometry, links, routing, tessellation
from adhocsim.errors import ConfigurationError, GeometryError, RoutingError
from conftest import assemble


def straight(conn, dep, tess):
    return assemble([conn], routing.cell_paths([conn], dep, tess), dep, tess)[0]


class TestPickConnections:
    def test_one_per_node_no_self_loops(self, small_instance):
        dep, _, _, conns, _, _ = small_instance
        assert len(conns) == dep.n
        assert all(c.source != c.destination for c in conns)

    def test_deterministic(self, small_instance):
        dep, _, _, conns, _, _ = small_instance
        again = routing.pick_connections(dep, 45)
        assert [(c.source, c.destination) for c in conns] == [
            (c.source, c.destination) for c in again
        ]

    def test_length_matches_distance(self, small_instance):
        dep, _, _, conns, _, _ = small_instance
        for c in conns[:50]:
            assert c.length == pytest.approx(
                float(geometry.surface_distance(dep.nodes[c.source], dep.nodes[c.destination]))
            )

    def test_length_distribution_matches_closed_form(self):
        dep = tessellation.deploy(100_000, 21)
        conns = routing.pick_connections(dep, 22)
        lengths = np.sort([c.length for c in conns])
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
        ids = np.flatnonzero(tess.cell_of_node == cell)
        conn = routing.Connection(id=0, source=int(ids[0]), destination=int(ids[1]),
                                  length=float(geometry.surface_distance(
                                      dep.nodes[ids[0]], dep.nodes[ids[1]])))
        route = straight(conn, dep, tess)
        assert route.cells == [cell]
        assert route.hop_count == 1
        assert route.relays == [conn.source, conn.destination]

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
        _, _, _, conns, routes, _ = small_instance
        for c, r in zip(conns, routes):
            assert r.relays[0] == c.source
            assert r.relays[-1] == c.destination

    def test_relays_live_in_their_cells(self, small_instance):
        dep, tess, _, _, routes, _ = small_instance
        for r in routes[:200]:
            if len(r.cells) < 2:
                continue
            for cell, relay in zip(r.cells[1:-1], r.relays[1:-1]):
                assert tess.cell_of_node[relay] == cell

    def test_empty_cell_raises_with_cell_id(self):
        dep = tessellation.deploy(40, 3)
        rho = tessellation.rho_for_n(2000, 1.2)
        tess = tessellation.build_tessellation(dep, rho, 4)
        conns = routing.pick_connections(dep, 5)
        long = max(conns, key=lambda c: c.length)
        with pytest.raises(RoutingError) as err:
            straight(long, dep, tess)
        assert err.value.cell is not None


    def test_colocated_rejected(self, small_instance):
        dep, tess, _, _, _, _ = small_instance
        nodes = dep.nodes.copy()
        nodes[1] = nodes[0]
        twin = tessellation.Deployment(seed=dep.seed, nodes=nodes)
        conn = routing.Connection(id=0, source=0, destination=1, length=0.0)
        with pytest.raises(GeometryError):
            routing.cell_paths([conn], twin, tess)


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


def near_decision_arcs(near, dep, tess, conns, routes):
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
        for conn, route in zip(conns, routes):
            if len(route.cells) > 2:
                ci, cj = tess.centers[route.cells[:2]]
                a = unit(ci + cj + 1e-11 * (ci - cj))
                if cell_of(a) == route.cells[0]:  # not in a third cell
                    yield a, dep.nodes[conn.destination]
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


def walk_connection(table, dep, conn, route):
    """``routing.walk_geodesics`` over ``table`` on one connection's arc."""
    a, b = dep.nodes[[conn.source]], dep.nodes[[conn.destination]]
    theta = np.array([conn.length / geometry.RADIUS])
    ends = np.array(route.cells[:1]), np.array(route.cells[-1:])
    return routing.walk_geodesics(table, a, b, theta, *ends, [conn.id])


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
        route = straight(conns[6], dep, tess)
        assert route.cells == [19, 9, 3, 31, 36, 15]
        a, b = dep.nodes[conns[6].source], dep.nodes[conns[6].destination]
        assert_walk_covers_arc(tess, a, b, route.cells, 0.0, conns[6].length, 10_001, depth=1)

    def test_near_antipodal_rejected(self, small_instance):
        dep, tess, _, _, _, _ = small_instance
        nodes = dep.nodes.copy()
        nodes[1] = -nodes[0] + 1e-12
        nodes[1] /= np.linalg.norm(nodes[1])
        twin = tessellation.Deployment(seed=dep.seed, nodes=nodes)
        conn = routing.Connection(id=0, source=0, destination=1, length=geometry.MAX_DISTANCE)
        with pytest.raises(GeometryError):
            routing.cell_paths([conn], twin, tess)

    def test_walk_past_the_arc_raises(self, small_instance):
        # Without the bisector into the end cell the walk would leave the
        # cell before it beyond the arc's end.
        dep, tess, _, conns, routes, _ = small_instance
        conn, route = next((c, r) for c, r in zip(conns, routes) if len(r.cells) > 2)
        last, end = route.cells[-2:]
        nbrs, normals = routing.bisector_table(tess)
        nbrs = nbrs.copy()
        nbrs[last][nbrs[last] == end] = -1
        with pytest.raises(RoutingError, match="beyond the arc"):
            walk_connection((nbrs, normals), dep, conn, route)

    def test_cycling_walk_stops_at_the_cell_count(self, small_instance):
        # Bisector rows corrupted into a three-cell cycle, each crossed at
        # the start point, never reach the end cell.
        dep, tess, _, conns, routes, _ = small_instance
        conn, route = next((c, r) for c, r in zip(conns, routes) if len(r.cells) > 4)
        a, b = dep.nodes[conn.source], dep.nodes[conn.destination]
        w = (a @ b) * a - b
        i, j, k = route.cells[:3]
        nbrs = np.full((tess.num_cells, 1), -1)
        normals = np.zeros((tess.num_cells, 1, 3))
        for cell, nxt in ((i, j), (j, k), (k, i)):
            nbrs[cell], normals[cell] = nxt, w
        with pytest.raises(RoutingError, match="cell count"):
            walk_connection((nbrs, normals), dep, conn, route)

    @pytest.mark.parametrize("near", ["start_cut", "runner_up", "arc_end"])
    def test_near_decisions_are_rechecked_with_libm(self, small_instance, monkeypatch, near):
        # Crafted arcs whose walk meets a decision within 1e-9 of flipping,
        # one kind per parameter (see near_decision_arcs).  numpy's atan2 may
        # not decide it the way libm's does: the walk must ask libm and still
        # take libm's walk.
        dep, tess, _, conns, routes, _ = small_instance
        calls = []

        def counting_atan2(q, p):
            calls.append(len(q))
            return libm_atan2(q, p)

        libm_atan2 = routing._atan2
        monkeypatch.setattr(routing, "_atan2", counting_atan2)
        checked = 0
        for a, b in near_decision_arcs(near, dep, tess, conns, routes):
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


def reference_assembly(conn, cells, dep, tess):
    """One route's relay chain, hop-length bytes and path length, measured
    route by route: the reference for ``routing.route_table``'s flat arrays."""
    chain = [conn.source, *tess.relay_of_cell[cells[1:-1]].tolist(), conn.destination]
    hops = geometry.surface_distance(dep.nodes[chain[:-1]], dep.nodes[chain[1:]])
    return chain, hops.tobytes(), float(hops.sum())


def reference_route(conn, cells, dep, tess):
    """The route of ``conn`` through ``cells``, assembled by the reference."""
    chain, hops, path_length = reference_assembly(conn, cells, dep, tess)
    return routing.Route(conn.id, cells, chain, np.frombuffer(hops), conn.length, path_length)


def assert_assembly_matches_reference(conns, paths, dep, tess):
    for conn, cells, route in zip(conns, paths, assemble(conns, paths, dep, tess), strict=True):
        batched = route.relays, route.hop_lengths.tobytes(), route.path_length
        assert batched == reference_assembly(conn, cells, dep, tess), conn.id


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
            conns, paths = [routing.Connection(7, src, dst, length)], [[cell]]
        elif case == "empty":
            conns, paths = [], []
        routes = [reference_route(conn, cells, dep, tess) for conn, cells in zip(conns, paths)]
        radio = links.RadioParams()
        # ascending connection id from any order
        table = routing.route_table(conns[::-1], paths[::-1], dep, tess)
        ordered = sorted(routes, key=lambda r: r.connection_id)
        cells, tx, rx, power, next_cells = reference_hop_table(ordered, radio)
        assert [table.cell.tolist(), table.tx.tolist(), table.rx.tolist(),
                table.next_cell.tolist()] == [cells, tx, rx, next_cells]
        measured = radio.tx_power * links.path_gain(table.hop_length, radio.alpha)
        assert measured.tobytes() == power.tobytes()
        assert table.connection_ids.tolist() == [r.connection_id for r in ordered]
        for column, name in ((table.length, "length"), (table.path_length, "path_length")):
            assert column.tobytes() == np.array([getattr(r, name) for r in ordered]).tobytes()
        hop_counts = [r.hop_count for r in ordered]
        assert table.offsets.tolist() == list(accumulate(hop_counts, initial=0))
        assert table.hop_count.tolist() == hop_counts and len(table) == len(routes)
        for column in (table.connection_ids, table.offsets, table.cell, table.tx, table.rx,
                       table.next_cell):
            assert column.dtype == np.int64


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
        paths = routing.cell_paths(conns[:150], dep, tess, strategy, 9)
        assert_assembly_matches_reference(conns[:150], paths, dep, tess)

    def test_the_first_connection_to_break_an_invariant_is_reported(self, small_instance):
        # Of a path that revisits a cell and one shorter than its geodesic,
        # whichever connection comes first is the one named.
        dep, tess, _, conns, routes, _ = small_instance
        paths = [r.cells for r in routes[:8]]
        for too_long, revisits, error, message in (
            (2, 5, AssertionError, "total path length"),
            (5, 2, RoutingError, "route revisits"),
        ):
            batch = list(conns[:8])
            batch[too_long] = batch[too_long]._replace(length=10.0)
            broken = list(paths)
            broken[revisits] = paths[revisits] + paths[revisits][:1]
            first = batch[min(too_long, revisits)].id
            with pytest.raises(error, match=f"^connection {first}: {message}"):
                assemble(batch, broken, dep, tess)


    def test_the_first_broken_connection_in_the_order_given_is_reported(self, small_instance):
        # Given in descending id, connection 5 (a path shorter than its
        # geodesic) comes before connection 2 (a revisit) and is the one named.
        dep, tess, _, conns, _, paths = small_instance
        batch, broken = list(conns[:8])[::-1], list(paths[:8])[::-1]
        batch[2] = batch[2]._replace(length=10.0)
        broken[5] = broken[5] + broken[5][:1]
        with pytest.raises(AssertionError, match=f"^connection {conns[5].id}: total path"):
            routing.route_table(batch, broken, dep, tess)

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
        batch = list(conns[:6])
        batch[4] = batch[4]._replace(destination=batch[4].source)
        with pytest.raises(ConfigurationError, match=f"^connection {batch[4].id}: source and"):
            routing.route_table(batch, paths[:6], dep, tess)


class TestRoutingErrors:
    def test_errors_name_their_connection(self, small_instance):
        dep, tess, _, conns, routes, _ = small_instance
        conn, route = next((c, r) for c, r in zip(conns, routes) if len(r.cells) > 2)
        last, end = route.cells[-2:]
        nbrs, normals = routing.bisector_table(tess)
        nbrs = nbrs.copy()
        nbrs[last][nbrs[last] == end] = -1
        # Only walks that step from ``last`` into ``end`` can fail.
        others = [c for c, r in zip(conns, routes) if (last, end) not in zip(r.cells, r.cells[1:])]
        batch = others[:4] + [conn] + others[4:8]
        a = dep.nodes[[c.source for c in batch]]
        b = dep.nodes[[c.destination for c in batch]]
        with pytest.raises(RoutingError, match=f"^connection {conn.id}: ") as err:
            routing.walk_geodesics(
                (nbrs, normals), a, b, geometry.central_angle(a, b),
                tess.cell_of_node[[c.source for c in batch]],
                tess.cell_of_node[[c.destination for c in batch]],
                [c.id for c in batch],
            )
        assert err.value.cell is not None

        nodes = dep.nodes.copy()
        nodes[1] = nodes[0]
        twin = tessellation.Deployment(seed=dep.seed, nodes=nodes)
        twins = [routing.Connection(id=17, source=0, destination=1, length=0.0)]
        with pytest.raises(GeometryError, match="^connection 17: co-located"):
            routing.cell_paths(conns[2:5] + twins, twin, tess)

        sparse = tessellation.deploy(40, 3)
        tess = tessellation.build_tessellation(sparse, tessellation.rho_for_n(2000, 1.2), 4)
        long = max(routing.pick_connections(sparse, 5), key=lambda c: c.length)
        with pytest.raises(RoutingError, match=f"^connection {long.id}: .*empty cell") as err:
            straight(long, sparse, tess)
        assert err.value.cell is not None


class TestArbitraryRoutes:
    def test_bfs_adjacent_cells_single_hop(self, small_instance):
        dep, tess, _, conns, _, _ = small_instance
        for c in conns:
            ca = int(tess.cell_of_node[c.source])
            cb = int(tess.cell_of_node[c.destination])
            if cb in set(tess.neighbors[ca].tolist()):
                paths = routing.cell_paths([c], dep, tess, "shortest_cell_path")
                r = assemble([c], paths, dep, tess)[0]
                assert r.cells == [ca, cb]
                assert r.hop_count == 1
                break
        else:
            pytest.skip("no adjacent-cell pair in sample")

    def test_loop_erased_walk_never_revisits(self, small_instance):
        dep, tess, _, conns, _, _ = small_instance
        paths = routing.cell_paths(conns[:100], dep, tess, "random_walk_loop_erased")
        for r in assemble(conns[:100], paths, dep, tess):
            assert len(set(r.cells)) == len(r.cells)
            for a, b in zip(r.cells, r.cells[1:]):
                assert b in set(tess.neighbors[a].tolist())

    def test_detour_length_within_factor_of_bfs(self, small_instance):
        dep, tess, _, conns, _, _ = small_instance
        bfs = routing.cell_paths(conns[:60], dep, tess, "shortest_cell_path")
        detour = routing.cell_paths(conns[:60], dep, tess, "detour:2.0")
        for base, cells in zip(bfs, detour):
            bfs_len = routing._cells_path_length(base, tess)
            det_len = routing._cells_path_length(cells, tess)
            assert det_len <= 2.0 * max(bfs_len, 1e-12) + 1e-9

    def test_unknown_strategy(self, small_instance):
        dep, tess, _, conns, _, _ = small_instance
        with pytest.raises(ConfigurationError):
            routing.cell_paths(conns[:1], dep, tess, "teleport")

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
