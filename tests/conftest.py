import numpy as np
import pytest

from adhocsim import routing, scheduling, tessellation

DESK_AREA_CONSTANT = 1.2


@pytest.fixture(scope="session")
def small_instance():
    """600-node network with tessellation, fixed schedule, all routes and
    their cell paths."""
    n = 600
    rho = tessellation.rho_for_n(n, DESK_AREA_CONSTANT)
    dep = tessellation.deploy(n, 42)
    tess = tessellation.build_tessellation(dep, rho, 43)
    sched = scheduling.build_schedule(tess, 12.0)
    conns = routing.pick_connections(dep, 45)
    paths = routing.cell_paths(conns, dep, tess)
    return dep, tess, sched, conns, assemble(conns, paths, dep, tess), paths


def assemble(conns, paths, dep, tess):
    """The routes through ``paths`` (connections in id order), in the two
    steps ``experiment`` takes: their table, then each route."""
    columns = routing.route_table(conns, paths, dep, tess).as_lists()
    return [routing.build_route(k, cells, columns) for k, cells in enumerate(paths)]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def table_of(routes, dep, tess):
    """The route table of ``routes``, given in any order, built by
    ``routing.route_table`` from each one's connection and cell path."""
    conns = [routing.Connection(r.connection_id, r.relays[0], r.relays[-1], r.length)
             for r in routes]
    return routing.route_table(conns, [r.cells for r in routes], dep, tess)
