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
    """The routes of the connection columns ``conns`` through ``paths``, in
    the two steps ``experiment`` takes: their table, then each route."""
    columns = routing.route_table(conns, paths, dep, tess).as_lists()
    return [routing.build_route(k, cells, columns) for k, cells in enumerate(paths)]


def connections(*rows):
    """The connection columns of ``(id, source, destination, length)`` rows."""
    ids, src, dst, length = zip(*rows) if rows else ((),) * 4
    return (np.array(ids, dtype=np.int64), np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64), np.array(length, dtype=float))


def rows(conns):
    """The ``(id, source, destination, length)`` row of each connection of
    the columns ``conns``."""
    return list(zip(*(column.tolist() for column in conns)))


def take(conns, index):
    """The connections ``index`` (a slice or a list of positions) of the
    columns ``conns``, as new columns: a caller may change them."""
    return tuple(column[index].copy() for column in conns)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def table_of(routes, dep, tess):
    """The route table of ``routes``, in ascending connection id, built by
    ``routing.route_table`` from each one's connection and cell path."""
    conns = connections(*((r.connection_id, r.relays[0], r.relays[-1], r.length)
                          for r in routes))
    return routing.route_table(conns, [r.cells for r in routes], dep, tess)
