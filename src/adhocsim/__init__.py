"""Packet-level simulation of multi-hop ad hoc networks on the unit sphere.

The package deploys uniform nodes on the unit-area sphere, builds a
certified Voronoi tessellation, colors it into a TDMA schedule, routes
connections along great circles (or arbitrary adjacency paths), runs a
slot-synchronous SINR-based packet simulation, and empirically checks
the geometric and throughput claims that motivate the design.
"""

from .engine import EngineConfig, RunMetrics, run
from .errors import ConfigurationError, GeometryError, RoutingError, SaturationError
from .links import (
    BpskPacketModel,
    ConstantPModel,
    LogisticModel,
    RadioParams,
    ThresholdModel,
    hop_success_with_retries,
    make_link_model,
    sinr,
)
from .routing import Route, build_route, cell_paths, pick_connections, route_table
from .scheduling import Schedule, build_conservative_schedule, build_schedule
from .tessellation import (
    Deployment,
    Tessellation,
    build_tessellation,
    deploy,
    rho_for_n,
)
from .verification import BoundSet, compute_bounds, throughput_ceilings, throughput_summary

__all__ = [
    "BoundSet",
    "BpskPacketModel",
    "ConfigurationError",
    "ConstantPModel",
    "Deployment",
    "EngineConfig",
    "GeometryError",
    "LogisticModel",
    "RadioParams",
    "Route",
    "RoutingError",
    "RunMetrics",
    "SaturationError",
    "Schedule",
    "Tessellation",
    "ThresholdModel",
    "build_conservative_schedule",
    "build_route",
    "build_schedule",
    "build_tessellation",
    "cell_paths",
    "compute_bounds",
    "deploy",
    "hop_success_with_retries",
    "make_link_model",
    "pick_connections",
    "rho_for_n",
    "route_table",
    "run",
    "sinr",
    "throughput_ceilings",
    "throughput_summary",
]

__version__ = "0.1.0"
