"""Node deployment in the monitored volume.

The paper's environment (Table 2): a 1000 km^3 region with 60-200 sensors,
1.5 km communication range, surface sinks, and the Fig. 1 structure —
"sensors at greater depths transmit packets to sensors closer to the
surface" via multi-hop paths.

Two generators are provided:

* :func:`connected_column_deployment` — the default for experiments: sinks
  float at the surface and every sensor is placed within communication
  range of (and deeper than) an already-placed node, yielding the connected
  multi-hop water-column topology of Fig. 1.  Link lengths shrink as the
  node count grows (``(n_ref / n)^(1/3)``), reproducing the paper's
  "increasing sensor density will reduce propagation delay between
  sensors" effect that drives Fig. 7.
* :func:`tiled_column_deployment` — the constant-density *scaling* shape:
  one connected column per sink, tiled over the horizontal plane.  The
  single-column generator keeps its cloud within a couple of communication
  ranges of the root regardless of ``n`` (its link scale shrinks as the
  count grows), so growing ``n_sensors`` inside one column *densifies*
  toward a clique instead of covering a larger region.  Monitoring more
  ocean at the same sensor density means deploying more columns, and this
  generator models exactly that — which is also the regime where spatial
  reach culling has structure to exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..acoustic.geometry import Position
from ..phy.channel import DEFAULT_RANGE_M

#: Paper Table 2: 1000 km^3 volume, modelled as a 10 x 10 x 10 km cube.
DEFAULT_SIDE_M = 10_000.0
#: Reference node count for the density scaling (paper's default n).
REFERENCE_NODE_COUNT = 60


@dataclass(frozen=True)
class DeploymentConfig:
    """Geometry of a deployment.

    Attributes:
        n_sensors: Number of sensing nodes (excludes sinks).
        n_sinks: Number of surface sinks.
        side_x_m / side_y_m: Horizontal extent of the region.
        depth_m: Maximum depth of the region.
        comm_range_m: Communication range used for connectivity.
        seed: Seed for the placement RNG.
    """

    n_sensors: int = 60
    n_sinks: int = 1
    side_x_m: float = DEFAULT_SIDE_M
    side_y_m: float = DEFAULT_SIDE_M
    depth_m: float = DEFAULT_SIDE_M
    comm_range_m: float = DEFAULT_RANGE_M
    seed: int = 0


@dataclass
class Deployment:
    """A realized deployment: positions plus which ids are sinks.

    Node ids are indices into :attr:`positions`; sinks come first.
    """

    config: DeploymentConfig
    positions: List[Position]
    sink_ids: List[int]

    @property
    def n_nodes(self) -> int:
        return len(self.positions)

    def neighbors_of(self, node_id: int, range_m: Optional[float] = None) -> List[int]:
        """Ids within communication range of ``node_id``."""
        reach = range_m if range_m is not None else self.config.comm_range_m
        origin = self.positions[node_id]
        return [
            other
            for other, pos in enumerate(self.positions)
            if other != node_id and origin.distance_to(pos) <= reach
        ]

    def mean_degree(self) -> float:
        """Average one-hop neighbour count (density diagnostic)."""
        if not self.positions:
            return 0.0
        total = sum(len(self.neighbors_of(i)) for i in range(self.n_nodes))
        return total / self.n_nodes

    def mean_link_distance_m(self) -> float:
        """Mean distance over all in-range pairs (drives waiting resources)."""
        distances = []
        for i in range(self.n_nodes):
            origin = self.positions[i]
            for j in self.neighbors_of(i):
                if j > i:
                    distances.append(origin.distance_to(self.positions[j]))
        return float(np.mean(distances)) if distances else 0.0


def _sink_positions(config: DeploymentConfig, rng: np.random.Generator) -> List[Position]:
    """Sinks float on the surface, spread over the region."""
    sinks = []
    for _ in range(config.n_sinks):
        sinks.append(
            Position(
                float(rng.uniform(0.25, 0.75) * config.side_x_m),
                float(rng.uniform(0.25, 0.75) * config.side_y_m),
                0.0,
            )
        )
    return sinks


def density_link_scale(n_sensors: int) -> float:
    """Link-length scale factor for a given sensor count.

    Denser networks pack the same volume with shorter links:
    ``(REFERENCE_NODE_COUNT / n)^(1/3)``, the scaling of nearest-neighbour
    distance in a 3-D Poisson process.
    """
    if n_sensors <= 0:
        raise ValueError("n_sensors must be positive")
    return (REFERENCE_NODE_COUNT / n_sensors) ** (1.0 / 3.0)


def connected_column_deployment(config: DeploymentConfig) -> Deployment:
    """Connected water-column deployment (paper Fig. 1 shape).

    Every sensor is attached below an already-placed node at a link
    distance in ``[0.45, 0.95] * comm_range * density_scale``, with random
    azimuth and a downward depth bias.  The result is connected by
    construction and gets denser (shorter links) as ``n_sensors`` grows.
    """
    rng = np.random.default_rng(config.seed)
    positions = _sink_positions(config, rng)
    scale = density_link_scale(config.n_sensors)
    x_range = (0.0, config.side_x_m)
    y_range = (0.0, config.side_y_m)
    z_range = (0.0, config.depth_m)
    for _ in range(config.n_sensors):
        parent = positions[int(rng.integers(0, len(positions)))]
        link = float(rng.uniform(0.45, 0.95)) * config.comm_range_m * scale
        link = min(link, config.comm_range_m * 0.98)
        azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
        # Downward bias: polar angle in [15, 75] degrees below horizontal.
        dip = float(rng.uniform(math.radians(15.0), math.radians(75.0)))
        dx = link * math.cos(dip) * math.cos(azimuth)
        dy = link * math.cos(dip) * math.sin(azimuth)
        dz = link * math.sin(dip)
        candidate = parent.translated(dx, dy, dz).clamped(x_range, y_range, z_range)
        # Clamping can push the node out of the parent's range at the region
        # boundary; fall back to a point between parent and the candidate.
        if candidate.distance_to(parent) > config.comm_range_m:
            candidate = parent.midpoint(candidate)
        positions.append(candidate)
    return Deployment(config, positions, list(range(config.n_sinks)))


def tiled_column_deployment(config: DeploymentConfig) -> Deployment:
    """One connected column per sink, tiled over the horizontal plane.

    The region is split into an approximately square ``n_sinks``-block
    horizontal grid; each block gets one surface sink and an equal share of
    the sensors, placed by :func:`connected_column_deployment` inside the
    block (full depth range) and offset to the block's origin.  Sinks keep
    the ids-first contract (ids ``0 .. n_sinks - 1``).

    With ``n_sinks`` scaled as ``n_sensors / 60`` and the region sides as
    ``(n_sensors / 60)^(1/3)``, every column is a Table-2-like 60-node
    cluster and the *global* node density genuinely stays constant as the
    network grows — unlike growing a single column, whose cloud stays put
    and densifies.  Per-column placement draws from independent derived
    seeds, so a column's geometry depends only on the root seed and its
    block index.
    """
    k = max(1, config.n_sinks)
    grid_x = int(math.ceil(math.sqrt(k)))
    grid_y = int(math.ceil(k / grid_x))
    block_x_m = config.side_x_m / grid_x
    block_y_m = config.side_y_m / grid_y
    base, extra = divmod(config.n_sensors, k)
    rng = np.random.default_rng(config.seed)
    sub_seeds = rng.integers(0, 2**31 - 1, size=k)
    sink_positions: List[Position] = []
    sensor_positions: List[Position] = []
    for block in range(k):
        bx = (block % grid_x) * block_x_m
        by = (block // grid_x) * block_y_m
        sub = connected_column_deployment(
            DeploymentConfig(
                n_sensors=base + (1 if block < extra else 0),
                n_sinks=1,
                side_x_m=block_x_m,
                side_y_m=block_y_m,
                depth_m=config.depth_m,
                comm_range_m=config.comm_range_m,
                seed=int(sub_seeds[block]),
            )
        )
        shifted = [Position(p.x + bx, p.y + by, p.z) for p in sub.positions]
        sink_positions.append(shifted[0])
        sensor_positions.extend(shifted[1:])
    return Deployment(
        config, sink_positions + sensor_positions, list(range(k))
    )
