"""Node mobility.

The paper's simulations use three location models — "non-moved, moved
horizontal, or moved vertical", with each sensor's model chosen at random —
and note that the protocol assumes *stable relations*: positions drift
slowly with currents, so maintained propagation delays stay approximately
valid between refreshes.

Each mobility model is a small stateful stepper; :class:`MobilityManager`
assigns one per node, advances them on a fixed period, and keeps nodes
inside the deployment region and (optionally) within a tether radius of
their deployment point so connectivity is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..acoustic.geometry import Position
from ..des.simulator import Simulator
from ..net.node import Node
from .deployment import DeploymentConfig

#: Typical slow current speed (m/s) used for drifting sensors.
DEFAULT_DRIFT_SPEED_MPS = 0.5
#: Depth-oscillation amplitude (m) of vertically moving sensors.
DEFAULT_OSCILLATION_AMPLITUDE_M = 100.0
#: Depth-oscillation period (s) of vertically moving sensors.
DEFAULT_OSCILLATION_PERIOD_S = 120.0
#: Position-update period (s).
DEFAULT_UPDATE_PERIOD_S = 5.0
#: Tether radius: how far a node may wander from its anchor (m).
DEFAULT_TETHER_M = 300.0


class MobilityModel:
    """Interface: produce the node's next position after ``dt`` seconds."""

    def step(self, current: Position, dt: float) -> Position:
        raise NotImplementedError


@dataclass
class StaticModel(MobilityModel):
    """The paper's "non-moved" model."""

    def step(self, current: Position, dt: float) -> Position:
        return current


class HorizontalDriftModel(MobilityModel):
    """"Moved horizontal": drift with a slowly rotating current heading."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._heading = float(rng.uniform(0.0, 2.0 * math.pi))

    def step(self, current: Position, dt: float) -> Position:
        # Heading performs a slow random walk (current meander).
        self._heading += float(self._rng.normal(0.0, 0.1))
        dx = DEFAULT_DRIFT_SPEED_MPS * dt * math.cos(self._heading)
        dy = DEFAULT_DRIFT_SPEED_MPS * dt * math.sin(self._heading)
        return current.translated(dx=dx, dy=dy)


class VerticalOscillationModel(MobilityModel):
    """"Moved vertical": buoyancy-driven sinusoidal depth oscillation."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._phase = float(rng.uniform(0.0, 2.0 * math.pi))
        self._elapsed = 0.0
        self._last_offset = math.sin(self._phase) * DEFAULT_OSCILLATION_AMPLITUDE_M

    def step(self, current: Position, dt: float) -> Position:
        self._elapsed += dt
        offset = (
            math.sin(self._phase + 2.0 * math.pi * self._elapsed / DEFAULT_OSCILLATION_PERIOD_S)
            * DEFAULT_OSCILLATION_AMPLITUDE_M
        )
        dz = offset - self._last_offset
        self._last_offset = offset
        return current.translated(dz=dz)


#: The paper's three location models, drawn with equal probability.
MODEL_NAMES = ("static", "horizontal", "vertical")
_MODEL_MIX = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


class MobilityManager:
    """Assigns a mobility model per node and advances them periodically.

    Args:
        sim: Simulation kernel (drives the update timer).
        nodes: Nodes to move; sinks are always kept static.
        config: Deployment geometry (for boundary clamping).

    Each sensor draws one of :data:`MODEL_NAMES` uniformly from the
    simulator's ``"mobility"`` stream, which also drives the models.
    Positions are stepped every :data:`DEFAULT_UPDATE_PERIOD_S` and kept
    within :data:`DEFAULT_TETHER_M` of their deployment anchor.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        config: DeploymentConfig,
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.config = config
        self._rng = sim.streams.get("mobility")
        self._anchors: Dict[int, Position] = {n.node_id: n.position for n in self.nodes}
        self._models: Dict[int, MobilityModel] = {}
        self.assignments: Dict[int, str] = {}
        for node in self.nodes:
            if node.is_sink:
                name = "static"
            else:
                name = MODEL_NAMES[int(self._rng.choice(3, p=_MODEL_MIX))]
            self.assignments[node.node_id] = name
            self._models[node.node_id] = self._make_model(name)
        self._timer = None

    def _make_model(self, name: str) -> MobilityModel:
        if name == "static":
            return StaticModel()
        if name == "horizontal":
            return HorizontalDriftModel(self._rng)
        if name == "vertical":
            return VerticalOscillationModel(self._rng)
        raise ValueError(f"unknown mobility model {name!r}")

    def start(self) -> None:
        """Begin periodic position updates."""
        self._timer = self.sim.schedule(DEFAULT_UPDATE_PERIOD_S, self._tick)

    def stop(self) -> None:
        self.sim.cancel(self._timer)
        self._timer = None

    def _tick(self) -> None:
        self.step(DEFAULT_UPDATE_PERIOD_S)
        self._timer = self.sim.schedule(DEFAULT_UPDATE_PERIOD_S, self._tick)

    def step(self, dt: float) -> None:
        """Advance every node once by ``dt`` (public for tests).

        Each assignment to ``node.position`` routes through the node's
        setter, which bumps *that node's* position epoch in the owning
        channel's per-node-epoch link cache — only pairs touching a moved
        node are recomputed, so a tick that drifts a handful of nodes
        leaves the rest of the deployment's link state warm.  Static-model
        nodes are skipped outright: they cannot move, and not touching
        their positions keeps their epochs (and an all-static deployment's
        entire cache) untouched across ticks.
        """
        x_range = (0.0, self.config.side_x_m)
        y_range = (0.0, self.config.side_y_m)
        z_range = (0.0, self.config.depth_m)
        for node in self.nodes:
            model = self._models[node.node_id]
            if type(model) is StaticModel:
                continue
            new_pos = model.step(node.position, dt).clamped(x_range, y_range, z_range)
            anchor = self._anchors[node.node_id]
            if new_pos.distance_to(anchor) > DEFAULT_TETHER_M:
                # Pull back onto the tether sphere: keeps "stable relations"
                # between neighbours, per the paper's applicability note.
                scale = DEFAULT_TETHER_M / new_pos.distance_to(anchor)
                new_pos = Position(
                    anchor.x + (new_pos.x - anchor.x) * scale,
                    anchor.y + (new_pos.y - anchor.y) * scale,
                    anchor.z + (new_pos.z - anchor.z) * scale,
                ).clamped(x_range, y_range, z_range)
            node.position = new_pos
