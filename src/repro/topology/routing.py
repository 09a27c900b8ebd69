"""Depth-based next-hop selection.

The paper's traffic pattern (Fig. 1): "sensors at greater depths transmit
packets to sensors closer to the surface", hop by hop, until a surface sink
is reached.  Routing is not the paper's contribution, so we implement the
simplest faithful policy: among current in-range neighbours that are
strictly shallower, prefer the one making the most progress toward the
nearest sink; fall back to the shallowest neighbour.

The router reads ground-truth positions from the channel so that mobility
is reflected; the MAC layers themselves only ever use *learned* one-hop
delays, as the paper requires.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..phy.channel import AcousticChannel

#: Minimum depth improvement (m) for a neighbour to count as "shallower";
#: avoids routing loops between nodes at nearly equal depth.
MIN_DEPTH_GAIN_M = 1.0


class DepthRouting:
    """Greedy shallower-neighbour routing toward surface sinks."""

    def __init__(self, channel: AcousticChannel, sink_ids: Sequence[int]) -> None:
        if not sink_ids:
            raise ValueError("at least one sink required")
        self.channel = channel
        self.sink_ids = list(sink_ids)

    def _distance_to_nearest_sink(self, node_id: int) -> float:
        pos = self.channel.position_of(node_id)
        return min(pos.distance_to(self.channel.position_of(s)) for s in self.sink_ids)

    def next_hop(self, node_id: int) -> Optional[int]:
        """Best next hop for ``node_id`` right now, or None if stranded.

        Preference order:
        1. a sink directly in range;
        2. the in-range neighbour that is strictly shallower and closest to
           a sink;
        3. None (no shallower neighbour; the caller should retry later —
           mobility may restore a path).
        """
        neighbors = self.channel.neighbors_of(node_id)
        if not neighbors:
            return None
        in_range_sinks = [n for n in neighbors if n in self.sink_ids]
        if in_range_sinks:
            pos = self.channel.position_of(node_id)
            return min(
                in_range_sinks,
                key=lambda s: pos.distance_to(self.channel.position_of(s)),
            )
        own_depth = self.channel.position_of(node_id).z
        shallower = [
            n
            for n in neighbors
            if self.channel.position_of(n).z <= own_depth - MIN_DEPTH_GAIN_M
        ]
        if not shallower:
            return None
        return min(shallower, key=self._distance_to_nearest_sink)
