"""Deployment, mobility and routing for the paper's Fig. 1 topology."""

from .deployment import (
    DEFAULT_RANGE_M,
    DEFAULT_SIDE_M,
    REFERENCE_NODE_COUNT,
    Deployment,
    DeploymentConfig,
    connected_column_deployment,
    density_link_scale,
)
from .mobility import (
    DEFAULT_DRIFT_SPEED_MPS,
    DEFAULT_TETHER_M,
    DEFAULT_UPDATE_PERIOD_S,
    MODEL_NAMES,
    HorizontalDriftModel,
    MobilityManager,
    MobilityModel,
    StaticModel,
    VerticalOscillationModel,
)
from .routing import MIN_DEPTH_GAIN_M, DepthRouting

__all__ = [
    "DEFAULT_DRIFT_SPEED_MPS",
    "DEFAULT_RANGE_M",
    "DEFAULT_SIDE_M",
    "DEFAULT_TETHER_M",
    "DEFAULT_UPDATE_PERIOD_S",
    "Deployment",
    "DeploymentConfig",
    "DepthRouting",
    "HorizontalDriftModel",
    "MIN_DEPTH_GAIN_M",
    "MODEL_NAMES",
    "MobilityManager",
    "MobilityModel",
    "REFERENCE_NODE_COUNT",
    "StaticModel",
    "VerticalOscillationModel",
    "connected_column_deployment",
    "density_link_scale",
]
