"""MAC protocols: the shared slotted engine and the paper's baselines.

The paper's own contribution, EW-MAC, lives in :mod:`repro.core.ewmac`
(re-exported here for convenience and via the registry).
"""

from .base import MacState, MacStats, SlottedMac
from .csmac import CsMac
from .registry import get_protocol, register
from .ropa import Ropa
from .sfama import SFama
from .slots import SlotTiming, make_slot_timing

__all__ = [
    "CsMac",
    "MacState",
    "MacStats",
    "Ropa",
    "SFama",
    "SlotTiming",
    "SlottedMac",
    "get_protocol",
    "make_slot_timing",
    "register",
]
