"""Protocol registry: name -> MAC factory.

The experiment harness selects protocols by name; registering here makes a
protocol available to every figure sweep and to the CLI.
"""

from __future__ import annotations

from typing import Dict, Type

from .base import SlottedMac
from .csmac import CsMac
from .ropa import Ropa
from .sfama import SFama

_REGISTRY: Dict[str, Type[SlottedMac]] = {}


def _ensure_builtins() -> None:
    """Register built-in protocols, importing EW-MAC lazily.

    EW-MAC lives in :mod:`repro.core.ewmac`, which itself imports
    :mod:`repro.mac.base`; importing it at module scope would be circular.
    """
    if _REGISTRY:
        return
    from ..core.ewmac import EwMac  # local import breaks the cycle
    from .aloha import SlottedAloha

    for cls in (SFama, Ropa, CsMac, EwMac, SlottedAloha):
        register(cls)


def register(cls: Type[SlottedMac]) -> Type[SlottedMac]:
    """Register a protocol class under its :attr:`name`."""
    key = cls.name.lower()
    if key in _REGISTRY and _REGISTRY[key] is not cls:
        raise ValueError(f"protocol name {cls.name!r} already registered")
    _REGISTRY[key] = cls
    return cls


def get_protocol(name: str) -> Type[SlottedMac]:
    """Look up a protocol class by (case-insensitive) name."""
    _ensure_builtins()
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown protocol {name!r}; known: {known}")
    return _REGISTRY[key]
