"""Frames exchanged by UASN MAC protocols.

The paper's packet vocabulary (Table 1): RTS, CTS, Data, Ack for negotiated
communication; EXR, EXC, EXData, EXAck for EW-MAC's extra communications;
Hello for neighbour initialization.  ROPA adds RTA (reverse appending
request).  All control packets are the same size (64 bits, Table 2); data
packets are variable (1024-4096 bits).

Per paper Sec. 4.3, *every* frame carries the sender's transmission
timestamp so receivers can maintain one-hop propagation delays; negotiation
frames additionally announce the pair's propagation delay so overhearers
can schedule around the exchange.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, Optional

#: Control packet size in bits (paper Table 2).
CONTROL_PACKET_BITS = 64
#: Default data packet size in bits (paper Sec. 5).
DEFAULT_DATA_PACKET_BITS = 2048

#: Broadcast address (Hello packets).
BROADCAST = -1

_uid_counter = itertools.count(1)


class FrameType(Enum):
    """All frame kinds used by the implemented protocols."""

    HELLO = "HELLO"
    RTS = "RTS"
    CTS = "CTS"
    DATA = "DATA"
    ACK = "ACK"
    # EW-MAC extra communication (paper Sec. 4.2)
    EXR = "EXR"
    EXC = "EXC"
    EXDATA = "EXDATA"
    EXACK = "EXACK"
    # ROPA reverse appending
    RTA = "RTA"
    # Periodic neighbour-maintenance broadcasts (ROPA / CS-MAC two-hop upkeep)
    NEIGH = "NEIGH"

    @property
    def is_control(self) -> bool:
        return self not in (FrameType.DATA, FrameType.EXDATA)

    @property
    def is_extra(self) -> bool:
        """True for EW-MAC extra-communication frames (sent off slot start)."""
        return self in (FrameType.EXR, FrameType.EXC, FrameType.EXDATA, FrameType.EXACK)


class Frame:
    """One over-the-air frame.

    A plain ``__slots__`` class rather than a dataclass: frames are created
    for every handshake step and copied on retry, and the slotted layout
    keeps allocation and field access on the broadcast/decode hot path
    cheap (``slots=True`` dataclasses need Python >= 3.10, below this
    repo's floor).

    Attributes:
        ftype: Frame kind.
        src: Sender node id.
        dst: Destination node id (BROADCAST for Hello/NEIGH).
        size_bits: On-air size; transmit duration = size_bits / bitrate.
        timestamp: Simulation time the frame transmission *started* (paper:
            "the sending time stamp is included in each sent packet").
        pair_delay_s: Propagation delay between the negotiating pair, echoed
            on CTS/EXC so overhearers can schedule (paper Fig. 4: CTS carries
            tau_jk).  None when not applicable.
        info: Protocol-specific extras (rp priority, announced data bits,
            appended-window lengths, two-hop digests, ...).
        uid: Unique frame id for tracing and dedup.
    """

    __slots__ = (
        "ftype",
        "src",
        "dst",
        "size_bits",
        "timestamp",
        "pair_delay_s",
        "info",
        "uid",
    )

    def __init__(
        self,
        ftype: FrameType,
        src: int,
        dst: int,
        size_bits: int = CONTROL_PACKET_BITS,
        timestamp: float = 0.0,
        pair_delay_s: Optional[float] = None,
        info: Optional[Dict[str, Any]] = None,
        uid: Optional[int] = None,
    ) -> None:
        self.ftype = ftype
        self.src = src
        self.dst = dst
        self.size_bits = size_bits
        self.timestamp = timestamp
        self.pair_delay_s = pair_delay_s
        self.info = {} if info is None else info
        self.uid = next(_uid_counter) if uid is None else uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frame(ftype={self.ftype!r}, src={self.src!r}, dst={self.dst!r}, "
            f"size_bits={self.size_bits!r}, timestamp={self.timestamp!r}, "
            f"pair_delay_s={self.pair_delay_s!r}, info={self.info!r}, uid={self.uid!r})"
        )

    def duration_s(self, bitrate_bps: float) -> float:
        """On-air duration at the given channel bitrate."""
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        return self.size_bits / bitrate_bps

    def describe(self) -> str:
        """Short human-readable id, e.g. ``RTS 3->7``."""
        dst = "bcast" if self.dst == BROADCAST else str(self.dst)
        return f"{self.ftype.value} {self.src}->{dst}"


def safe_bits(value: Any, default: int = CONTROL_PACKET_BITS, minimum: int = 1) -> int:
    """Parse a bit-count field from a (possibly corrupted) frame.

    Over-the-air metadata cannot be trusted; a node must never crash on a
    malformed field.  Non-numeric or sub-minimum values fall back.
    """
    try:
        bits = int(value)
    except (TypeError, ValueError, OverflowError):  # inf overflows int()
        return default
    return bits if bits >= minimum else default


def safe_float(value: Any) -> Optional[float]:
    """Parse a float field from a frame; None when malformed."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        result = float(value)
    except (TypeError, ValueError):
        return None
    return result if result == result else None  # reject NaN


def safe_links(value: Any) -> list:
    """Parse a neighbour-link list field: [(node_id, delay_s), ...]."""
    if not isinstance(value, (list, tuple)):
        return []
    links = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            continue
        node_id = safe_bits(item[0], default=-1, minimum=0)
        delay = safe_float(item[1])
        if node_id >= 0 and delay is not None and delay >= 0.0:
            links.append((node_id, delay))
    return links


def control_frame(
    ftype: FrameType,
    src: int,
    dst: int,
    timestamp: float,
    pair_delay_s: Optional[float] = None,
    **info: Any,
) -> Frame:
    """Convenience constructor for 64-bit control frames."""
    if not ftype.is_control:
        raise ValueError(f"{ftype} is not a control frame type")
    return Frame(
        ftype=ftype,
        src=src,
        dst=dst,
        size_bits=CONTROL_PACKET_BITS,
        timestamp=timestamp,
        pair_delay_s=pair_delay_s,
        info=info,
    )


def data_frame(
    src: int,
    dst: int,
    timestamp: float,
    size_bits: int = DEFAULT_DATA_PACKET_BITS,
    extra: bool = False,
    **info: Any,
) -> Frame:
    """Convenience constructor for DATA / EXDATA frames."""
    if size_bits <= 0:
        raise ValueError("data size must be positive")
    return Frame(
        ftype=FrameType.EXDATA if extra else FrameType.DATA,
        src=src,
        dst=dst,
        size_bits=size_bits,
        timestamp=timestamp,
        info=info,
    )
