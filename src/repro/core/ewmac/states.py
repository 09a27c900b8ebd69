"""The EW-MAC sensor state machine (paper Fig. 3).

The paper specifies nine states and their transitions for a sensor *i* with
neighbours *j* (intended receiver), *k* (the competing winner) and *l*
(another neighbour).  :class:`Fig3StateMachine` encodes exactly the allowed
transitions so the protocol implementation can assert it never leaves the
paper's state graph, and the test suite can exhaustively verify the graph.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Tuple


class EwState(Enum):
    """States of paper Fig. 3."""

    IDLE = "Idle"
    QUIET = "Quiet"
    CHECKING_SCHEDULING = "Checking Scheduling"
    WAITING_CTS = "Waiting CTS"
    WAITING_DATA = "Waiting Data"
    CHECKING_DATA = "Checking Data"
    WAITING_ACK = "Waiting Ack"
    ASKING_EXTRA = "Asking Extra Commu"
    ASKED_EXTRA = "Asked Extra Commu"


#: Allowed transitions (from, to) with the triggering event, per Fig. 3.
TRANSITIONS: Dict[Tuple[EwState, EwState], str] = {
    # Idle fan-out
    (EwState.IDLE, EwState.QUIET): "overheard neighbour packet Pkt(l,p)",
    (EwState.IDLE, EwState.CHECKING_SCHEDULING): "received RTS(k,i)",
    (EwState.IDLE, EwState.WAITING_CTS): "sent RTS(i,j)",
    # Quiet
    (EwState.QUIET, EwState.IDLE): "quiet period elapsed",
    (EwState.QUIET, EwState.QUIET): "another neighbour packet",
    # Checking Scheduling
    (EwState.CHECKING_SCHEDULING, EwState.IDLE): "request conflicts with schedule",
    (EwState.CHECKING_SCHEDULING, EwState.WAITING_DATA): "sent CTS(i,k)",
    # Waiting Data
    (EwState.WAITING_DATA, EwState.CHECKING_DATA): "received Data(k,i)",
    (EwState.WAITING_DATA, EwState.ASKED_EXTRA): "received EXR(l,i)",
    (EwState.WAITING_DATA, EwState.IDLE): "data never arrived (timeout)",
    # Checking Data
    (EwState.CHECKING_DATA, EwState.IDLE): "sent Ack(i,k)",
    # Waiting CTS
    (EwState.WAITING_CTS, EwState.WAITING_ACK): "received CTS(j,i), sent Data(i,j)",
    (EwState.WAITING_CTS, EwState.ASKING_EXTRA): "received RTS(j,k) or CTS(j,k)",
    (EwState.WAITING_CTS, EwState.ASKED_EXTRA): "received EXR(l,i)",
    (EwState.WAITING_CTS, EwState.IDLE): "no CTS (timeout)",
    # Waiting Ack
    (EwState.WAITING_ACK, EwState.IDLE): "received Ack(j,i)",
    # Asking Extra Commu
    (EwState.ASKING_EXTRA, EwState.QUIET): "extra denied / EXC timeout",
    (EwState.ASKING_EXTRA, EwState.IDLE): "extra communication completed",
    # Asked Extra Commu
    (EwState.ASKED_EXTRA, EwState.IDLE): "extra communication completed",
    (EwState.ASKED_EXTRA, EwState.QUIET): "extra abandoned",
}


class InvalidTransition(Exception):
    """A transition outside the Fig. 3 graph was attempted."""


class Fig3StateMachine:
    """Runtime guard that EW-MAC only makes Fig. 3 transitions."""

    def __init__(self, strict: bool = True) -> None:
        self.state = EwState.IDLE
        self.strict = strict
        self.history: List[Tuple[float, EwState, EwState]] = []

    def transition(self, to: EwState, time: float = 0.0) -> None:
        """Move to ``to``; raise :class:`InvalidTransition` if not allowed."""
        if to is self.state:
            return
        if (self.state, to) not in TRANSITIONS:
            if self.strict:
                raise InvalidTransition(f"{self.state.value} -> {to.value}")
        self.history.append((time, self.state, to))
        self.state = to

    def can_transition(self, to: EwState) -> bool:
        return to is self.state or (self.state, to) in TRANSITIONS
