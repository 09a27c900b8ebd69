"""Tests for the Fig. 3 state machine (paper's state transfer diagram)."""

import pytest

from repro.core.ewmac.states import (
    TRANSITIONS,
    EwState,
    Fig3StateMachine,
    InvalidTransition,
)
from tests.helpers import reachable_states


def test_all_nine_states_exist():
    assert len(EwState) == 9


def test_all_states_reachable_from_idle():
    assert reachable_states() == frozenset(EwState)


def test_initial_state_is_idle():
    assert Fig3StateMachine().state is EwState.IDLE


def test_paper_happy_path_sender():
    """Idle -> WaitingCTS -> WaitingAck -> Idle (successful handshake)."""
    machine = Fig3StateMachine()
    machine.transition(EwState.WAITING_CTS, 1.0)
    machine.transition(EwState.WAITING_ACK, 2.0)
    machine.transition(EwState.IDLE, 3.0)
    assert [s.value for _, _, s in machine.history] == [
        "Waiting CTS",
        "Waiting Ack",
        "Idle",
    ]


def test_paper_happy_path_receiver():
    """Idle -> CheckingScheduling -> WaitingData -> CheckingData -> Idle."""
    machine = Fig3StateMachine()
    for state in (
        EwState.CHECKING_SCHEDULING,
        EwState.WAITING_DATA,
        EwState.CHECKING_DATA,
        EwState.IDLE,
    ):
        machine.transition(state)
    assert machine.state is EwState.IDLE


def test_extra_communication_paths():
    """Asking (contention loser) and Asked (busy peer) paths per Fig. 3."""
    asker = Fig3StateMachine()
    asker.transition(EwState.WAITING_CTS)
    asker.transition(EwState.ASKING_EXTRA)  # received CTS(j,k)
    asker.transition(EwState.IDLE)          # extra completed
    asked = Fig3StateMachine()
    asked.transition(EwState.CHECKING_SCHEDULING)
    asked.transition(EwState.WAITING_DATA)
    asked.transition(EwState.ASKED_EXTRA)   # received EXR(l,i)
    asked.transition(EwState.IDLE)


def test_asking_extra_gives_up_to_quiet():
    """Paper: 'i gives up the extra transmission and returns to Quiet'."""
    machine = Fig3StateMachine()
    machine.transition(EwState.WAITING_CTS)
    machine.transition(EwState.ASKING_EXTRA)
    machine.transition(EwState.QUIET)
    machine.transition(EwState.IDLE)


def test_invalid_transition_raises_when_strict():
    machine = Fig3StateMachine(strict=True)
    with pytest.raises(InvalidTransition):
        machine.transition(EwState.WAITING_ACK)  # Idle -> WaitingAck illegal


def test_lenient_mode_records_but_allows():
    machine = Fig3StateMachine(strict=False)
    machine.transition(EwState.WAITING_ACK)
    assert machine.state is EwState.WAITING_ACK


def test_self_transition_is_noop():
    machine = Fig3StateMachine()
    machine.transition(EwState.IDLE)
    assert machine.history == []


def test_can_transition_matches_table():
    for (src, dst) in TRANSITIONS:
        m = Fig3StateMachine()
        m.state = src
        assert m.can_transition(dst), f"{src} -> {dst} should be allowed"


def test_quiet_loops_on_more_neighbor_packets():
    machine = Fig3StateMachine()
    machine.transition(EwState.QUIET)
    machine.transition(EwState.QUIET)  # allowed self-loop (recorded as no-op)
    assert machine.state is EwState.QUIET
