"""Post-run invariant audit: no node may end with orphaned pending state.

A MAC that is in a non-idle handshake state must always hold a *live*
(scheduled, pending) escape event — a timeout or a slot whose tick will
resolve the state.  If its peer died mid-exchange and every escape timer
is gone, the node is wedged: it will sit in WAIT_* forever, silently
withdrawing from the network.  The audit walks every live MAC after a
faulted run and reports such states; under a strict plan
(:attr:`FaultPlan.strict_audit`) any violation raises
:class:`FaultAuditError` — a wedged handshake is a protocol bug, not a
degraded-but-acceptable outcome.

The per-protocol rules live on the MACs themselves
(:meth:`~repro.mac.base.SlottedMac.audit_pending_state` plus the
``_audit_protocol_state`` hooks); this module is the scenario-facing
aggregation layer.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mac.base import SlottedMac


class FaultAuditError(RuntimeError):
    """A faulted scenario ended with orphaned pending MAC state."""

    def __init__(self, violations: Sequence[str]) -> None:
        self.violations = tuple(violations)
        lines = "\n  ".join(self.violations)
        super().__init__(
            f"{len(self.violations)} wedged handshake(s) after the run:\n  {lines}"
        )


def audit_macs(macs: Iterable["SlottedMac"]) -> List[str]:
    """Aggregate invariant violations across a whole scenario's MACs."""
    violations: List[str] = []
    for mac in macs:
        violations.extend(mac.audit_pending_state())
    return violations
