"""Packet-error-rate (PER) models.

Two models mirroring the paper's PHY choices ("the Default PER model and
Default SINR are chosen for PHY model" in NS-3 UAN):

* :class:`DefaultPerModel` — NS-3 UAN's default behaviour: a packet is
  received iff its SINR stays above a threshold; otherwise it is lost
  (all-or-nothing).  Overlapping arrivals therefore collide unless one
  captures the channel.
* :class:`RayleighBerPerModel` — a physically richer alternative: BER for
  non-coherent BFSK over a Rayleigh fading channel, ``ber = 1/(2 + snr)``
  (linear snr), with ``PER = 1 - (1 - ber)^bits``.  Used in robustness
  ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sinr import db_to_linear


class PerModel:
    """Interface: probability a packet of ``bits`` is lost at ``sinr_db``."""

    def packet_error_rate(self, sinr_db: float, bits: int) -> float:
        raise NotImplementedError

    def is_successful(self, sinr_db: float, bits: int, uniform_draw: float) -> bool:
        """Decide success given a pre-drawn uniform [0,1) variate.

        Taking the draw as an argument keeps channel randomness inside the
        channel's own RNG stream (determinism across protocol variants).
        """
        return uniform_draw >= self.packet_error_rate(sinr_db, bits)

    def fails_at(self, sinr_db):
        """True only if a packet at ``sinr_db`` is lost for every size and draw.

        The channel asks this once per link row, at the SINR an arrival
        would have with no interferer and the quietest reachable noise
        floor.  SINR only falls from there (interference and noise add
        power), so an arrival this rules out is settled without a decode
        or a PER draw.  It must be monotone: failing at some SINR implies
        failing at every lower one.  ``sinr_db`` may be a NumPy array, in
        which case the answer is elementwise.

        The default claims nothing, so a stochastic model keeps its full
        decode and uniform draw on every arrival.
        """
        return False


@dataclass(frozen=True)
class DefaultPerModel(PerModel):
    """Threshold model: PER is 0 above ``threshold_db``, 1 below.

    This is the NS-3 UAN "default" used by the paper: any overlap that
    pushes SINR below threshold destroys the packet.
    """

    threshold_db: float = 10.0

    def packet_error_rate(self, sinr_db: float, bits: int) -> float:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return 0.0 if sinr_db >= self.threshold_db else 1.0

    def fails_at(self, sinr_db):
        return sinr_db < self.threshold_db


@dataclass(frozen=True)
class RayleighBerPerModel(PerModel):
    """Non-coherent BFSK over Rayleigh fading: ber = 1 / (2 + snr_linear)."""

    def packet_error_rate(self, sinr_db: float, bits: int) -> float:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        if bits == 0:
            return 0.0
        snr = db_to_linear(sinr_db)
        ber = 1.0 / (2.0 + snr)
        # (1-ber)^bits via log to avoid underflow for large packets.
        if ber >= 1.0:
            return 1.0
        ok = (1.0 - ber) ** bits
        return 1.0 - ok
