"""Unpruned scalar reference modem: the oracle for the production receive path.

Production :class:`~repro.phy.modem.AcousticModem` keeps only the arrivals
and transmissions that ended within one on-air duration of now, prunes them
lazily, and settles arrivals that cannot decode even alone without a
finish event or a decode
(:meth:`~repro.phy.modem.AcousticModem.begin_interferer`).
:class:`ReferenceModem` keeps every arrival and transmission it ever saw,
gives every arrival a finish event and a full decode, scans all of them at
every decode, sums interferers in begin order, and compares each SINR with
the channel's decode threshold.  Nothing is pruned or settled lazily, so
nothing can be dropped early or decided out of order — production must
match it bit for bit.

Whole scenarios swap it in by patching the ``AcousticModem`` name that
:meth:`AcousticChannel.create_modem` constructs (see
``tests/phy/test_modem_oracle.py``).
"""

from __future__ import annotations

from repro.phy.modem import AcousticModem, Arrival, RxOutcome


class ReferenceModem(AcousticModem):
    """:class:`AcousticModem` with an unpruned receive path."""

    #: Decodes whose SINR summed two or more interferers, i.e. where the
    #: summation order could change the result.
    multi_interferer_decodes = 0

    def _prune(self, intervals) -> None:
        """Keep every transmission interval forever."""

    def begin_interferer(self, arrival: Arrival) -> None:
        """Decode arrivals that cannot decode alone too, at their end."""
        self.begin_arrival(arrival)

    def _finish_arrival(self, arrival: Arrival) -> None:
        stats = self.stats
        if not self.enabled or not self.rx_enabled:
            stats.rx_outage += 1
            return
        a_start = arrival.start
        a_end = arrival.end
        if any(iv.start < a_end and iv.end > a_start for iv in self._tx_intervals):
            outcome = RxOutcome.HALF_DUPLEX
        else:
            levels = [
                other.level_db
                for other in self._arrivals
                if other is not arrival and other.start < a_end and other.end > a_start
            ]
            if len(levels) >= 2:
                self.multi_interferer_decodes += 1
            sinr_db = self.channel.link_budget.sinr_db_from_levels(
                arrival.level_db, levels, extra_noise_db=self.channel.extra_noise_db
            )
            if sinr_db >= self.channel.decode_threshold_db:
                outcome = RxOutcome.OK
            else:
                outcome = RxOutcome.COLLISION if levels else RxOutcome.NOISE
        if outcome is RxOutcome.OK:
            stats.rx_ok += 1
            stats.rx_ok_bits += arrival.frame.size_bits
            if self.on_receive is not None:
                self.on_receive(arrival.frame, arrival)
            return
        if outcome is RxOutcome.HALF_DUPLEX:
            stats.rx_half_duplex += 1
        elif outcome is RxOutcome.COLLISION:
            stats.rx_collision += 1
        else:
            stats.rx_noise += 1
        if self.on_rx_failure is not None:
            self.on_rx_failure(arrival, outcome)
