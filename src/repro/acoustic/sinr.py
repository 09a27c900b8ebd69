"""The link budget: one fixed carrier, Thorp path loss, Wenz noise, SINR.

Mirrors NS-3 UAN's "Default SINR" model at the paper's one operating
point.  Every input is a module constant, so the Thorp absorption, the
band noise level and its linear power are evaluated once, at import:

* path loss ``A(l, f) [dB] = k * 10 log10(l) + l_km * a(f)`` with Thorp's
  absorption ``a(f)`` in dB/km (Urick, *Principles of Underwater Sound*)
  and practical spreading ``k = 1.5``;
* ambient noise as the power sum of the four Wenz terms -- turbulence,
  shipping, wind and thermal, in dB re 1 uPa per Hz (Stojanovic, "On the
  relationship between capacity and distance in an underwater acoustic
  communication channel") -- integrated over the receiver band;
* SINR with the received signal, the band noise and every overlapping
  interferer summed in the linear power domain.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

#: Carrier frequency in kHz (the paper's ~10 kHz band).
CARRIER_KHZ = 10.0
#: Geometric spreading factor k (1.5 = practical spreading).
SPREADING = 1.5
#: Modem source level in dB re 1 uPa @ 1 m.
SOURCE_LEVEL_DB = 160.0
#: Receiver band over which the ambient noise is integrated.
BANDWIDTH_HZ = 10_000.0
#: Shipping activity factor in [0, 1] (0.5 = moderate).
SHIPPING = 0.5
#: Surface wind speed in m/s.
WIND_MPS = 5.0

_F2 = CARRIER_KHZ**2
#: Thorp's absorption coefficient at the carrier, dB/km (f >= 0.4 kHz form).
ABSORPTION_DB_PER_KM = (
    0.11 * _F2 / (1.0 + _F2) + 44.0 * _F2 / (4100.0 + _F2) + 2.75e-4 * _F2 + 0.003
)

# The four Wenz terms at the carrier, dB re 1 uPa / Hz.
_TURBULENCE_DB = 17.0 - 30.0 * math.log10(CARRIER_KHZ)
_SHIPPING_DB = (
    40.0
    + 20.0 * (SHIPPING - 0.5)
    + 26.0 * math.log10(CARRIER_KHZ)
    - 60.0 * math.log10(CARRIER_KHZ + 0.03)
)
_WIND_DB = (
    50.0
    + 7.5 * math.sqrt(WIND_MPS)
    + 20.0 * math.log10(CARRIER_KHZ)
    - 40.0 * math.log10(CARRIER_KHZ + 0.4)
)
_THERMAL_DB = -15.0 + 20.0 * math.log10(CARRIER_KHZ)

#: Band-integrated ambient noise level, dB re 1 uPa.
NOISE_LEVEL_DB = 10.0 * math.log10(
    10.0 ** (_TURBULENCE_DB / 10.0)
    + 10.0 ** (_SHIPPING_DB / 10.0)
    + 10.0 ** (_WIND_DB / 10.0)
    + 10.0 ** (_THERMAL_DB / 10.0)
) + 10.0 * math.log10(BANDWIDTH_HZ)
#: :data:`NOISE_LEVEL_DB` as linear power.
NOISE_POWER = 10.0 ** (NOISE_LEVEL_DB / 10.0)


class LinkBudget:
    """Received level, SNR and SINR at the fixed operating point.

    Holds no state.  :meth:`sinr_db_from_levels` stays an instance method
    so that it is looked up on the class at every call (instrumentation
    wraps it there); the others are static.
    """

    @staticmethod
    def received_level_db(distance_m: float) -> float:
        """RL = SL - A(l, f) in dB re 1 uPa.

        Distances below 1 m are clamped to 1 m (spreading loss 0 dB at the
        reference distance, as in NS-3).
        """
        distance_m = max(distance_m, 1.0)
        return SOURCE_LEVEL_DB - (
            SPREADING * 10.0 * math.log10(distance_m)
            + distance_m / 1000.0 * ABSORPTION_DB_PER_KM
        )

    @staticmethod
    def received_level_db_batch(distances_m: np.ndarray) -> np.ndarray:
        """Vector form of :meth:`received_level_db` over a distance array.

        Bit-identical with the scalar method for every element: the
        spreading and absorption terms use the same operations in the same
        order, and the ``log10`` stays on libm (``math.log10`` per element)
        because NumPy's SIMD ``np.log10`` is allowed up to 4 ulp of error
        and would break the scalar/vector equivalence the broadcast kernel
        is gated on.  The loop runs only when link geometry actually
        changed, never per delivery.
        """
        clamped = np.maximum(distances_m, 1.0)
        logs = np.fromiter(
            map(math.log10, clamped), dtype=np.float64, count=len(clamped)
        )
        return SOURCE_LEVEL_DB - (
            SPREADING * 10.0 * logs + (clamped / 1000.0) * ABSORPTION_DB_PER_KM
        )

    @staticmethod
    def noise_level_db() -> float:
        """Band-integrated ambient noise level in dB re 1 uPa."""
        return NOISE_LEVEL_DB

    @staticmethod
    def snr_db(distance_m: float) -> float:
        """Signal-to-(ambient)-noise ratio in dB at ``distance_m``."""
        return LinkBudget.received_level_db(distance_m) - NOISE_LEVEL_DB

    def sinr_db_from_levels(
        self,
        signal_level_db: float,
        interferer_levels_db: Iterable[float],
        extra_noise_db: float = 0.0,
    ) -> float:
        """SINR when received levels (dB) are already known.

        ``extra_noise_db`` raises the ambient noise floor by that many dB
        (transient impairment bursts from fault injection); 0.0 — the
        clean-run value — takes the exact pre-existing arithmetic path.

        This runs once per arrival (the single hottest arithmetic in a
        simulation), so the empty interferer case — the overwhelming
        majority — skips the generator sum.  The shortcut is exact:
        ``noise + 0.0`` is the IEEE identity for the positive noise power.
        """
        signal = 10.0 ** (signal_level_db / 10.0)
        noise = NOISE_POWER
        if extra_noise_db:
            noise *= 10.0 ** (extra_noise_db / 10.0)
        if interferer_levels_db:
            noise += sum(10.0 ** (level / 10.0) for level in interferer_levels_db)
        return 10.0 * math.log10(max(signal / noise, 1e-30))
