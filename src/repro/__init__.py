"""repro — reproduction of "A Protocol for Efficient Transmissions in UASNs".

A full-stack underwater acoustic sensor network (UASN) simulator and the
EW-MAC protocol it evaluates, reproduced from Hung & Luo (ICDCS 2013
workshop paper; extended as *Sensors* 2016, 16, 343).

Layering (bottom up):

* :mod:`repro.des` — discrete-event simulation kernel
* :mod:`repro.acoustic` — underwater channel physics (Thorp, Wenz, SINR)
* :mod:`repro.phy` — frames, half-duplex modems, broadcast channel
* :mod:`repro.net` — nodes, clocks, neighbour tables
* :mod:`repro.topology` — deployment, mobility, depth routing
* :mod:`repro.traffic` — workload generators
* :mod:`repro.mac` — slotted MAC engine + S-FAMA / ROPA / CS-MAC baselines
* :mod:`repro.core` — **EW-MAC**, the paper's contribution
* :mod:`repro.energy`, :mod:`repro.metrics` — Eqs. (2)-(4) and overhead
* :mod:`repro.experiments` — Table 2 configs and Figs. 6-11 runners

Quickstart::

    from repro.experiments import run_scenario, table2_config

    result = run_scenario(table2_config(protocol="EW-MAC",
                                        offered_load_kbps=0.6))
    print(result.throughput_kbps, result.power_mw)
"""

from .core.ewmac import EwMac
from .experiments import (
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
    table2_config,
)
from .mac import CsMac, Ropa, SFama, get_protocol

__version__ = "1.0.0"

__all__ = [
    "CsMac",
    "EwMac",
    "Ropa",
    "SFama",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "__version__",
    "get_protocol",
    "run_scenario",
    "table2_config",
]
