"""The benchmark's per-layer ledger still sees every layer of the program.

``perfbench/tracer.py`` charges time to layers by wrapping named entry
points and reading named counters; a name it cannot resolve is reported in
``missing`` and silently skipped.  A rename under ``src/`` therefore blinds
a ledger layer without failing anything, unless this test catches it.
"""

from __future__ import annotations

from perfbench.tracer import Tracer
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario

#: Names the ledger lists although the program no longer has them: the
#: per-draw PER model and the scalar link-state cache were deleted, and
#: the skipped-row counters went with the delta epochs.  Nothing else may
#: go missing.
KNOWN_STALE = {
    "repro.acoustic.per:PerModel.is_successful",
    "repro.phy.linkcache:LinkStateCache.link",
    "repro.phy.linkcache:LinkStateCache.in_range_ids",
    "phy.vectorized.rows_skipped",
}


def test_no_ledger_entry_point_or_counter_goes_missing():
    config = table2_config(n_sensors=12, sim_time_s=20.0, seed=5)
    tracer = Tracer().install()
    try:
        Scenario(config).run_steady_state()
    finally:
        tracer.uninstall()
    report = tracer.report()
    assert set(report["missing"]) <= KNOWN_STALE
    # The link budget's SINR is the acoustic layer's one entry point.
    assert report["names"]["LinkBudget.sinr_db_from_levels"] > 0
    assert report["self_s"]["acoustic"] > 0.0
    assert report["counters"]["des.events"] > 0
