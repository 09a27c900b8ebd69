"""Experiment harness: Table 2 configs, scenarios, sweeps, figure plans."""

from ..faults import FaultPlan, FaultReport
from .cache import ResultCache, cell_key, code_version
from .chaos import CHAOS, CHAOS_PROTOCOLS, ChaosSummary, chaos_plan
from .engine import (
    PAPER_PROTOCOLS,
    EngineError,
    FigurePlan,
    PlanOutcome,
    SweepRequest,
    SweepResult,
    SweepSpec,
    aggregate,
    aggregate_relative,
    apply_overrides,
    observe_sweeps,
    request_key,
    request_plan,
    run_plans,
    run_request,
    service_targets,
    target_groups,
    targets,
)
from .config import TABLE2, ScenarioConfig, table2_config
from .figures import ALL_PLANS, FigureData, PlanRow
from .parallel import (
    CellFailure,
    ParallelSweepRunner,
    SweepCell,
    SweepStats,
    expand_cells,
)
from .report import format_figure, write_csv
from .ablations import ALL_ABLATIONS
from .scenario import Scenario, ScenarioResult, run_scenario
from .timeline import (
    TimelineEntry,
    extra_exploitation_summary,
    extract_timeline,
    format_timeline,
)

__all__ = [
    "ALL_ABLATIONS",
    "ALL_PLANS",
    "CHAOS",
    "CHAOS_PROTOCOLS",
    "CellFailure",
    "ChaosSummary",
    "EngineError",
    "FaultPlan",
    "FaultReport",
    "FigureData",
    "FigurePlan",
    "chaos_plan",
    "TimelineEntry",
    "extra_exploitation_summary",
    "extract_timeline",
    "format_timeline",
    "PAPER_PROTOCOLS",
    "ParallelSweepRunner",
    "PlanOutcome",
    "PlanRow",
    "ResultCache",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "SweepCell",
    "SweepStats",
    "SweepRequest",
    "SweepResult",
    "SweepSpec",
    "TABLE2",
    "aggregate",
    "aggregate_relative",
    "apply_overrides",
    "cell_key",
    "code_version",
    "expand_cells",
    "format_figure",
    "observe_sweeps",
    "request_key",
    "request_plan",
    "run_plans",
    "run_request",
    "run_scenario",
    "service_targets",
    "table2_config",
    "target_groups",
    "targets",
    "write_csv",
]
