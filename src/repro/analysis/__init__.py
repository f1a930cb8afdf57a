"""Analysis layer: §5 transaction-structure analysis and the paper's
figure scenarios."""

from .figures import (
    Figure1Scenario,
    drive_figure1,
    drive_figure2,
    figure3a,
    figure3b,
    figure3c,
    figure4_transaction,
    figure4_transaction_without_ck,
    figure5_transaction,
)
from .planner import (
    KillInterval,
    RetentionPlan,
    kill_intervals,
    plan_retention,
    planned_allocator,
    well_defined_after,
)
from .structure import (
    StructureReport,
    cluster_writes,
    clustering_score,
    is_three_phase,
    run_alone,
    static_sdg,
    structure_report,
    three_phase_variant,
    well_defined_count,
    well_defined_states,
)

__all__ = [
    "Figure1Scenario",
    "KillInterval",
    "RetentionPlan",
    "kill_intervals",
    "plan_retention",
    "planned_allocator",
    "well_defined_after",
    "StructureReport",
    "cluster_writes",
    "clustering_score",
    "drive_figure1",
    "drive_figure2",
    "figure3a",
    "figure3b",
    "figure3c",
    "figure4_transaction",
    "figure4_transaction_without_ck",
    "figure5_transaction",
    "is_three_phase",
    "run_alone",
    "static_sdg",
    "structure_report",
    "three_phase_variant",
    "well_defined_count",
    "well_defined_states",
]
