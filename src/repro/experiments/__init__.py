"""Experiment harness: the Section VII testbed and figure/table runners."""

from .calibration import CalibrationRow, format_calibration, run_calibration
from .figures import (
    AccuracyRow,
    DocumentsRow,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    task_statistics,
)
from .report import generate_report, write_report
from .reporting import (
    format_accuracy_rows,
    format_documents_rows,
    format_table,
    format_table2_rows,
)
from .sweeps import FrontierPoint, format_frontier, quality_frontier
from .table2 import (
    TABLE2_REQUIREMENTS,
    Table2Row,
    build_trajectories,
    record_trajectory,
    run_table2,
    time_to_meet,
)
from .testbed import (
    CHARACTERIZATION_THETAS,
    MULTIWAY_SCENARIOS,
    JoinTask,
    MultiwayConfig,
    MultiwayScenario,
    MultiwayTestbed,
    Testbed,
    TestbedConfig,
    build_multiway_testbed,
    build_testbed,
)

__all__ = [
    "AccuracyRow",
    "CHARACTERIZATION_THETAS",
    "CalibrationRow",
    "DocumentsRow",
    "FrontierPoint",
    "JoinTask",
    "MULTIWAY_SCENARIOS",
    "MultiwayConfig",
    "MultiwayScenario",
    "MultiwayTestbed",
    "TABLE2_REQUIREMENTS",
    "Table2Row",
    "Testbed",
    "TestbedConfig",
    "build_multiway_testbed",
    "build_testbed",
    "build_trajectories",
    "format_accuracy_rows",
    "format_documents_rows",
    "format_calibration",
    "format_frontier",
    "format_table",
    "format_table2_rows",
    "generate_report",
    "quality_frontier",
    "record_trajectory",
    "run_calibration",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "run_table2",
    "task_statistics",
    "time_to_meet",
    "write_report",
]
