"""Absolute-value state estimation and leverage-point diagnostics.

The package solves least-absolute-value (LAV) estimation problems for
linear measurement models and identifies leverage points -- rows of the
model matrix that let a single bad measurement drag the whole estimate --
through one small LAV fit per row that finds the best basis of the
inequality test, with a projection-statistics baseline, power-network
model builders, and experiment runners that check the bundled benchmark
reference results.
"""

from .errors import (
    DimensionMismatch,
    DisconnectedBus,
    EmptyPartition,
    IndexOutOfRange,
    InvalidArgument,
    LavseError,
    MaxIterations,
    NonFinite,
    ParseError,
    PreconditionError,
    RankDeficient,
    UnboundedProblem,
    UnknownLabel,
    UnsupportedKind,
)
from .lav import LavSolution, objective_at, solve_lav
from .leverage import (
    BOUNDARY,
    CLEAN,
    LEVERAGE,
    LeverageReport,
    LeverageWitness,
    Partition,
    PartitionedReport,
    combination_count,
    detect_all,
    detect_partitioned,
    detect_row,
    leverage_margin,
    load_partitions,
    partitions_from_dict,
    resolve_partition,
)
from .model import (
    MeasurementModel,
    ProjectionDiagnostics,
    format_matrix_csv,
    load_matrix_csv,
    load_model,
    matrix_rank,
    model_from_dict,
    model_to_dict,
    projection_matrix,
    save_matrix_csv,
    save_model,
    validate_model,
)
from .power import (
    GrossErrorSpec,
    Line,
    MeasurementSpec,
    NetworkModel,
    build_dc_model,
    build_pmu_model,
    fixture_model,
    fixture_network,
    inject_gross_errors,
    load_network,
    pmu_blocks,
    save_network,
)
from .projstats import PSReport, chi2_quantile, compute_ps

__version__ = "0.1.0"
