"""survshape: shape-function explanations for black-box survival models.

Fits an additive surrogate (one small subnetwork per feature) to the
cumulative hazards predicted by any survival black box, yielding centered
per-feature contribution curves, optional sparse (L1) and linear-bypass
variants, a reference random survival forest, and the survival metrics
needed to judge the fit.
"""

__version__ = "0.1.0"

from .data import (
    DatasetSchema,
    export_csv,
    load_prepared_csv,
    train_test_split,
)
from .errors import (
    AlignmentError,
    DataError,
    DiameterUndefinedError,
    GridDegenerateError,
    MetricUndefinedError,
    NumericError,
    SchemaError,
    SurvShapeError,
    TrainingDivergedError,
)
from .explain import (
    Explanation,
    FitDiagnostics,
    Neighborhood,
    build_neighborhood,
    build_targets,
    dataset_diameter,
    explain_global,
    explain_local,
    generate_perturbations,
    neighborhood_weights,
    surrogate_c_index,
)
from .forest import (
    ForestConfig,
    SurvivalForest,
    fit_forest,
    load_forest,
    predict_chf_matrix,
    save_forest,
)
from .nam import (
    NamConfig,
    NamModel,
    ShapeCurve,
    TargetBatch,
    init_model,
    load_model,
    loss_and_gradient,
    predict_log_risk,
    save_model,
    shape_curve,
    train,
)
from .report import write_explanation_csv, write_shapes_svg
from .survival import (
    KIND_NUMERIC,
    KIND_ONE_HOT,
    PiecewiseChf,
    SurvivalDataset,
    TimeGrid,
    build_time_grid,
    concordance_index,
    nelson_aalen,
    risk_scores,
)
from .synthetic import (
    ExactCoxPredictor,
    SyntheticSpec,
    finite_difference_gradient,
    generate_cox_data,
    oracle_psi_star,
)
