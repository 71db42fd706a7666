"""Synthetic double quantum dot tuning: device model, classifier, optimizer."""

from .device import (
    DOMAIN_MV,
    DeviceParams,
    load_device,
    reference_device,
    render_scan,
    sample_device,
    save_device,
    state_at,
)
from .classifier import (
    ClassifierModel,
    EvalReport,
    LabeledSample,
    ModelClassifier,
    OracleClassifier,
    ProbabilityVector,
    TrainingConfig,
    classify,
    dataset_arrays,
    evaluate,
    generate_dataset,
    init_model,
    loss_and_gradients,
    load_dataset,
    load_model,
    oracle_probability,
    save_dataset,
    save_model,
    train,
)
from .errors import (
    ConfigurationError,
    DomainError,
    QdtuneError,
    ScanFormatError,
    ScanVersionError,
    ShapeError,
    TrainingDivergedError,
    UnsupportedResolutionError,
)
from .grids import LabelGrid, ScanGrid, ScanMeta, StateLabel
from .harness import (
    ExperimentReport,
    HeatmapResult,
    IterationStats,
    LandscapeResult,
    SuccessRegions,
    fitness_landscape,
    ground_truth_dd_fraction,
    heatmap,
    iteration_stats,
    neighborhood_experiment,
    study,
    write_iteration_csv,
    write_success_csv,
    write_summary_text,
)
from .preprocess import IMAGE_SIZE, process
from .scans import (
    SCAN_SUFFIX,
    Blocked,
    PremeasuredScan,
    Sandbox,
    SimulatedDevice,
    acquire_with_labels,
    load_scan,
    save_scan,
)
from .tuner import (
    TARGET_DOUBLE_DOT,
    DynamicSimplex,
    FitnessConfig,
    FixedSimplex,
    NelderMeadResult,
    Outcome,
    TerminationConfig,
    TuningRun,
    TuningStep,
    autotune,
    fitness,
    initial_simplex,
    nelder_mead,
    penalty_g,
)

__version__ = "0.1.0"
