"""Exact interaction detection and salience for small neural networks.

Forward-mode automatic differentiation over a subset lattice gives exact
mixed partial derivatives of trained models; on top of that sit an
interaction detector for tabular models, a salience-tensor generalization
of gradient-times-input attribution for grid inputs, a synthetic
benchmark suite with analytic ground truth, and ranking evaluation.

Importing the package pins numpy's OpenBLAS to one thread (``blas``), so
trained weights do not depend on the machine's core count.  The
detector is ``xdiff.detect.detect``; the package does not re-export it,
so that ``xdiff.detect`` stays the module of that name.
"""

from . import blas

blas.pin()

from .autodiff import (  # noqa: E402
    CapacityError,
    CrossDual,
    DomainError,
    MAX_TAGS,
    SingularityError,
    TagMismatchError,
    cross_partial,
)
from .benchmarks import (  # noqa: E402
    FUNCTIONS,
    GroundTruth,
    SynthFunction,
    eval_function,
    get_function,
    ground_truth,
    pairwise_truth,
    sample_dataset,
)
from .detect import (  # noqa: E402
    DetectConfig,
    InteractionRanking,
    Representative,
    SweepRow,
    aggregation_sweep,
    binned_mode,
    local_ies,
    representative_samples,
    verify_extension_schedule,
)
from .evaluate import (  # noqa: E402
    AucReport,
    UndefinedAucError,
    auc,
    default_pipeline,
    mean_truth_auc,
    pair_scores,
    pairwise_suite,
    truth_auc_per_order,
)
from .mlp import (  # noqa: E402
    ActivationError,
    Dataset,
    Mlp,
    MlpConfig,
    Normalizer,
    TrainConfig,
    TrainingError,
    TrainingReport,
    forward,
    gelu,
    load_csv,
    load_model,
    normalize,
    save_csv,
    save_model,
    train,
)
from .salience import (  # noqa: E402
    CamOptions,
    FeatureGrid,
    SalienceTensor,
    grad_cam,
    hessian_cam,
    render_heatmap,
    symmetrize,
    taylor_cam,
    top_interactions,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationError",
    "AucReport",
    "CamOptions",
    "CapacityError",
    "CrossDual",
    "Dataset",
    "DetectConfig",
    "DomainError",
    "FUNCTIONS",
    "FeatureGrid",
    "GroundTruth",
    "InteractionRanking",
    "MAX_TAGS",
    "Mlp",
    "MlpConfig",
    "Normalizer",
    "Representative",
    "SalienceTensor",
    "SingularityError",
    "SweepRow",
    "SynthFunction",
    "TagMismatchError",
    "TrainConfig",
    "TrainingError",
    "TrainingReport",
    "UndefinedAucError",
    "aggregation_sweep",
    "auc",
    "binned_mode",
    "cross_partial",
    "default_pipeline",
    "eval_function",
    "forward",
    "gelu",
    "get_function",
    "grad_cam",
    "ground_truth",
    "hessian_cam",
    "load_csv",
    "load_model",
    "local_ies",
    "mean_truth_auc",
    "normalize",
    "pair_scores",
    "pairwise_suite",
    "pairwise_truth",
    "render_heatmap",
    "representative_samples",
    "sample_dataset",
    "save_csv",
    "save_model",
    "symmetrize",
    "taylor_cam",
    "top_interactions",
    "train",
    "truth_auc_per_order",
    "verify_extension_schedule",
]
