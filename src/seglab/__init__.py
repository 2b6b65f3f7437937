"""seglab: a desk-scale laboratory for segmentation loss functions.

Implements the soft dice loss and its analytic two-valued gradient, the
cross-entropy baseline, the linear "mime" losses whose gradients are fixed
weighted negatives of the labels, a finite-difference oracle plus structural
audits for every gradient, a small convolutional segmenter with hand-written
backpropagation, SGD/Adam with a plateau scheduler, deterministic synthetic
datasets, and the evaluation metrics (hard DSC, ClECE).  Experiments are
configured by :mod:`seglab.config`, trained and scored by the engine in
:mod:`seglab.train`, and run from the ``segLab`` command line in
:mod:`seglab.cli`.
"""

from .errors import (
    ConfigError,
    OracleError,
    SegLabError,
    ShapeMismatchError,
    StaleCacheError,
    TrainingAbortError,
    UndefinedRangeError,
    ValidationError,
)
from .grid import (
    ClassSet,
    GradientMap,
    GridShape,
    LabelMap,
    ProbabilityMap,
    overlap_stats,
)
from .losses import (
    LossConfig,
    ce_grad,
    ce_loss,
    combined_loss,
    combined_value,
    dice_grad,
    dice_loss,
    mime_grad,
    mime_loss,
    mime_weights,
    nm_grad,
    nm_loss,
)
from .gradcheck import (
    GradAuditReport,
    audit_bound,
    audit_two_valued,
    dynamic_range_db,
    export_gradient_map,
    finite_diff_grad,
    max_relative_error,
)
from .net import SegNet, backward, forward, load_checkpoint, save_checkpoint, softmax, softmax_backward
from .optim import (
    AdamState,
    MomentumState,
    OptimizerConfig,
    SchedulerState,
    adam_step,
    default_optimizer_config,
    scheduler_step,
    sgd_step,
)
from .synthdata import DatasetSpec, Sample, augment, export_dataset, generate, generate_split
from .metrics import argmax_dsc, argmax_predict, clece, clece_report, dsc, evaluate_sample

__version__ = "0.1.0"
