"""Kolmogorov-Arnold networks on numpy, plus a credit-default scoring pipeline.

The library implements spline-parametrised networks (learnable activations
on edges, plain sums on nodes), manual reverse-mode gradients, Adam, rank
based ROC analysis, and edge-score feature attribution.  The ``kancredit``
CLI wires these into train / eval / explain / sweep workflows for the
Give Me Some Credit dataset.
"""

from kancredit.splines import (
    KnotVector,
    SplineParams,
    make_knot_vector,
    knot_span,
    basis_values,
    basis_derivatives,
    eval_spline,
)
from kancredit.network import (
    ActivationEdge,
    KanLayer,
    KanNetwork,
    ForwardTrace,
    init_network,
    edge_forward,
    layer_forward,
    network_forward,
    network_logits,
    network_probabilities,
    predict_proba,
    parameter_count,
    flatten_params,
    set_params,
    save_network,
    load_network,
    sigmoid,
    silu,
)
from kancredit.training import (
    TrainConfig,
    TrainReport,
    AdamState,
    bce_with_logits,
    backward,
    adam_step,
    train,
    grad_check,
)
from kancredit.metrics import (
    ConfusionCounts,
    RocPoint,
    confusion_at_threshold,
    precision_recall_f1,
    roc_auc,
    roc_curve,
    classification_report,
)
from kancredit.data import (
    FEATURE_NAMES,
    LABEL_NAME,
    RawTable,
    PreprocessPolicy,
    Scaler,
    Dataset,
    load_gmsc_csv,
    preprocess,
    split,
    dataset_from_arrays,
    write_dataset_csv,
    write_scaler_text,
)
from kancredit.explain import (
    EdgeScoreMatrix,
    AttributionReport,
    DecisionPath,
    edge_scores,
    propagate_scores,
    feature_attribution,
    export_dot,
    decision_path,
    decision_path_text,
    sample_activation_curves,
)
from kancredit.baseline import (
    LogisticModel,
    train_logistic,
    logistic_predict,
    logistic_probabilities,
    save_logistic,
    load_logistic,
)

__version__ = "0.1.0"
