"""Random-walk history features on labelled graphs.

Walk histories are lifted into a truncated tensor algebra and averaged by
a generalized graph diffusion.  The package provides an exact dense
oracle, an edge-linear low-rank recursion for rank-1 functionals of the
same features, layer stacking with attention-weighted walks, and a CLI
for extraction, verification, and benchmarking.
"""

from .config import FeatureConfig
from .tensoralg import (
    DenseTensor,
    TruncatedTensorSequence,
    algebra_mul,
    inner_product,
    lift,
    sequence_feature,
    tensor_product,
)
from .graphs import (
    AttentionParams,
    DatasetError,
    LabelledGraph,
    RowStochastic,
    attention_transition,
    classic_diffusion,
    disjoint_union,
    grid_graph,
    load_tu_dataset,
    normalized_laplacian,
    path_graph,
    save_tu_dataset,
    transition_matrix,
    weighted_transition,
)
from .exact import (
    OracleScaleError,
    TensorMatrix,
    TensorVector,
    WalkBudgetError,
    enumerate_walk_expectation,
    forward_diffusion_exact,
    graph_feature_exact,
    node_features_exact,
    tensor_adjacency,
    tensor_mat_power_apply,
    tensor_transition,
)
from .lowrank import NonFiniteError, RankOneFunctional, batch_features
from .layers import (
    LayerParams,
    ModelConfig,
    init_params,
    l2_penalty,
    layer_forward,
    load_params,
    model_forward,
    save_params,
)

__version__ = "0.1.0"

__all__ = [
    "FeatureConfig",
    "DenseTensor",
    "TruncatedTensorSequence",
    "algebra_mul",
    "inner_product",
    "lift",
    "sequence_feature",
    "tensor_product",
    "AttentionParams",
    "DatasetError",
    "LabelledGraph",
    "RowStochastic",
    "attention_transition",
    "classic_diffusion",
    "disjoint_union",
    "grid_graph",
    "load_tu_dataset",
    "normalized_laplacian",
    "path_graph",
    "save_tu_dataset",
    "transition_matrix",
    "weighted_transition",
    "OracleScaleError",
    "TensorMatrix",
    "TensorVector",
    "WalkBudgetError",
    "enumerate_walk_expectation",
    "forward_diffusion_exact",
    "graph_feature_exact",
    "node_features_exact",
    "tensor_adjacency",
    "tensor_mat_power_apply",
    "tensor_transition",
    "NonFiniteError",
    "RankOneFunctional",
    "batch_features",
    "LayerParams",
    "ModelConfig",
    "init_params",
    "l2_penalty",
    "layer_forward",
    "load_params",
    "model_forward",
    "save_params",
]
