"""Random-walk history features on labelled graphs.

Walk histories are lifted into a truncated tensor algebra and averaged by
a generalized graph diffusion.  The package provides an exact dense
oracle, an edge-linear low-rank recursion for rank-1 functionals of the
same features, layer stacking with attention-weighted walks, and a CLI
for extraction, verification, and benchmarking.

The names below are the user surface.  The oracle and its algebra are
imported from :mod:`hypograph.exact`.
"""

from .config import FeatureConfig
from .graphs import (
    AttentionParams,
    DatasetError,
    LabelledGraph,
    NonFiniteError,
    RowStochastic,
    attention_transition,
    classic_diffusion,
    disjoint_union,
    grid_graph,
    load_tu_dataset,
    path_graph,
    save_tu_dataset,
    transition_matrix,
    weighted_transition,
)
from .lowrank import batch_features
from .layers import (
    LayerParams,
    ModelConfig,
    init_params,
    l2_penalty,
    layer_forward,
    model_forward,
)

__version__ = "0.1.0"

__all__ = [
    "FeatureConfig",
    "AttentionParams",
    "DatasetError",
    "LabelledGraph",
    "RowStochastic",
    "attention_transition",
    "classic_diffusion",
    "disjoint_union",
    "grid_graph",
    "load_tu_dataset",
    "path_graph",
    "save_tu_dataset",
    "transition_matrix",
    "weighted_transition",
    "NonFiniteError",
    "batch_features",
    "LayerParams",
    "ModelConfig",
    "init_params",
    "l2_penalty",
    "layer_forward",
    "model_forward",
]
