"""Stacked feature layers: rank-1 batches, linear mixing, and pooling.

Forward inference only.  Each layer turns n x d node attributes into an
n x R feature matrix by projecting walk-history features onto R rank-1
functionals (all M degrees each) and mixing the R*M values back down to
R; stacked layers feed one layer's output to the next as attributes, so
the effective walk length grows additively.  The model then pools the
last layer's node rows per graph, or with pooling None returns them.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import FeatureConfig
from .graphs import (
    AttentionParams, LabelledGraph, attention_transition, block_offsets, frozen, transition_matrix,
)
from .lowrank import NonFiniteError, batch_features


@dataclass(frozen=True)
class LayerParams:
    """Parameters of one feature layer.

    ``vectors`` holds the component vectors of the R rank-1 functionals as
    one array of shape ``config.functional_shape(attr_dim)``.
    """

    vectors: np.ndarray
    mixing: np.ndarray
    bias: np.ndarray
    config: FeatureConfig
    attention: AttentionParams | None = None

    def __post_init__(self):
        named = {"vectors": "component vectors", "mixing": "mixing", "bias": "bias"}
        for name, what in named.items():
            object.__setattr__(self, name, frozen(getattr(self, name), what=what))
        vectors, mixing, bias = self.vectors, self.mixing, self.bias
        if vectors.ndim != 3 or 0 in vectors.shape:
            raise ValueError(f"vectors must be (R, M, dim), got {vectors.shape}")
        shape = self.config.functional_shape(self.attr_dim)
        if vectors.shape != shape:
            raise ValueError(f"vectors must be (R, M, dim) = {shape}, got {vectors.shape}")
        rank, deg, _ = shape
        if mixing.shape != (rank, rank * deg):
            raise ValueError(f"mixing must be ({rank}, {rank * deg}), got {mixing.shape}")
        if bias.shape != (rank,):
            raise ValueError(f"bias must be ({rank},), got {bias.shape}")
        if self.attention is not None and self.attention.dim != self.attr_dim:
            raise ValueError(
                f"attention dim {self.attention.dim} does not match attributes {self.attr_dim}"
            )

    @property
    def rank(self) -> int:
        return self.config.rank

    @property
    def attr_dim(self) -> int:
        """Attribute width this layer expects."""
        return int(self.vectors.shape[2]) - self.config.lift_dim(0)


@dataclass(frozen=True)
class ModelConfig:
    """An ordered stack of layers plus the final pooling mode: "mean",
    "sum", or None for the last layer's node rows unpooled."""

    layers: tuple[LayerParams, ...]
    pooling: str | None = "mean"
    seed: int | None = None

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("need at least one layer")
        if self.pooling not in ("mean", "sum", None):
            raise ValueError(f"pooling must be 'mean', 'sum' or None, got {self.pooling!r}")
        if self.seed is not None:
            if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
                raise ValueError(f"seed must be None or an integer, got {self.seed!r}")
            object.__setattr__(self, "seed", int(self.seed))
        for prev, nxt in zip(layers, layers[1:]):
            if prev.rank != nxt.attr_dim:
                raise ValueError(
                    f"dimension chain violation: layer output {prev.rank} feeds "
                    f"layer expecting {nxt.attr_dim}"
                )
        object.__setattr__(self, "layers", layers)


def init_params(
    d: int,
    cfg: FeatureConfig,
    seed,
    attention: bool = False,
    heads: int = 1,
) -> LayerParams:
    """Draw layer parameters for attribute width d, deterministic in seed.

    Component vectors are centered uniform with variance 1/fan-in per
    component (fan-in is the lift dimension for the u-vectors and R*M for
    the mixing matrix); the bias starts at zero.  ``seed`` may be an int
    or a numpy SeedSequence; each functional draws from its own spawned
    substream.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rank, deg, dim = cfg.functional_shape(d)
    children = seq.spawn(rank + 2)
    bound_u = math.sqrt(3.0 / dim)
    vectors = np.stack([
        np.random.default_rng(children[j]).uniform(-bound_u, bound_u, size=(deg, dim))
        for j in range(rank)
    ])
    bound_mix = math.sqrt(3.0 / (rank * deg))
    mixing = np.random.default_rng(children[rank]).uniform(
        -bound_mix, bound_mix, size=(rank, rank * deg)
    )
    attn = None
    if attention:
        rng = np.random.default_rng(children[rank + 1])
        bound_a = math.sqrt(3.0 / d)
        attn = AttentionParams(
            rng.uniform(-bound_a, bound_a, size=(heads, d)),
            rng.uniform(-bound_a, bound_a, size=(heads, d)),
        )
    return LayerParams(vectors, mixing, np.zeros(rank), cfg, attn)


def layer_forward(g: LabelledGraph, attributes, params: LayerParams) -> np.ndarray:
    """One layer: walk features on the given attributes, mixed down to (n, R).

    Raises :class:`~hypograph.lowrank.NonFiniteError` if the features or
    the mixed rows overflow.
    """
    attributes = np.asarray(attributes, dtype=np.float64)
    if attributes.shape != (g.n, params.attr_dim):
        raise ValueError(
            f"expected attributes ({g.n}, {params.attr_dim}), got {attributes.shape}"
        )
    graph = g.with_attributes(attributes)
    if params.attention is not None:
        p = attention_transition(graph, params.attention)
    else:
        p = transition_matrix(graph)
    feats = batch_features(graph, p, params.vectors, params.config)
    with np.errstate(over="ignore", invalid="ignore"):
        out = feats @ params.mixing.T + params.bias
    if not np.isfinite(out).all():
        raise NonFiniteError("non-finite value after mixing")
    return out


def model_forward(g: LabelledGraph, model: ModelConfig, offsets=None) -> np.ndarray:
    """Fold the layer stack over the graph and pool node features.

    Returns one (R,) row, or with ``offsets`` (as from
    :func:`~hypograph.graphs.disjoint_union`) a (G, R) array pooling each
    node segment ``offsets[i]:offsets[i + 1]`` on its own.  With pooling
    None it returns the last layer's (n, R) node rows, offsets or not.
    Raises :class:`~hypograph.lowrank.NonFiniteError` naming the layer,
    or the pooling, where a value overflows.
    """
    single = offsets is None
    offsets = block_offsets([0, g.n] if single else offsets, g.n)
    x = g.attributes
    for idx, layer in enumerate(model.layers):
        try:
            x = layer_forward(g, x, layer)
        except NonFiniteError as exc:
            raise NonFiniteError(f"layer {idx + 1}: {exc}") from exc
    if model.pooling is None:
        return x
    pool = np.mean if model.pooling == "mean" else np.sum
    with np.errstate(over="ignore", invalid="ignore"):
        pooled = np.stack([pool(x[a:b], axis=0) for a, b in zip(offsets[:-1], offsets[1:])])
    if not np.isfinite(pooled).all():
        raise NonFiniteError(f"non-finite value after {model.pooling} pooling")
    return pooled[0] if single else pooled


def l2_penalty(params: LayerParams, lam: float) -> float:
    """Tensor-norm penalty: lam * sum over functionals and degrees of the
    product of squared component-vector norms of each degree's suffix.

    Equals the squared entry norm of every materialized functional level,
    computed without building any tensors.
    """
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    sq = np.sum(params.vectors**2, axis=2)  # ||u_s||^2 per functional, s = 1..M
    # column m-1 of the reversed cumulative product is the degree-m suffix product
    return lam * float(np.sum(np.cumprod(sq[:, ::-1], axis=1)))


MODEL_FORMAT = "hypograph-model"
MODEL_VERSION = 1


def save_params(path: str, model: ModelConfig) -> None:
    """Serialize a model to versioned JSON.

    Field order is fixed: header, then per layer the FeatureConfig fields
    in declaration order, the u-vectors grouped by functional then
    position, the mixing matrix in row-major order, the bias, and the
    optional attention weights.  Floats round-trip exactly.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "pooling": model.pooling,
        "seed": model.seed,
        "layers": [],
    }
    for layer in model.layers:
        entry = asdict(layer.config)
        entry["u_vectors"] = layer.vectors.tolist()
        entry["mixing"] = layer.mixing.tolist()
        entry["bias"] = layer.bias.tolist()
        entry["attention"] = (
            None
            if layer.attention is None
            else {
                "w_source": layer.attention.w_source.tolist(),
                "w_target": layer.attention.w_target.tolist(),
            }
        )
        doc["layers"].append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_params(path: str) -> ModelConfig:
    """Load a model saved by :func:`save_params`; every ``ValueError`` it
    raises names ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{exc} in {path}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported version {doc.get('version')} in {path}")
    for key in ("layers", "pooling"):
        if key not in doc:
            raise ValueError(f"missing field {key!r} in {path}")
    if not isinstance(doc["layers"], list):
        raise ValueError(f"field 'layers' must be a list in {path}")
    layers = []
    for idx, entry in enumerate(doc["layers"], start=1):
        if not isinstance(entry, dict):
            raise ValueError(f"layer {idx}: not an object in {path}")
        try:
            attn = entry.get("attention")
            if attn is not None:
                if not isinstance(attn, dict):
                    raise ValueError("field 'attention' must be null or an object")
                attn = AttentionParams(attn["w_source"], attn["w_target"])
            cfg = FeatureConfig(**{f.name: entry[f.name] for f in fields(FeatureConfig)})
            arrays = (entry["u_vectors"], entry["mixing"], entry["bias"])
            layers.append(LayerParams(*arrays, cfg, attn))
        except KeyError as exc:
            raise ValueError(f"layer {idx}: missing field {exc.args[0]!r} in {path}") from None
        except ValueError as exc:
            raise ValueError(f"layer {idx}: {exc} in {path}") from exc
    try:
        return ModelConfig(tuple(layers), doc["pooling"], doc.get("seed"))
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from exc
