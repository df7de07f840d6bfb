"""Encoder / projector / regressor bundle built on the autodiff tape.

The bundle holds three trainable components plus an optional frozen copy
of the encoder:

* encoder: maps raw inputs to feature vectors (identity in feature mode),
* projector: residual map applied to stale feature vectors,
* regressor: shared trunk with a mean head and a softplus std head.

Every forward function takes a ``Tensor``; only ``predict`` takes an array,
which enters the tape as a constant. The frozen copy is a dict of
constants keyed like the encoder's own weights, so ``encode(frozen=True)``
runs the same forward pass on it; on constant inputs that pass records
nothing for ``backward``, and no gradient reaches the live encoder.

Each layer is one fused ``linear`` node. The trainable weights of a
component become views into one flat buffer when its optimizer state is
made, so they are updated, and loaded, in place.

Scores are predicted as ``mean + eps * std`` per row; evaluation uses
``eps = 0`` so predictions collapse to the mean head, and ``predict``
builds no std head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

STREAM_INIT = 4


def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic generator for (seed, stream)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, input first. ReLU between hidden layers, none on output."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError(f"MlpSpec needs at least 2 widths, got {self.widths}")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"MlpSpec widths must be positive, got {self.widths}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


@dataclass(frozen=True)
class BundleSpec:
    """Component specs plus the width checks that chain them together.

    ``encoder = None`` selects feature mode: inputs are already feature
    vectors and the encoder is the identity.
    """

    encoder: MlpSpec | None
    projector: MlpSpec
    trunk: MlpSpec

    def __post_init__(self):
        d = self.feature_width
        if self.projector.widths[0] != d or self.projector.widths[-1] != d:
            raise ValueError(
                f"projector widths {self.projector.widths} must start and end "
                f"at the feature width {d}")
        if self.trunk.widths[0] != d:
            raise ValueError(
                f"regressor trunk input {self.trunk.widths[0]} does not match "
                f"feature width {d}")

    @property
    def feature_width(self) -> int:
        if self.encoder is None:
            return self.projector.widths[0]
        return self.encoder.widths[-1]

    @property
    def input_width(self) -> int:
        if self.encoder is None:
            return self.feature_width
        return self.encoder.widths[0]


@dataclass
class ModelBundle:
    spec: BundleSpec
    encoder: dict[str, Tensor] | None
    projector: dict[str, Tensor]
    regressor: dict[str, Tensor]
    frozen_encoder: dict[str, Tensor] | None = None


def _init_layer(params: dict, prefix: str, i: int, fan_in: int, fan_out: int,
                rng: np.random.Generator) -> None:
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    params[f"{prefix}.w{i}"] = ad.leaf(w, name=f"{prefix}.w{i}")
    params[f"{prefix}.b{i}"] = ad.leaf(np.zeros((1, fan_out)), name=f"{prefix}.b{i}")


def _init_mlp(spec: MlpSpec, prefix: str, rng: np.random.Generator) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for i in range(spec.n_layers):
        _init_layer(params, prefix, i, spec.widths[i], spec.widths[i + 1], rng)
    return params


def init_bundle(spec: BundleSpec, seed: int) -> ModelBundle:
    """Deterministic init: weights U[-1/sqrt(fan_in), +1/sqrt(fan_in)], biases 0."""
    rng = make_rng(seed, STREAM_INIT)
    encoder = None if spec.encoder is None else _init_mlp(spec.encoder, "encoder", rng)
    projector = _init_mlp(spec.projector, "projector", rng)
    regressor = _init_mlp(spec.trunk, "regressor", rng)
    h = spec.trunk.widths[-1]
    _init_layer(regressor, "regressor.mean", 0, h, 1, rng)
    _init_layer(regressor, "regressor.std", 0, h, 1, rng)
    return ModelBundle(spec=spec, encoder=encoder, projector=projector,
                       regressor=regressor)


def _mlp_forward(params: dict[str, Tensor], prefix: str, n_layers: int, x: Tensor,
                 output_relu: bool = False) -> Tensor:
    h = x
    for i in range(n_layers):
        h = ad.linear(h, params[f"{prefix}.w{i}"], params[f"{prefix}.b{i}"])
        if i < n_layers - 1 or output_relu:
            h = ad.relu(h)
    return h


def encode(bundle: ModelBundle, x: Tensor, frozen: bool = False) -> Tensor:
    """Map an n x d_x input batch to n x D features.

    ``frozen=True`` routes through the frozen encoder copy, whose weights
    are constants.
    """
    if x.cols != bundle.spec.input_width:
        raise ad.ShapeError(f"input width {x.cols} does not match "
                            f"bundle input {bundle.spec.input_width}")
    if bundle.spec.encoder is None:
        return x
    params = bundle.encoder
    if frozen:
        if bundle.frozen_encoder is None:
            raise ValueError("no frozen encoder copy; call freeze_copy first")
        params = bundle.frozen_encoder
    return _mlp_forward(params, "encoder", bundle.spec.encoder.n_layers, x)


def project(bundle: ModelBundle, h: Tensor, residual: bool = True) -> Tensor:
    """Apply the projector: ``h + p(h)``, or ``p(h)`` when ``residual`` is off."""
    if h.cols != bundle.spec.feature_width:
        raise ad.ShapeError(f"feature width {h.cols} does not match "
                            f"bundle feature width {bundle.spec.feature_width}")
    p = _mlp_forward(bundle.projector, "projector", bundle.spec.projector.n_layers, h)
    if residual:
        return ad.add(h, p)
    return p


def _trunk_and_mean(bundle: ModelBundle, h: Tensor) -> tuple[Tensor, Tensor]:
    trunk = _mlp_forward(bundle.regressor, "regressor", bundle.spec.trunk.n_layers,
                         h, output_relu=True)
    params = bundle.regressor
    return trunk, ad.linear(trunk, params["regressor.mean.w0"], params["regressor.mean.b0"])


def regress(bundle: ModelBundle, h: Tensor, eps=None) -> tuple[Tensor, Tensor, Tensor]:
    """Score a feature batch; returns (mean, std, sample) column tensors.

    ``eps`` is an n x 1 array of noise draws; None means zeros, in which
    case the sampled score equals the mean exactly.
    """
    trunk, mean = _trunk_and_mean(bundle, h)
    params = bundle.regressor
    std = ad.softplus(ad.linear(trunk, params["regressor.std.w0"],
                                params["regressor.std.b0"]))
    if eps is None:
        return mean, std, mean
    e = np.asarray(eps, dtype=np.float64)
    if e.shape != (h.rows, 1):
        raise ad.ShapeError(f"eps shape {e.shape} does not match batch ({h.rows}, 1)")
    sample = ad.add(mean, ad.mul(ad.const(e), std))
    return mean, std, sample


def predict(bundle: ModelBundle, x) -> np.ndarray:
    """Deterministic scores (eps = 0) for an input batch, as a flat array."""
    _, mean = _trunk_and_mean(bundle, encode(bundle, ad.const(x)))
    return mean.value[:, 0].copy()


def freeze_copy(bundle: ModelBundle) -> None:
    """Snapshot the encoder weights as constants. Identity encoders have no
    weights, so there is nothing to snapshot."""
    if bundle.spec.encoder is not None:
        bundle.frozen_encoder = {name: ad.const(p.value.copy())
                                 for name, p in bundle.encoder.items()}


def components(bundle: ModelBundle) -> dict[str, dict[str, Tensor]]:
    """Trainable parameter groups keyed by component name."""
    out = {"projector": bundle.projector, "regressor": bundle.regressor}
    if bundle.encoder is not None:
        out["encoder"] = bundle.encoder
    return out
