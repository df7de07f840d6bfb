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

These tape functions serve evaluation (``predict``), the bank's refresh
and store (``project``, ``encode``) and the tests; the training step runs
the same arithmetic through ``autodiff``'s array-level halves, with the
checks of ``check_width`` and ``encoder_params``. Each MLP pass is one
fused ``autodiff.mlp`` node, and a sampled score (trunk, both heads and
the noise) one ``autodiff.sampled_score`` node. Each component's dict
holds its layers' weights and biases in layer order, the regressor's trunk
then its mean head and its std head (``param_shapes``), which is the order
those halves take them in. A bundle is built from values for that layout:
random ones (``init_bundle``) or a checkpoint's. The trainable weights of a
component become views into one flat buffer when its optimizer state is
made, so they are updated in place.

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


def _mlp_shapes(spec: MlpSpec, prefix: str) -> dict[str, tuple[int, int]]:
    shapes = {}
    for i in range(spec.n_layers):
        shapes[f"{prefix}.w{i}"] = (spec.widths[i], spec.widths[i + 1])
        shapes[f"{prefix}.b{i}"] = (1, spec.widths[i + 1])
    return shapes


def param_shapes(spec: BundleSpec) -> dict[str, dict[str, tuple[int, int]] | None]:
    """Each component's parameter names and shapes in layer order, the
    regressor's trunk then its mean head and its std head; None for the
    encoder in feature mode."""
    head = MlpSpec((spec.trunk.widths[-1], 1))
    return {
        "encoder": None if spec.encoder is None else _mlp_shapes(spec.encoder, "encoder"),
        "projector": _mlp_shapes(spec.projector, "projector"),
        "regressor": {**_mlp_shapes(spec.trunk, "regressor"),
                      **_mlp_shapes(head, "regressor.mean"),
                      **_mlp_shapes(head, "regressor.std")},
    }


def build_bundle(spec: BundleSpec, value) -> ModelBundle:
    """A bundle whose parameter ``name`` of ``shape`` holds ``value(name,
    shape)``, which is called in ``param_shapes`` order, encoder first. Each
    value is checked as a tensor holds it."""
    comps = {comp: None if shapes is None else
             {name: ad.leaf(value(name, shape), name=name) for name, shape in shapes.items()}
             for comp, shapes in param_shapes(spec).items()}
    return ModelBundle(spec=spec, **comps)


def init_bundle(spec: BundleSpec, seed: int) -> ModelBundle:
    """Deterministic init: weights U[-1/sqrt(fan_in), +1/sqrt(fan_in)], biases 0."""
    rng = make_rng(seed, STREAM_INIT)

    def value(name: str, shape: tuple[int, int]) -> np.ndarray:
        if name.rpartition(".")[2].startswith("b"):
            return np.zeros(shape)
        bound = 1.0 / np.sqrt(shape[0])
        return rng.uniform(-bound, bound, size=shape)

    return build_bundle(spec, value)


def _layers(params: dict[str, Tensor], prefix: str, n_layers: int) -> list[tuple]:
    return [(params[f"{prefix}.w{i}"], params[f"{prefix}.b{i}"]) for i in range(n_layers)]


def check_width(bundle: ModelBundle, cols: int, features: bool = False) -> None:
    """Reject a batch of ``cols`` columns that is not as wide as the bundle's
    inputs, or with ``features`` as its features."""
    if features and cols != bundle.spec.feature_width:
        raise ad.ShapeError(f"feature width {cols} does not match "
                            f"bundle feature width {bundle.spec.feature_width}")
    if not features and cols != bundle.spec.input_width:
        raise ad.ShapeError(f"input width {cols} does not match "
                            f"bundle input {bundle.spec.input_width}")


def encoder_params(bundle: ModelBundle, frozen: bool = False) -> dict | None:
    """The encoder's weights, or with ``frozen`` its frozen copy's; None in
    feature mode, where the encoder is the identity."""
    if bundle.spec.encoder is None:
        return None
    if not frozen:
        return bundle.encoder
    if bundle.frozen_encoder is None:
        raise ValueError("no frozen encoder copy; call freeze_copy first")
    return bundle.frozen_encoder


def encode(bundle: ModelBundle, x: Tensor, frozen: bool = False) -> Tensor:
    """Map an n x d_x input batch to n x D features.

    ``frozen=True`` routes through the frozen encoder copy, whose weights
    are constants.
    """
    check_width(bundle, x.cols)
    params = encoder_params(bundle, frozen)
    if params is None:
        return x
    return ad.mlp(x, _layers(params, "encoder", bundle.spec.encoder.n_layers))


def project(bundle: ModelBundle, h: Tensor, residual: bool = True) -> Tensor:
    """Apply the projector: ``h + p(h)``, or ``p(h)`` when ``residual`` is off."""
    check_width(bundle, h.cols, features=True)
    p = ad.mlp(h, _layers(bundle.projector, "projector", bundle.spec.projector.n_layers))
    if residual:
        return ad.add(h, p)
    return p


def _trunk(bundle: ModelBundle) -> list[tuple]:
    return _layers(bundle.regressor, "regressor", bundle.spec.trunk.n_layers)


def _head(bundle: ModelBundle, name: str) -> tuple:
    return _layers(bundle.regressor, f"regressor.{name}", 1)[0]


def regress(bundle: ModelBundle, h: Tensor, eps=None) -> tuple[Tensor, Tensor, Tensor]:
    """Score a feature batch; returns (mean, std, sample) column tensors.

    ``eps`` is an n x 1 array of noise draws; None means zeros, in which
    case the sampled score is the mean exactly. The sample is one tape node
    and the only one of the three with a backward path; the mean and std
    come back as constants, unless the sample is the mean.
    """
    if eps is not None:
        eps = np.asarray(eps, dtype=np.float64)
        if eps.shape != (h.rows, 1):
            raise ad.ShapeError(f"eps shape {eps.shape} does not match batch ({h.rows}, 1)")
    sample, mean, std = ad.sampled_score(h, _trunk(bundle), _head(bundle, "mean"),
                                         _head(bundle, "std"), eps)
    return sample if eps is None else ad.const(mean), ad.const(std), sample


def predict(bundle: ModelBundle, x) -> np.ndarray:
    """Deterministic scores (eps = 0) for an input batch, as a flat array:
    the trunk and the mean head as one chain, without the std head."""
    mean = ad.mlp(encode(bundle, ad.const(x)), _trunk(bundle) + [_head(bundle, "mean")])
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
