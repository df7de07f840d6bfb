"""Encoder / projector / regressor bundle over ``autodiff``'s array-level
halves.

The bundle holds three trainable components plus an optional frozen copy
of the encoder:

* encoder: maps raw inputs to feature vectors (identity in feature mode),
* projector: residual map applied to stale feature vectors,
* regressor: shared trunk with a mean head and a softplus std head.

Every parameter, and each weight of the frozen copy, is an
``autodiff.Param``. The frozen copy is keyed like the encoder's own
weights, so ``encode(frozen=True)`` runs the same forward pass on it, and
it never gets a gradient. Each component's dict holds its layers' weights
and biases in layer order, the regressor's trunk then its mean head and
its std head (``param_shapes``), which is the order the halves take them
in. A bundle is built from values for that layout: random ones
(``init_bundle``) or a checkpoint's. The trainable weights of a component
become views into one flat buffer when its optimizer state is made, so
they are updated in place.

``encode``, ``project`` and ``predict`` take and return arrays: they serve
evaluation and the bank's refresh and store through ``autodiff.mlp_fwd``,
each checking its input as ``autodiff.checked`` does. The training step
runs the same forward halves, and their backward halves, with the checks
of ``check_width`` and ``encoder_params``.

Scores are predicted as ``mean + eps * std`` per row; evaluation uses
``eps = 0`` so predictions collapse to the mean head, and ``predict``
builds no std head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Param

STREAM_INIT = 4


def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic generator for (seed, stream)."""
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
    encoder: dict[str, Param] | None
    projector: dict[str, Param]
    regressor: dict[str, Param]
    frozen_encoder: dict[str, Param] | None = None


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
             {name: Param(value(name, shape), name) for name, shape in shapes.items()}
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


def _values(params: dict[str, Param]) -> list[np.ndarray]:
    return [p.value for p in params.values()]


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


def encode(bundle: ModelBundle, x, frozen: bool = False) -> np.ndarray:
    """Map an n x d_x input batch to n x D features.

    ``frozen=True`` routes through the frozen encoder copy.
    """
    x = ad.checked(x)
    check_width(bundle, x.shape[1])
    params = encoder_params(bundle, frozen)
    if params is None:
        return x
    return ad.mlp_fwd(x, _values(params))[-1]


def project(bundle: ModelBundle, h, residual: bool = True) -> np.ndarray:
    """Apply the projector: ``h + p(h)``, or ``p(h)`` when ``residual`` is off."""
    h = ad.checked(h)
    check_width(bundle, h.shape[1], features=True)
    p = ad.mlp_fwd(h, _values(bundle.projector))[-1]
    return ad.add_fwd(h, p) if residual else p


def predict(bundle: ModelBundle, x) -> np.ndarray:
    """Deterministic scores (eps = 0) for an input batch, as a flat array:
    the trunk and the mean head as one chain, without the std head."""
    trunk_and_mean = _values(bundle.regressor)[:-2]
    return ad.mlp_fwd(encode(bundle, x), trunk_and_mean)[-1][:, 0].copy()


def freeze_copy(bundle: ModelBundle) -> None:
    """Snapshot the encoder weights. Identity encoders have no weights, so
    there is nothing to snapshot."""
    if bundle.spec.encoder is not None:
        bundle.frozen_encoder = {name: Param(p.value.copy())
                                 for name, p in bundle.encoder.items()}


def components(bundle: ModelBundle) -> dict[str, dict[str, Param]]:
    """Trainable parameter groups keyed by component name."""
    out = {"projector": bundle.projector, "regressor": bundle.regressor}
    if bundle.encoder is not None:
        out["encoder"] = bundle.encoder
    return out
