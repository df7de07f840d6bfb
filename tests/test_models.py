"""Model bundle: init bounds, residual identity, frozen-copy semantics."""
from __future__ import annotations

import numpy as np
import pytest

import mreplay.autodiff as ad
from mreplay import models
from mreplay.trainer import TrainConfig, bundle_spec_for, new_state


def _bundle(seed=0, d_x=32, feature_mode=False):
    """A bundle with the default TrainConfig widths; feature mode takes
    16-wide features."""
    spec = bundle_spec_for(TrainConfig(), 16 if feature_mode else d_x, feature_mode)
    return models.init_bundle(spec, seed=seed)


def test_make_rng_streams_independent_and_deterministic():
    a = models.make_rng(7, 1).normal(size=4)
    b = models.make_rng(7, 1).normal(size=4)
    c = models.make_rng(7, 2).normal(size=4)
    d = models.make_rng(8, 1).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        models.make_rng(-1, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        models.MlpSpec((5,))
    with pytest.raises(ValueError):
        models.MlpSpec((5, 0))
    with pytest.raises(ValueError):
        models.BundleSpec(encoder=models.MlpSpec((8, 4)),
                          projector=models.MlpSpec((4, 4, 5)),  # must end at 4
                          trunk=models.MlpSpec((4, 2)))
    with pytest.raises(ValueError):
        models.BundleSpec(encoder=models.MlpSpec((8, 4)),
                          projector=models.MlpSpec((4, 4, 4)),
                          trunk=models.MlpSpec((5, 2)))


def test_bundle_spec_for_widths():
    spec = bundle_spec_for(TrainConfig(), 20, feature_mode=False)
    assert spec.encoder.widths == (20, 64, 16)
    assert spec.projector.widths == (16, 16, 16)
    assert spec.trunk.widths == (16, 8)
    assert spec.feature_width == 16
    assert spec.input_width == 20
    fm = bundle_spec_for(TrainConfig(), 16, feature_mode=True)
    assert fm.encoder is None
    assert fm.input_width == fm.feature_width == 16
    # feature mode pins the projector ends and the trunk input to the input
    # width; the config's inner widths stay
    cfg = TrainConfig(projector_widths=(12, 7, 12), trunk_widths=(12, 5))
    fm = bundle_spec_for(cfg, 9, feature_mode=True)
    assert fm.projector.widths == (9, 7, 9) and fm.trunk.widths == (9, 5)


def test_init_bounds_and_zero_biases():
    bundle = _bundle(seed=3)
    for group in models.components(bundle).values():
        for name, p in group.items():
            if ".b" in name:
                assert np.array_equal(p.value, np.zeros_like(p.value))
            else:
                fan_in = p.value.shape[0]
                bound = 1.0 / np.sqrt(fan_in)
                assert np.abs(p.value).max() <= bound
                assert p.value.std() > 0.0


def test_init_bound_fan_in_four():
    spec = models.BundleSpec(encoder=models.MlpSpec((4, 3)),
                             projector=models.MlpSpec((3, 3)),
                             trunk=models.MlpSpec((3, 2)))
    bundle = models.init_bundle(spec, seed=1)
    w = bundle.encoder["encoder.w0"].value
    assert np.abs(w).max() <= 0.5


def test_init_deterministic():
    a, b = _bundle(seed=5), _bundle(seed=5)
    for comp in ("projector", "regressor", "encoder"):
        ga, gb = models.components(a)[comp], models.components(b)[comp]
        assert set(ga) == set(gb)
        for k in ga:
            assert np.array_equal(ga[k].value, gb[k].value)
    c = _bundle(seed=6)
    assert not np.array_equal(a.encoder["encoder.w0"].value,
                              c.encoder["encoder.w0"].value)


def test_encode_shapes_and_feature_mode():
    bundle = _bundle(seed=0, d_x=10)
    x = np.random.default_rng(0).normal(size=(7, 10))
    h = models.encode(bundle, x)
    assert h.shape == (7, 16)
    with pytest.raises(ad.ShapeError):
        models.encode(bundle, np.ones((3, 5)))
    # an input is checked as the array entry points check it
    with pytest.raises(ad.ShapeError, match="non-empty"):
        models.encode(bundle, np.ones((0, 10)))
    with pytest.raises(ad.NonFiniteError):
        models.encode(bundle, np.full((2, 10), np.nan))
    fm = _bundle(seed=0, feature_mode=True)
    feats = np.random.default_rng(1).normal(size=(4, 16))
    assert np.array_equal(models.encode(fm, feats), feats)


def test_zero_projector_residual_is_identity_bit_exact():
    bundle = _bundle(seed=2)
    for name, p in bundle.projector.items():
        p.value[:] = 0.0
    h = np.random.default_rng(3).normal(size=(5, 16))
    assert np.array_equal(models.project(bundle, h), h)
    assert np.array_equal(models.project(bundle, h, residual=False), np.zeros((5, 16)))
    with pytest.raises(ad.ShapeError):
        models.project(bundle, np.ones((5, 8)))


def _regressor(bundle) -> list:
    """The regressor's values in the order ``autodiff.score_fwd`` takes them."""
    return [p.value for p in bundle.regressor.values()]


def test_regress_shapes_std_positive_sample_is_mean():
    # the regressor's score, as the training step computes it
    bundle = _bundle(seed=4)
    h = np.random.default_rng(5).normal(size=(6, 16))
    sample, mean, std, _ = ad.score_fwd(h, _regressor(bundle))
    assert mean.shape == (6, 1) and std.shape == (6, 1) and sample.shape == (6, 1)
    assert (std > 0.0).all()
    assert np.array_equal(sample, mean)  # eps=None collapses to the mean head
    eps = np.random.default_rng(6).normal(size=(6, 1))
    samp, m2, s2, _ = ad.score_fwd(h, _regressor(bundle), eps)
    assert np.array_equal(samp, m2 + eps * s2)
    with pytest.raises(ad.ShapeError):
        ad.score_fwd(h, _regressor(bundle), np.zeros((3, 1)))


def test_predict_matches_mean_head():
    bundle = _bundle(seed=7, d_x=8)
    x = np.random.default_rng(8).normal(size=(5, 8))
    preds = models.predict(bundle, x)
    mean = ad.score_fwd(models.encode(bundle, x), _regressor(bundle))[1]
    assert np.array_equal(preds, mean[:, 0])


def test_freeze_copy_is_immutable_snapshot():
    bundle = _bundle(seed=9, d_x=6)
    x = np.random.default_rng(10).normal(size=(4, 6))
    with pytest.raises(ValueError):
        models.encode(bundle, x, frozen=True)
    models.freeze_copy(bundle)
    before = models.encode(bundle, x, frozen=True).copy()
    for p in bundle.encoder.values():
        p.value[:] = p.value + 1.0
    after = models.encode(bundle, x, frozen=True)
    assert np.array_equal(before, after)
    live = models.encode(bundle, x)
    assert not np.array_equal(live, after)


def test_frozen_encode_carries_no_gradient_to_encoder():
    # the frozen copy has no gradient view and shares no memory with the
    # encoder's optimizer buffers, so an update cannot reach it
    state = new_state(TrainConfig(), 6)
    models.freeze_copy(state.bundle)
    frozen = state.bundle.frozen_encoder
    before = {k: p.value.copy() for k, p in frozen.items()}
    adam = state.adam["encoder"]
    assert all(p.grad is None for p in frozen.values())
    assert not any(np.shares_memory(p.value, a) for p in frozen.values()
                   for a in (adam.buffer, adam.grad))
    ad.adam_views(state.bundle.encoder, adam)
    adam.grad[:] = 1.0
    ad.adam_update([adam])
    assert all(np.array_equal(frozen[k].value, v) for k, v in before.items())
    assert not np.array_equal(state.bundle.encoder["encoder.w0"].value,
                              before["encoder.w0"])


def test_freeze_copy_feature_mode_marks_only():
    fm = _bundle(seed=0, feature_mode=True)
    models.freeze_copy(fm)
    assert fm.frozen_encoder is None  # an identity encoder has no weights
    feats = np.ones((2, 16))
    assert np.array_equal(models.encode(fm, feats, frozen=True), feats)


def test_regressor_trunk_applies_output_relu():
    # the trunk output feeds both heads through a relu, so the score map is
    # not affine: the midpoint identity must fail somewhere
    bundle = _bundle(seed=14, feature_mode=True)
    rng = np.random.default_rng(15)
    a = rng.normal(size=(8, 16))
    b = rng.normal(size=(8, 16))
    mid = models.predict(bundle, 0.5 * (a + b))
    avg = 0.5 * (models.predict(bundle, a) + models.predict(bundle, b))
    assert np.abs(mid - avg).max() > 1e-6
