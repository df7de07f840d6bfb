"""Synthetic data, grade splits, scaling, label noise and CSV round-trips."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mreplay import data


def _cfg(**kw):
    base = dict(n=100, d_x=8, T=5, shots=10, noise_x=0.05, drift=0.3, seed=0)
    base.update(kw)
    return data.DataConfig(**base)


def test_generator_deterministic():
    a = data.generate_synthetic(_cfg())
    b = data.generate_synthetic(_cfg())
    assert len(a.samples) == 100
    for sa, sb in zip(a.samples, b.samples):
        assert sa.sample_id == sb.sample_id
        assert sa.score == sb.score
        assert np.array_equal(sa.x, sb.x)
    c = data.generate_synthetic(_cfg(seed=1))
    assert any(sa.score != sc.score for sa, sc in zip(a.samples, c.samples))


def test_generator_shapes_ids_range():
    ds = data.generate_synthetic(_cfg(n=50, d_x=12))
    assert ds.input_width == 12
    assert ds.score_range == (0.0, 100.0)
    assert [s.sample_id for s in ds.samples] == [f"s{i:05d}" for i in range(50)]
    for s in ds.samples:
        assert s.x.shape == (12,)
        assert 0.0 <= s.score <= 100.0
        assert np.isfinite(s.x).all()


def test_inputs_deterministic_in_score_without_noise():
    # with noise_x = 0 and drift = 0 the input is a pure function of z,
    # hence of the score
    ds = data.generate_synthetic(_cfg(noise_x=0.0, drift=0.0))
    by_score = {}
    for s in ds.samples:
        by_score[s.score] = s.x
    # reconstruct a sample's x from a same-score twin built with a second
    # dataset using the same seed
    ds2 = data.generate_synthetic(_cfg(noise_x=0.0, drift=0.0))
    for s in ds2.samples:
        assert np.array_equal(s.x, by_score[s.score])


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(T=1)
    with pytest.raises(ValueError):
        _cfg(n=3, T=5)
    with pytest.raises(ValueError):
        _cfg(shots=0)
    with pytest.raises(ValueError):
        _cfg(noise_x=-0.1)
    with pytest.raises(ValueError):
        _cfg(d_x=0)


def test_grade_split_contiguous_equal_bands():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=0)
    assert plan.n_sessions == 5
    sizes = [len(s.train) + len(s.held_out) for s in plan.sessions]
    assert sizes == [20, 20, 20, 20, 20]
    # score-contiguous and increasing across sessions
    prev_max = -1.0
    for s in plan.sessions:
        band = sorted(x.score for x in s.train + s.held_out)
        assert band[0] >= prev_max
        prev_max = band[-1]
        assert len(s.train) == 10


def test_grade_split_uneven_remainder():
    ds = data.generate_synthetic(_cfg(n=23, T=4, shots=2))
    plan = data.grade_split(ds, T=4, shots=2, seed=0)
    sizes = [len(s.train) + len(s.held_out) for s in plan.sessions]
    assert sizes == [6, 6, 6, 5]
    assert sum(sizes) == 23


def test_grade_split_no_overlap_and_complete():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=3)
    ids = []
    for s in plan.sessions:
        ids += [x.sample_id for x in s.train] + [x.sample_id for x in s.held_out]
    assert len(ids) == 100
    assert len(set(ids)) == 100
    train_ids = {x.sample_id for s in plan.sessions for x in s.train}
    held_ids = {x.sample_id for s in plan.sessions for x in s.held_out}
    assert not train_ids & held_ids


def test_grade_split_deterministic_and_seed_sensitive():
    ds = data.generate_synthetic(_cfg())
    p1 = data.grade_split(ds, T=5, shots=10, seed=4)
    p2 = data.grade_split(ds, T=5, shots=10, seed=4)
    assert [x.sample_id for s in p1.sessions for x in s.train] == \
           [x.sample_id for s in p2.sessions for x in s.train]
    p3 = data.grade_split(ds, T=5, shots=10, seed=5)
    assert [x.sample_id for s in p1.sessions for x in s.train] != \
           [x.sample_id for s in p3.sessions for x in s.train]


def test_grade_split_too_few_for_shots():
    ds = data.generate_synthetic(_cfg(n=20, T=4, shots=5))
    with pytest.raises(ValueError, match="fewer than"):
        data.grade_split(ds, T=4, shots=6, seed=0)


def test_fine_tune_pool_is_first_sessions_held_out():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=0)
    assert plan.fine_tune_pool == plan.sessions[0].held_out
    x, y = plan.test_arrays(1, held_out_only=True)
    assert np.array_equal(x, np.stack([s.x for s in plan.fine_tune_pool]))
    assert y.tolist() == [s.score for s in plan.fine_tune_pool]
    x, y = plan.test_arrays(2)
    both = plan.sessions[1].train + plan.sessions[1].held_out
    assert np.array_equal(x, np.stack([s.x for s in both]))
    assert y.tolist() == [s.score for s in both]


def test_split_arrays_are_stacked_once_and_read_only():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=0)
    for t, split in enumerate(plan.sessions, start=1):
        samples = split.train + split.held_out
        x, y, ids = split.arrays
        assert split.arrays[0] is x
        assert np.array_equal(x, np.stack([s.x for s in samples]))
        assert y.tolist() == [s.score for s in samples]
        assert ids == tuple(s.sample_id for s in samples)
        for held_out_only in (False, True):
            tx, ty = plan.test_arrays(t, held_out_only)
            test = split.held_out if held_out_only else samples
            assert np.array_equal(tx, np.stack([s.x for s in test]))
            assert ty.tolist() == [s.score for s in test]
        train = split.train + (plan.fine_tune_pool if t == 1 else ())
        rx, ry, rids = plan.training_arrays(t)
        assert np.array_equal(rx, np.stack([s.x for s in train]))
        assert ry.tolist() == [s.score for s in train]
        assert rids == tuple(s.sample_id for s in train)
        for view in (x, y, rx, ry, *plan.test_arrays(t, True)):
            assert view.base is None or view.base is x or view.base is y
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0


def _per_sample_scaled(plan, scaler):
    """The scaled scores, one sample at a time."""
    return [float(scaler.normalize(x.score))
            for s in plan.sessions for x in s.train + s.held_out]


_finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(lo=_finite, width=st.floats(min_value=1e-6, max_value=1e9),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
       others=st.lists(_finite, max_size=6), cut=st.integers(0, 20))
def test_apply_scaler_matches_per_sample_normalize_bitwise(lo, width, fracs, others, cut):
    hi = lo + width
    scores = [lo, hi, *(lo + f * (hi - lo) for f in fracs), *others]
    samples = [data.Sample(f"s{i}", np.zeros(1), v) for i, v in enumerate(scores)]
    cut = 1 + cut % len(samples)  # a session needs a training sample
    plan = data.SessionPlan(sessions=(data.SessionSplit(1, tuple(samples[:cut]),
                                                        tuple(samples[cut:])),),
                            shots=cut, input_width=1, score_range=(lo, hi))
    scaler = data.ScoreScaler(lo=lo, hi=hi)
    for scaled, fitted in ((data.apply_scaler(plan, scaler), scaler),
                           data.normalize_scores(plan)):
        got = [x.score for s in scaled.sessions for x in s.train + s.held_out]
        assert all(type(v) is float for v in got)
        assert (np.array(got).tobytes()
                == np.array(_per_sample_scaled(plan, fitted)).tobytes())
        assert scaled.sessions[0].train[0].x is samples[0].x


def test_scaler_round_trip():
    sc = data.ScoreScaler(lo=10.0, hi=90.0)
    y = np.array([10.0, 50.0, 90.0, 33.3])
    back = sc.denormalize(sc.normalize(y))
    assert np.abs(back - y).max() < 1e-12
    assert sc.normalize(10.0) == 0.0
    assert sc.normalize(90.0) == 1.0
    with pytest.raises(ValueError):
        data.ScoreScaler(lo=5.0, hi=5.0)


def test_normalize_scores_maps_into_unit_interval():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=0)
    normed, scaler = data.normalize_scores(plan)
    assert normed.score_range == (0.0, 1.0)
    for s in normed.sessions:
        for x in s.train + s.held_out:
            assert 0.0 <= x.score <= 1.0
    # the scaler covers the declared range, so later grades stay inside
    assert scaler.lo <= 0.0 and scaler.hi >= 100.0
    # round-trip against the raw plan
    raw = [x.score for s in plan.sessions for x in s.train + s.held_out]
    now = [x.score for s in normed.sessions for x in s.train + s.held_out]
    assert np.abs(scaler.denormalize(np.array(now)) - np.array(raw)).max() < 1e-9


def test_apply_scaler_uses_existing_fit():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=0)
    _, scaler = data.normalize_scores(plan)
    applied = data.apply_scaler(plan, scaler)
    reference, _ = data.normalize_scores(plan)
    for sa, sb in zip(applied.sessions, reference.sessions):
        for xa, xb in zip(sa.train + sa.held_out, sb.train + sb.held_out):
            assert xa.score == xb.score
    other = data.ScoreScaler(lo=-100.0, hi=300.0)
    shifted = data.apply_scaler(plan, other)
    assert shifted.sessions[0].train[0].score != applied.sessions[0].train[0].score


def test_label_noise_touches_train_only_and_clamps():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=0)
    noisy = data.inject_label_noise(plan, intensity=5.0, seed=0)
    changed = 0
    for s0, s1 in zip(plan.sessions, noisy.sessions):
        for a, b in zip(s0.held_out, s1.held_out):
            assert a.score == b.score
        for a, b in zip(s0.train, s1.train):
            changed += a.score != b.score
            assert 0.0 <= b.score <= 100.0
    assert changed > 40  # 50 training samples, nearly all should move
    same = data.inject_label_noise(plan, intensity=0.0, seed=0)
    for s0, s1 in zip(plan.sessions, same.sessions):
        for a, b in zip(s0.train, s1.train):
            assert a.score == b.score


def test_label_noise_deterministic():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=0)
    n1 = data.inject_label_noise(plan, intensity=2.0, seed=7)
    n2 = data.inject_label_noise(plan, intensity=2.0, seed=7)
    for s1, s2 in zip(n1.sessions, n2.sessions):
        for a, b in zip(s1.train, s2.train):
            assert a.score == b.score


def test_label_noise_matches_per_sample_draws():
    ds = data.generate_synthetic(_cfg())
    plan = data.grade_split(ds, T=5, shots=10, seed=0)
    noisy = data.inject_label_noise(plan, intensity=30.0, seed=3)
    rng = data.make_rng(3, data.STREAM_NOISE)
    for s0, s1 in zip(plan.sessions, noisy.sessions):
        for a, b in zip(s0.train, s1.train):
            assert b.score == float(np.clip(a.score + 30.0 * rng.normal(), 0.0, 100.0))
        assert [a.score for a in s0.held_out] == [b.score for b in s1.held_out]


def test_csv_round_trip_bit_exact(tmp_path):
    ds = data.generate_synthetic(_cfg(n=30, d_x=5))
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    back = data.load_csv(path)
    assert back.input_width == 5
    assert not back.feature_mode
    assert len(back.samples) == 30
    for a, b in zip(ds.samples, back.samples):
        assert a.sample_id == b.sample_id
        assert a.score == b.score
        assert np.array_equal(a.x, b.x)


def test_csv_feature_mode_header(tmp_path):
    ds = data.Dataset(
        samples=(data.Sample("a", np.array([1.0, 2.0]), 0.5),
                 data.Sample("b", np.array([3.0, 4.0]), 0.7)),
        input_width=2, score_range=(0.0, 1.0), feature_mode=True)
    path = tmp_path / "feats.csv"
    data.save_csv(ds, path)
    first = path.read_text().splitlines()[0]
    assert first == "id,score,f0,f1"
    back = data.load_csv(path)
    assert back.feature_mode


def test_csv_error_cases(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("")
    with pytest.raises(data.CsvFormatError, match="empty"):
        data.load_csv(p)

    p.write_text("id,value,x0\na,1.0,2.0\n")
    with pytest.raises(data.CsvFormatError, match="header"):
        data.load_csv(p)

    p.write_text("id,score,q0\na,1.0,2.0\n")
    with pytest.raises(data.CsvFormatError, match="third column"):
        data.load_csv(p)

    p.write_text("id,score,x0,x2\na,1.0,2.0,3.0\n")
    with pytest.raises(data.CsvFormatError, match="malformed"):
        data.load_csv(p)

    p.write_text("id,score,x0\na,1.0\n")
    with pytest.raises(data.CsvFormatError, match="line 2"):
        data.load_csv(p)

    p.write_text("id,score,x0\na,1.0,2.0\na,2.0,3.0\n")
    with pytest.raises(data.CsvFormatError, match="duplicate id"):
        data.load_csv(p)

    p.write_text("id,score,x0\na,abc,2.0\n")
    with pytest.raises(data.CsvFormatError, match="line 2"):
        data.load_csv(p)

    p.write_text("id,score,x0\na,inf,2.0\n")
    with pytest.raises(data.CsvFormatError, match="non-finite"):
        data.load_csv(p)

    p.write_text("id,score,x0\n")
    with pytest.raises(data.CsvFormatError, match="no data rows"):
        data.load_csv(p)
