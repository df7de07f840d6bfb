"""Synthetic data, grade splits, scaling, label noise and CSV round-trips."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_reference
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


def test_config_from_dict_rejects_unknown_fields():
    assert data.config_from_dict(data.DataConfig, {"n": 80, "T": 4}, "data") == \
        data.DataConfig(n=80, T=4)
    with pytest.raises(ValueError, match=r"unknown data config fields: \['bogus'\]"):
        data.config_from_dict(data.DataConfig, {"n": 80, "bogus": 1}, "data")


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


_any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _datasets(draw):
    """Raw or feature-mode datasets with distinct, arbitrary text ids and any
    finite floats, signed zeros and subnormals included."""
    width = draw(st.integers(1, 5))
    ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=8, unique=True))
    samples = tuple(data.Sample(sid, np.array(draw(st.lists(_any_float, min_size=width,
                                                            max_size=width))),
                                draw(_any_float))
                    for sid in ids)
    return data.Dataset(samples=samples, input_width=width, score_range=(0.0, 1.0),
                        feature_mode=draw(st.booleans()))


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(_datasets())
def test_csv_round_trip_property(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    data.save_csv(ds, path)
    back = data.load_csv(path)
    assert (back.input_width, back.feature_mode) == (ds.input_width, ds.feature_mode)
    assert [s.sample_id for s in back.samples] == [s.sample_id for s in ds.samples]
    assert [(np.float64(s.score).tobytes(), s.x.tobytes()) for s in back.samples] == \
        [(np.float64(s.score).tobytes(), s.x.tobytes()) for s in ds.samples]
    scores = [s.score for s in ds.samples]
    assert back.score_range == (min(scores), max(scores))


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


@pytest.mark.parametrize("lines, first", [
    (["a,1,2", "b,inf,2", "c,1,2", "d,1"], "line 3: non-finite value"),
    (["a,1,2", "b,1,nan", "b,1,2"], "line 3: non-finite value"),
    (["a,1,2", "a,1,2", "b,1,-inf"], "line 3: duplicate id 'a'"),
    (["a,1,nan", "b,1,x"], "line 2: non-finite value"),
    (["a,1,2", "b,1,x", "c,inf,2"], "line 3: could not convert string to float: 'x'"),
    (["a,1,2", "b,2,3", "c,nan,inf", "d,inf,1"], "line 4: non-finite value"),
])
def test_csv_with_several_faults_reports_the_first_line(tmp_path, lines, first):
    # values are checked for finiteness in one pass after parsing, yet a
    # later line's fault must not hide an earlier non-finite value
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(["id,score,x0", *lines]) + "\n")
    with pytest.raises(data.CsvFormatError) as err:
        data.load_csv(p)
    assert str(err.value) == f"{p}: {first}"


def _outcome(load, path):
    """What reading ``path`` gives: the dataset's ids, score and value bits,
    score range, width and mode, or the type and message of the error."""
    try:
        ds = load(path)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e).__name__, str(e)
    return ([s.sample_id for s in ds.samples],
            [np.float64(s.score).tobytes() + s.x.tobytes() for s in ds.samples],
            ds.score_range, ds.input_width, ds.feature_mode)


def _assert_reads_like_the_row_loop(path):
    assert _outcome(data.load_csv, path) == _outcome(csv_reference.load_csv, path)
    assert _outcome(lambda p: data.parse_csv(p.read_bytes(), p), path) == \
        _outcome(csv_reference.load_csv, path)


def _set_value(line: str, draw) -> str:
    fields = line.split(",")
    if len(fields) > 1:
        fields[draw(st.integers(1, len(fields) - 1))] = draw(st.sampled_from(
            ["1_000", "inf", "-Infinity", "nan", "x1", "1.2.3", "", " 2.5 ", '"3"',
             "0x10", "1e999", "5e-324"]))
    return ",".join(fields)


def _insert(line: str, draw, text: str) -> str:
    at = draw(st.integers(0, len(line)))
    return line[:at] + text + line[at:]


# each takes the file's lines, the index of one data line and ``draw``
_CSV_MUTATIONS = {
    "blank line": lambda lines, i, draw: lines.insert(i, ""),
    "blank last line": lambda lines, i, draw: lines.append(""),
    "id starting with #": lambda lines, i, draw: lines.__setitem__(i, "#" + lines[i]),
    "quote": lambda lines, i, draw: lines.__setitem__(i, _insert(lines[i], draw, '"')),
    "carriage return": lambda lines, i, draw: lines.__setitem__(
        i, _insert(lines[i], draw, "\r")),
    "short row": lambda lines, i, draw: lines.__setitem__(i, lines[i].rpartition(",")[0]),
    "long row": lambda lines, i, draw: lines.__setitem__(i, lines[i] + ",1.0"),
    "value": lambda lines, i, draw: lines.__setitem__(i, _set_value(lines[i], draw)),
    "duplicate row": lambda lines, i, draw: lines.insert(i, lines[i]),
    "header only": lambda lines, i, draw: lines.__delitem__(slice(1, None)),
    "one row": lambda lines, i, draw: lines.__delitem__(slice(2, None)),
}


@pytest.mark.filterwarnings("error")  # the C reader is never handed a text it skips
@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(_datasets(), st.lists(st.sampled_from(sorted(_CSV_MUTATIONS)), max_size=3),
       st.sampled_from(["\r\n", "\n"]), st.booleans(), st.data())
def test_csv_reads_like_the_row_loop(tmp_path_factory, ds, mutations, newline, final,
                                     draws):
    # save_csv's output, then mutated: the C reader must give the row
    # loop's dataset or its error for every text
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    data.save_csv(ds, path)
    lines = path.read_bytes().decode().split("\r\n")[:-1]
    for name in mutations:
        i = draws.draw(st.integers(1, max(1, len(lines) - 1)))
        if i < len(lines) or name == "blank line":
            _CSV_MUTATIONS[name](lines, i, draws.draw)
    path.write_bytes((newline.join(lines) + newline * final).encode())
    _assert_reads_like_the_row_loop(path)


@pytest.mark.parametrize("text", [
    "id,score,x0\r\na,1,2\r\n\r\nb,1,2\r\n",  # a blank line
    "id,score,x0\na,1,2\n\n",  # a blank last line
    "id,score,x0\r\n\r\n",  # only a blank line
    "id,score,x0\n#a,1,2\n#b,1,2\n",  # ids that look like comments
    "id,score,x0\na,1_000,2\n",  # float() reads the underscore
    "id,score,x0\ra,1,2\rb,3,4\r",  # lone carriage returns
    'id,score,x0\n"a\nb",1,2\n"c,""d""",3,4\n',  # quoted newline, comma, quote
    "id,score,x0\n a ,1 , 2\n",  # spaces around ids and values
    "id,score,x0\na,1,2",  # no final line end
    "id,score,x0\n",  # header only
    "id,score,x0\n" + "a" * 131073 + ",1,2\n",  # over csv.reader's field limit
    # not UTF-8 past the first 8 KiB: the decode error names the same position
    "id,score,x0\n" + "".join(f"a{i},1,2\n" for i in range(1500)) + "\udcff,1,2\n",
])
@pytest.mark.filterwarnings("error")
def test_csv_edge_cases_read_like_the_row_loop(tmp_path, text):
    path = tmp_path / "ds.csv"
    path.write_bytes(text.encode(errors="surrogateescape"))
    _assert_reads_like_the_row_loop(path)


def test_clean_csv_is_read_in_one_pass_into_one_table(tmp_path, monkeypatch):
    ds = data.generate_synthetic(_cfg(n=40, d_x=6))
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)

    def row_loop(text, path):
        raise AssertionError("a clean file went through the row loop")

    monkeypatch.setattr(data, "_read_rows", row_loop)
    back = data.load_csv(path)
    table = back.samples[0].x.base
    assert table.flags.c_contiguous and table.shape == (40, 7)
    assert all(s.x.base is table for s in back.samples)
    assert [s.x.tobytes() for s in back.samples] == [s.x.tobytes() for s in ds.samples]
