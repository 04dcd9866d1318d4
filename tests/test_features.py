import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmpomdp import FEATURE_NAMES, extract_features, windows_to_features
from cbmpomdp.features import (CsvFormatError, EmptyWindow, read_features_csv,
                               read_samples_csv, segment_stream,
                               write_features_csv)

SQRT2 = math.sqrt(2.0)
RATIOS = ("skewness", "kurtosis", "crest", "shape", "impulse", "margin")


def features(window):
    """extract_features' array, read by feature name."""
    return SimpleNamespace(**dict(zip(FEATURE_NAMES, extract_features(window))))


def test_names_order():
    assert FEATURE_NAMES == ("rms", "mean", "std", "skewness", "kurtosis",
                             "pp", "crest", "shape", "impulse", "margin", "energy")


def test_hand_window_two_zero():
    f = features([2.0, 0.0])
    assert f.rms == pytest.approx(SQRT2, abs=1e-15)
    assert f.mean == 1.0
    assert f.std == 1.0
    assert f.skewness == pytest.approx(0.0, abs=1e-15)
    assert f.kurtosis == pytest.approx(0.5, abs=1e-15)
    assert f.pp == 2.0
    assert f.crest == pytest.approx(SQRT2, abs=1e-15)
    assert f.shape == pytest.approx(SQRT2, abs=1e-15)
    assert f.impulse == 2.0
    assert f.margin == 2.0
    assert f.energy == 4.0


def test_hand_window_constant_ones():
    f = features([1.0, 1.0, 1.0, 1.0])
    assert (f.rms, f.mean, f.std, f.pp) == (1.0, 1.0, 0.0, 0.0)
    assert (f.skewness, f.kurtosis) == (0.0, 0.0)
    assert (f.crest, f.shape, f.impulse, f.margin) == (1.0, 1.0, 1.0, 1.0)
    assert f.energy == 4.0


def test_hand_window_square_wave():
    f = features([1.0, -1.0, 1.0, -1.0])
    assert (f.rms, f.mean, f.std) == (1.0, 0.0, 1.0)
    assert f.kurtosis == pytest.approx(4.0, abs=1e-15)
    assert f.skewness == pytest.approx(0.0, abs=1e-15)
    assert (f.pp, f.crest, f.shape, f.impulse, f.margin) == (2.0, 1.0, 1.0, 1.0, 1.0)
    assert f.energy == 4.0


def test_zero_window_degenerate():
    f = features([0.0, 0.0, 0.0])
    assert f.rms == 0.0 and f.energy == 0.0 and f.std == 0.0
    for name in RATIOS:
        assert math.isnan(getattr(f, name))


@pytest.mark.parametrize("level", [2e77, 1e150])
def test_overflowing_window_degenerate(level):
    # rms ** 4 (and at 1e150 rms ** 3) is past the float range: the window
    # takes the degenerate path instead of raising OverflowError
    f = features([level] * 16 + [-level] * 16)
    assert f.rms == pytest.approx(level, rel=1e-15) and f.mean == 0.0
    assert f.pp == 2 * level and math.isfinite(f.energy)
    for name in RATIOS:
        assert math.isnan(getattr(f, name))


def test_too_short_window():
    with pytest.raises(EmptyWindow):
        extract_features([1.0])
    with pytest.raises(EmptyWindow):
        extract_features([])


def test_features_array_in_name_order():
    arr = extract_features([3.0, 1.0, -2.0])
    assert arr.shape == (11,) and arr.dtype == float
    assert arr[FEATURE_NAMES.index("mean")] == 2.0 / 3.0
    assert arr[FEATURE_NAMES.index("pp")] == 5.0
    assert arr[FEATURE_NAMES.index("energy")] == 14.0


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=64),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_scaling_laws(samples, c):
    x = np.asarray(samples)
    base = features(x)
    if math.isnan(base.skewness) or base.rms < 1e-9:
        return
    scaled = features(c * x)
    assert scaled.rms == pytest.approx(c * base.rms, rel=1e-9)
    assert scaled.std == pytest.approx(c * base.std, rel=1e-9, abs=1e-9)
    assert scaled.pp == pytest.approx(c * base.pp, rel=1e-9, abs=1e-9)
    assert scaled.energy == pytest.approx(c * c * base.energy, rel=1e-9)
    # dimensionless ratios are scale-free, margin scales as 1/c
    assert scaled.crest == pytest.approx(base.crest, rel=1e-9)
    assert scaled.shape == pytest.approx(base.shape, rel=1e-9)
    assert scaled.impulse == pytest.approx(base.impulse, rel=1e-9)
    assert scaled.kurtosis == pytest.approx(base.kurtosis, rel=1e-9, abs=1e-12)
    assert scaled.margin == pytest.approx(base.margin / c, rel=1e-9)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=32),
       st.randoms())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(samples, rnd):
    shuffled = list(samples)
    rnd.shuffle(shuffled)
    a = extract_features(samples)
    b = extract_features(shuffled)
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, equal_nan=True)


def test_windows_to_features_stacks():
    out = windows_to_features([[2.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    assert out.shape == (2, 11)
    assert out[0, 0] == pytest.approx(SQRT2)
    assert out[1, 0] == 1.0
    with pytest.raises(EmptyWindow):
        windows_to_features([])


def test_segment_stream_non_overlapping():
    win = segment_stream(np.arange(10.0), window=4)
    assert win.shape == (2, 4)
    np.testing.assert_array_equal(win[0], [0, 1, 2, 3])
    np.testing.assert_array_equal(win[1], [4, 5, 6, 7])


def test_segment_stream_hop():
    win = segment_stream(np.arange(6.0), window=4, hop=1)
    assert win.shape == (3, 4)
    np.testing.assert_array_equal(win[2], [2, 3, 4, 5])
    with pytest.raises(EmptyWindow):
        segment_stream(np.arange(3.0), window=4)


def test_samples_csv_roundtrip(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("sample\n1.5\n-2.25\n0.125\n")
    np.testing.assert_array_equal(read_samples_csv(p), [1.5, -2.25, 0.125])
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n1\n")
    with pytest.raises(CsvFormatError):
        read_samples_csv(bad)


@pytest.mark.parametrize("text", [
    "",                              # empty file
    "value\n1\n",                    # wrong header
    "sample,extra\n1,2\n",           # header with a second column
    "sample\n1.0\nabc\n",            # non-numeric row
    "sample\n1.0\n#2.0\n",           # a comment marker is not special
    "sample\n1.0\n,2.0\n",           # empty first column
], ids=["empty", "header", "two-column-header", "non-numeric", "hash", "empty-cell"])
def test_samples_csv_rejects_malformed(tmp_path, text):
    p = tmp_path / "s.csv"
    p.write_text(text)
    with pytest.raises(CsvFormatError):
        read_samples_csv(p)


def test_samples_csv_skips_blank_lines_and_reads_column_0(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("sample\n1.5\n\n-2,9,x\n\n0.25\n")
    np.testing.assert_array_equal(read_samples_csv(p), [1.5, -2.0, 0.25])
    p.write_text("sample\n")
    assert read_samples_csv(p).shape == (0,)
    p.write_text("sample\r\n3\r\n")
    np.testing.assert_array_equal(read_samples_csv(p), [3.0])


def test_samples_csv_bit_identical_to_float_parse(tmp_path):
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(size=2000), rng.normal(size=500) * 1e-300,
                        rng.normal(size=500) * 1e300, rng.integers(-9, 9, size=50)])
    cells = [repr(float(v)) for v in x] + [f"{v:.3e}" for v in x[:300]] + [
        f"{v:.25f}" for v in x[:300]] + ["1e-320", "-0.0", "nan", "inf", "-Infinity", " 2.5"]
    p = tmp_path / "s.csv"
    p.write_text("sample\n" + "\n".join(cells) + "\n")
    got = read_samples_csv(p)
    want = np.array([float(c) for c in cells])
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_features_csv_roundtrip(tmp_path):
    p = tmp_path / "f.csv"
    feats = windows_to_features([[2.0, 0.0], [1.0, -1.0, 1.0, -1.0]])
    write_features_csv(p, feats, extra={"unit": ["u1", "u1"], "action": ["a", "b"]})
    table = read_features_csv(p, extra_columns=("unit", "action"))
    np.testing.assert_array_equal(table["features"], feats)
    assert table["unit"] == ["u1", "u1"]
    assert table["action"] == ["a", "b"]


def test_features_csv_missing_column(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("rms,mean\n1,2\n")
    with pytest.raises(CsvFormatError):
        read_features_csv(p)
