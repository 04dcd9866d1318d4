"""Time-domain condition indicators extracted from raw sensor windows.

A window of N samples is collapsed to an 11-dimensional feature vector:
rms, mean, std, skewness, kurtosis, peak-to-peak, crest factor, shape
factor, impulse factor, margin factor, and energy. Skewness and kurtosis
are the raw sums of centered third/fourth powers scaled by 1/rms^3 and
1/rms^4 (no 1/N), std is the population standard deviation, and the peak
value used by the ratio features is max(|x_i|).
"""
from __future__ import annotations

import csv
import warnings

import numpy as np

from .errors import DataError

FEATURE_NAMES = (
    "rms", "mean", "std", "skewness", "kurtosis",
    "pp", "crest", "shape", "impulse", "margin", "energy",
)


class EmptyWindow(DataError):
    pass


class CsvFormatError(DataError):
    pass


def extract_features(window) -> np.ndarray:
    """Collapse one window of raw samples to its 11 features, in FEATURE_NAMES order.

    A degenerate window cannot support the ratio features, so skewness,
    kurtosis, crest, shape, impulse and margin come back as nan: its rms is
    zero (all samples zero), or a ratio is not finite.
    """
    x = np.asarray(window, dtype=float).ravel()
    if x.size < 2:
        raise EmptyWindow(f"window needs at least 2 samples, got {x.size}")
    n = x.size
    mean = float(np.mean(x))
    energy = float(np.dot(x, x))
    rms = float(np.sqrt(energy / n))
    dev = x - mean
    std = float(np.sqrt(np.mean(dev * dev)))
    pp = float(np.max(x) - np.min(x))
    ratios = (float("nan"),) * 6
    if rms != 0.0:
        abs_mean = float(np.mean(np.abs(x)))
        x_max = float(np.max(np.abs(x)))
        with np.errstate(all="ignore"):
            try:
                computed = (float(np.sum(dev ** 3) / rms ** 3), float(np.sum(dev ** 4) / rms ** 4),
                            x_max / rms, rms / abs_mean, x_max / abs_mean, x_max / abs_mean ** 2)
            except OverflowError:  # a Python-float power past the float range
                computed = ratios
        # rms**3 or abs_mean**2 can underflow or overflow; the ratios then carry no information
        if all(np.isfinite(r) for r in computed):
            ratios = computed
    skewness, kurtosis, crest, shape, impulse, margin = ratios
    return np.array([rms, mean, std, skewness, kurtosis, pp, crest, shape, impulse, margin,
                     energy])


def windows_to_features(windows) -> np.ndarray:
    """Feature matrix (n_windows, 11) for an iterable of sample windows."""
    rows = [extract_features(w) for w in windows]
    if not rows:
        raise EmptyWindow("no windows given")
    return np.vstack(rows)


def segment_stream(samples, window: int, hop: int | None = None) -> np.ndarray:
    """Cut a 1-D sample stream into consecutive windows (trailing remainder dropped)."""
    x = np.asarray(samples, dtype=float).ravel()
    if window < 2:
        raise DataError(f"window length must be >= 2, got {window}")
    hop = window if hop is None else hop
    if hop < 1:
        raise DataError(f"hop must be >= 1, got {hop}")
    starts = range(0, x.size - window + 1, hop)
    out = np.array([x[s:s + window] for s in starts], dtype=float)
    if out.size == 0:
        raise EmptyWindow(f"stream of {x.size} samples is shorter than one window of {window}")
    return out


def read_samples_csv(path) -> np.ndarray:
    """Read a single-column sample stream; header row 'sample' required.
    Blank lines are skipped and only the first column is read."""
    with open(path, newline="") as fh:
        line = fh.readline()
    if not line:
        raise CsvFormatError(f"{path}: empty file")
    header = next(csv.reader([line]))
    if [h.strip() for h in header] != ["sample"]:
        raise CsvFormatError(f"{path}: expected single header column 'sample', got {header}")
    try:
        with warnings.catch_warnings():  # a header alone reads as no samples
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, delimiter=",", quotechar='"', usecols=0, comments=None,
                              skiprows=1, ndmin=1)
    except ValueError as exc:
        raise CsvFormatError(f"{path}: non-numeric sample row") from exc


def read_features_csv(path, extra_columns: tuple[str, ...] = ()) -> dict:
    """Read an epoch-per-row feature table.

    The 11 feature columns must be present under their fixed names, in any
    position. extra_columns (for example ("unit", "action")) are returned
    as lists of raw strings. Returns {"features": (n, 11) array, <extra>: list}.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        missing = [c for c in FEATURE_NAMES + tuple(extra_columns) if c not in header]
        if missing:
            raise CsvFormatError(f"{path}: missing columns {missing}; header was {header}")
        idx = {c: header.index(c) for c in header}
        feats = []
        extras: dict[str, list[str]] = {c: [] for c in extra_columns}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                feats.append([float(row[idx[c]]) for c in FEATURE_NAMES])
            except (ValueError, IndexError) as exc:
                raise CsvFormatError(f"{path}: bad feature row at line {lineno}") from exc
            for c in extra_columns:
                extras[c].append(row[idx[c]].strip())
    if not feats:
        raise CsvFormatError(f"{path}: no data rows")
    out = {"features": np.asarray(feats, dtype=float)}
    out.update(extras)
    return out


def write_features_csv(path, features, extra: dict | None = None) -> None:
    """Write a feature table; extra maps column name -> per-row values, placed first."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[1] != len(FEATURE_NAMES):
        raise DataError(f"expected {len(FEATURE_NAMES)} feature columns, got {features.shape[1]}")
    extra = extra or {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(extra) + list(FEATURE_NAMES))
        for i in range(features.shape[0]):
            writer.writerow([extra[c][i] for c in extra]
                            + [repr(float(v)) for v in features[i]])
