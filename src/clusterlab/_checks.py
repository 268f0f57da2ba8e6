"""Input validation helpers shared by the estimators and functions."""

import numpy as np

from .exceptions import EmptyDatasetError


def as_feature_matrix(X, name="X", allow_empty=False):
    """Coerce to a C-contiguous float64 2-D array of finite values.

    Accepts anything array-like, including a :class:`~clusterlab.dataset.Dataset`
    (its ``features`` are used).
    """
    features = getattr(X, "features", X)
    arr = np.ascontiguousarray(features, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0 and not allow_empty:
        raise EmptyDatasetError(f"{name} has no rows")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def as_labels(labels, n, name="labels"):
    """Coerce to an int array of length ``n`` with non-negative entries."""
    arr = np.asarray(labels)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.asarray(arr, dtype=np.int64)
        if arr.size and not np.array_equal(rounded, arr):
            raise ValueError(f"{name} must be integers")
        arr = rounded
    else:
        arr = arr.astype(np.int64, copy=False)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} must be non-negative")
    return arr


def as_integer(value, name):
    """``value`` as an int; ValueError when it is not an integral number
    (2.5 would otherwise be truncated to 2)."""
    try:
        integer = int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, text
        integer = None
    if integer is None or integer != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return integer


def resolve_seed(seed):
    """Return a concrete non-negative integer seed, drawing one from OS
    entropy if None.

    Results are reproducible whenever the resolved value is echoed back in,
    which the report module does for every run.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy % (2**31))
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer or None, got {type(seed).__name__}")
    if seed < 0:  # numpy's generators take non-negative seeds only
        raise ValueError(f"seed must be non-negative, got {seed}")
    return int(seed)
