"""Input validation helpers shared by the estimators and functions."""

import numpy as np

from .exceptions import AnalysisError, EmptyDatasetError

_EPS, _FLOAT64_MAX = np.finfo(np.float64).eps, np.finfo(np.float64).max


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


def check_domain(*parts, power=2, manhattan=False):
    """Refuse, with :class:`AnalysisError`, rows on which a distance path
    could overflow float64: the one statement of the package's float64
    domain. ``parts`` are (n_i, d) arrays of finite values, all the rows a
    path reads; ``power`` is the highest power of a distance it forms (see
    below), and ``manhattan`` bounds Manhattan distances in place of
    squared ones. Returns the per-feature minima and maxima of the rows, all
    that the check reads of them.

    Let n be the number of rows, A_k the largest |value| of feature k, and
    w_k = max_k - min_k + 2*n*eps*A_k the side k of the rows' bounding box,
    widened. D is the box's diagonal, D^2 = sum_k w_k^2. Every point a
    path forms lies in that box: rows, means of rows (K-means' centres, a
    screen's common centre), whose rounding the widening covers, and
    Hopkins' synthetic points. On accepted rows, then, the largest values
    each squared path forms are these:
      - an exact squared distance, each of its partial sums and a row's
        shifted norm |x - c|^2 in a screen's operand: at most D^2;
      - the screen of ``distances._nearest``: M = max|a'|^2 + max|b'|^2 is
        at most 2*D^2, the GEMM's partial sums stay below 2*M*(1 + g(d+1))
        and the slack is computed from 4*M, at most 8*D^2;
      - a sum over the n rows of squared distances: the k-means++ weights'
        total, the objective, n - 1 times a covariance entry, and PAM's and
        the silhouette's sums on a squared-Euclidean matrix: at most n*D^2,
        and 2*n*D^2 in PAM's screen, which adds two of them;
      - sums of distances raised to ``power``: Hopkins' two sums of its
        m < n nearest-neighbour distances, at most 2*m*D^power, and the
        squares of the covariance entries that PCA's Jacobi sweep adds up,
        at most 4*D^4 (``power=4``);
      - the centre sums, the data means among them: at most n*max_k A_k,
        which D >= 2*n*eps*A_k and the bound below keep under 1e170.
    Accepted: 4*(n + 4)*max(D^2, D^power) is below the largest float64.
    That keeps every value above below half of it, which leaves room for
    their rounding, and it accepts 30 rows reading 0 or 1e153, whose n*D^2
    is 3e307.

    Manhattan paths form no mean and square nothing. Let D1 = sum_k w_k.
    A coordinate difference is at most w_k, so a Manhattan distance and
    each of its partial sums are at most D1. The paths sum distances over
    the n rows: PAM's costs and the silhouette's sums, at most n*D1, and
    PAM's screen, which adds two of them, at most 2*n*D1. Accepted:
    4*(n + 4)*D1 is below the largest float64, which keeps these below half
    of it as well. Of 30 rows of 3 features reading multiples of 1e154 or
    of 1e306 from 0 to 9 times that, it accepts the first, whose n*D^2 the
    squared bound refuses, and refuses the second, whose D1 is up to 2.7e307.
    """
    lo = np.min([part.min(axis=0) for part in parts], axis=0)
    hi = np.max([part.max(axis=0) for part in parts], axis=0)
    n = sum(len(part) for part in parts)
    with np.errstate(over="ignore"):  # an overflow here is a refusal
        widths = hi - lo + 2 * n * _EPS * np.maximum(hi, -lo)
        if manhattan:
            accepted = 4 * (n + 4) * widths.sum() < _FLOAT64_MAX
        else:
            d2 = np.square(widths).sum()
            accepted = 4 * (n + 4) * max(d2, d2 ** (power / 2)) < _FLOAT64_MAX
    if not accepted:
        kind = "Manhattan distances" if manhattan else "squared distances"
        raise AnalysisError(f"the features are too large for float64: their {kind} or the sums "
                            "of those could overflow; normalise the data")
    return lo, hi


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


def distinct(values):
    """The sorted distinct values of a 1-D array, and each value's index
    among them: ``np.unique(values, return_inverse=True)``, by a sort, a
    first-of-run mask and ``searchsorted``. ``np.unique`` imports
    ``numpy.ma`` on its first call, about 1.7 MB of resident size."""
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    ids = ordered[first]
    return ids, np.searchsorted(ids, values)


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
