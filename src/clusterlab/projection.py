"""Two-dimensional PCA projection for the cluster scatter plots.

The covariance matrix (divisor n - 1) is diagonalized with cyclic Jacobi
rotations, which is exact and cheap at single-digit dimensionality. Each
component's sign is fixed so that its largest-magnitude entry is positive,
keeping rendered plots stable across runs.
"""

from __future__ import annotations

import numpy as np

from ._base import BaseEstimator, check_is_fitted
from ._checks import as_feature_matrix, check_domain

def jacobi_eigh(A, tol: float = 1e-13, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue,
    eigenvectors in columns. Sweeps stop once the off-diagonal Frobenius
    mass drops below ``tol`` times the matrix norm.
    """
    A = np.array(A, dtype=np.float64)
    d = A.shape[0]
    if A.shape != (d, d) or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    V = np.eye(d)
    fro = np.sqrt((A * A).sum())
    if fro == 0.0:
        return np.zeros(d), V

    for _ in range(max_sweeps):
        # direct off-diagonal norm; the fro^2 - diag^2 shortcut cancels badly
        off_entries = A - np.diag(np.diag(A))
        off = np.sqrt((off_entries * off_entries).sum())
        if off <= tol * fro:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                if abs(apq) <= tol * fro / (d * d):
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                _rotate(A, V, p, q, c, s)

    eigenvalues = np.diag(A).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], V[:, order]


def _rotate(A, V, p, q, c, s):
    col_p, col_q = A[:, p].copy(), A[:, q].copy()
    A[:, p] = c * col_p - s * col_q
    A[:, q] = s * col_p + c * col_q
    row_p, row_q = A[p, :].copy(), A[q, :].copy()
    A[p, :] = c * row_p - s * row_q
    A[q, :] = s * row_p + c * row_q
    v_p, v_q = V[:, p].copy(), V[:, q].copy()
    V[:, p] = c * v_p - s * v_q
    V[:, q] = s * v_p + c * v_q


class PCA2D(BaseEstimator):
    """Project data onto its top two principal axes.

    Attributes after fit: ``mean_``, ``components_`` (2, d),
    ``explained_variance_`` (top-2 eigenvalues),
    ``explained_variance_ratio_``, ``eigenvalues_`` (all, descending),
    ``degenerate_`` (True when the data has zero total variance, in which
    case every projected coordinate is 0). ``fit`` raises
    :class:`AnalysisError` on rows outside ``_checks.check_domain``.
    """

    def fit(self, X, y=None):
        X = as_feature_matrix(X)
        n, d = X.shape
        if n < 2 or d < 2:
            raise ValueError(f"PCA2D needs at least 2 rows and 2 columns, got {X.shape}")
        check_domain(X, power=4)  # jacobi_eigh adds up squared covariances
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        cov = centered.T @ centered / (n - 1)
        eigenvalues, vectors = jacobi_eigh(cov)
        eigenvalues = np.maximum(eigenvalues, 0.0)  # clip rounding negatives

        components = vectors[:, :2].T.copy()
        for row in components:
            j = int(np.argmax(np.abs(row)))
            if row[j] < 0:
                row *= -1.0

        total = float(eigenvalues.sum())
        self.eigenvalues_ = eigenvalues
        self.components_ = components
        self.degenerate_ = total == 0.0
        self.explained_variance_ = eigenvalues[:2].copy()
        if self.degenerate_:
            self.explained_variance_ratio_ = np.zeros(2)
        else:
            self.explained_variance_ratio_ = eigenvalues[:2] / total
        return self

    def transform(self, X):
        check_is_fitted(self, "components_")
        X = as_feature_matrix(X, allow_empty=True)
        return (X - self.mean_) @ self.components_.T

    def fit_transform(self, X, y=None):
        return self.fit(X).transform(X)
