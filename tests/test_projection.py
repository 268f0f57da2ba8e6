import numpy as np
import pytest

from clusterlab import PCA2D, jacobi_eigh
from clusterlab.exceptions import NotFittedError


class TestJacobiEigh:
    @pytest.mark.parametrize("d,seed", [(2, 0), (5, 1), (9, 2), (20, 3)])
    def test_matches_numpy_eigh(self, d, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(d, d))
        A = M @ M.T  # symmetric PSD with almost surely distinct eigenvalues
        vals, vecs = jacobi_eigh(A)
        ref = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.allclose(vals, ref, rtol=1e-10, atol=1e-10)
        # eigenpair residuals, robust to sign and degeneracy
        for i in range(d):
            residual = A @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(residual) <= 1e-9 * max(1.0, abs(vals[i]))

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(6, 6))
        _, vecs = jacobi_eigh(M + M.T)
        assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)

    def test_zero_matrix(self):
        vals, vecs = jacobi_eigh(np.zeros((3, 3)))
        assert vals.tolist() == [0.0, 0.0, 0.0]
        assert np.array_equal(vecs, np.eye(3))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPCA2D:
    def test_axis_aligned_data(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        est = PCA2D().fit(X)
        assert np.allclose(np.abs(est.components_[0]), [1.0, 0.0], atol=1e-12)
        assert est.components_[0][0] == 1.0  # sign convention: largest entry positive
        assert np.allclose(est.transform(X)[:, 1], 0.0, atol=1e-12)
        assert est.explained_variance_ratio_[0] == pytest.approx(1.0)
        assert est.explained_variance_ratio_[1] == pytest.approx(0.0, abs=1e-15)

    def test_identical_points_degenerate(self):
        X = np.ones((5, 3))
        est = PCA2D().fit(X)
        assert est.degenerate_
        assert np.allclose(est.transform(X), 0.0)
        assert est.explained_variance_ratio_.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eigh_oracle_on_5d(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(40, 5)) * rng.uniform(0.5, 3.0, size=5)
        est = PCA2D().fit(X)

        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (X.shape[0] - 1)
        ref_vals, ref_vecs = np.linalg.eigh(cov)
        ref_vals, ref_vecs = ref_vals[::-1], ref_vecs[:, ::-1]

        assert np.allclose(est.explained_variance_, ref_vals[:2], rtol=1e-8)
        for i in range(2):
            ref = ref_vecs[:, i]
            got = est.components_[i]
            # compare up to sign
            assert min(
                np.abs(got - ref).max(), np.abs(got + ref).max()
            ) <= 1e-8

    def test_trace_preservation(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 9))
        est = PCA2D().fit(X)
        total_var = float(((X - X.mean(axis=0)) ** 2).sum() / (X.shape[0] - 1))
        assert float(est.eigenvalues_.sum()) == pytest.approx(total_var, rel=1e-10)

    def test_captured_variance_bounded_by_total(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 6))
        est = PCA2D().fit(X)
        assert float(est.explained_variance_.sum()) <= float(est.eigenvalues_.sum()) + 1e-12
        assert 0.0 <= est.explained_variance_ratio_[1] <= est.explained_variance_ratio_[0] <= 1.0

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 4))
        perm = rng.permutation(50)
        a = PCA2D().fit(X)
        b = PCA2D().fit(X[perm])
        assert np.allclose(a.components_, b.components_, atol=1e-10)
        assert np.allclose(a.transform(X)[perm], b.transform(X[perm]), atol=1e-10)

    def test_components_orthogonal_unit_norm(self):
        X = np.random.default_rng(10).normal(size=(40, 7))
        components = PCA2D().fit(X).components_
        assert abs(float(components[0] @ components[1])) <= 1e-10
        assert np.linalg.norm(components[0]) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(components[1]) == pytest.approx(1.0, rel=1e-12)

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            PCA2D().transform(np.ones((2, 2)))

    def test_needs_two_rows_and_columns(self):
        with pytest.raises(ValueError):
            PCA2D().fit(np.ones((1, 3)))
        with pytest.raises(ValueError):
            PCA2D().fit(np.ones((3, 1)))

    def test_transform_new_points(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 3))
        est = PCA2D().fit(X)
        q = rng.normal(size=(5, 3))
        expected = (q - est.mean_) @ est.components_.T
        assert np.array_equal(est.transform(q), expected)
