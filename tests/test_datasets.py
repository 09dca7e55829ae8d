import numpy as np
import pytest

from drcert.datasets import (
    REGRESSION_NOISE,
    ingest_classification_csv,
    ingest_regression_csv,
    rescale_images,
    split_train_test,
    synthetic_classification,
    synthetic_regression,
)
from drcert.errors import DataError


class TestRegressionIngest:
    def test_three_row_fixture(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n0.5,0.6,3.0\n")
        X, y = ingest_regression_csv(path)
        assert X.shape == (3, 2)
        assert np.allclose(y, [1.0, 2.0, 3.0])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,oops,2.0\n")
        with pytest.raises(DataError) as err:
            ingest_regression_csv(path)
        assert "line 3" in str(err.value)

    def test_synthetic_deterministic(self):
        X1, y1 = ingest_regression_csv("synthetic:50", seed=7)
        X2, y2 = ingest_regression_csv("synthetic:50", seed=7)
        X3, _ = ingest_regression_csv("synthetic:50", seed=8)
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
        assert not np.array_equal(X1, X3)

    def test_radial_structure(self):
        # the distance to the centre times one relative noise draw per row,
        # drawn after the points from the same seeded stream
        X, y = synthetic_regression(500, seed=1)
        rng = np.random.default_rng(1)
        assert np.array_equal(X, rng.uniform(0.0, 1.0, size=(500, 2)))
        noise = REGRESSION_NOISE * rng.normal(size=500)
        dist = np.linalg.norm(X - 0.5, axis=1)
        assert np.array_equal(y, np.maximum(dist * (1.0 + noise), 0.0))
        assert np.all(np.abs(y / dist - 1.0) <= 5 * REGRESSION_NOISE)


class TestClassificationIngest:
    def make_csv(self, tmp_path, side=2, rows=None):
        n_pix = side * side
        header = "label," + ",".join(f"p{k}" for k in range(1, n_pix + 1))
        body = rows if rows is not None else [
            "0," + ",".join(["0.5"] * n_pix),
            "3," + ",".join(["1.0"] * n_pix),
        ]
        path = tmp_path / "c.csv"
        path.write_text(header + "\n" + "\n".join(body) + "\n")
        return path

    def test_ten_row_fixture(self, tmp_path):
        rows = [f"{k % 10}," + ",".join(["0.1"] * 4) for k in range(10)]
        path = self.make_csv(tmp_path, rows=rows)
        X, Y = ingest_classification_csv(path, side=2)
        assert X.shape == (10, 4)
        assert np.allclose(Y.sum(axis=1), 1.0)

    def test_label_out_of_range(self, tmp_path):
        path = self.make_csv(tmp_path, rows=["11,0.1,0.1,0.1,0.1"])
        with pytest.raises(DataError):
            ingest_classification_csv(path, side=2)

    def test_pixel_out_of_range(self, tmp_path):
        path = self.make_csv(tmp_path, rows=["1,0.1,1.5,0.1,0.1"])
        with pytest.raises(DataError):
            ingest_classification_csv(path, side=2)

    def test_synthetic_one_hot(self):
        X, Y = synthetic_classification(40, side=8, seed=3)
        assert X.shape == (40, 64)
        assert np.all((X >= 0) & (X <= 1))
        assert np.allclose(Y.sum(axis=1), 1.0)


class TestRescale:
    def test_checkerboard_halving(self):
        side = 16
        img = np.indices((side, side)).sum(axis=0) % 2  # 1-pixel checkerboard
        out = rescale_images(img.reshape(1, -1).astype(float), 16, 8)
        # every 2x2 block averages to exactly 1/2
        assert np.allclose(out, 0.5)

    def test_block_average_oracle(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, size=(1, 16 * 16))
        out = rescale_images(img, 16, 8).reshape(8, 8)
        blocks = img.reshape(16, 16).reshape(8, 2, 8, 2).mean(axis=(1, 3))
        assert np.allclose(out, blocks, atol=1e-12)

    def test_upscale_replicates(self):
        img = np.arange(4.0).reshape(1, 4)  # 2x2
        out = rescale_images(img, 2, 4).reshape(4, 4)
        assert np.allclose(out[:2, :2], 0.0)
        assert np.allclose(out[2:, 2:], 3.0)

    def test_fractional_downscale_preserves_mean(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 1, size=(3, 14 * 14))
        out = rescale_images(img, 14, 8)
        assert np.allclose(out.mean(axis=1), img.mean(axis=1), atol=1e-12)
        assert np.all((out >= 0) & (out <= 1))

    def test_identity(self):
        img = np.ones((2, 9))
        assert np.array_equal(rescale_images(img, 3, 3), img)


class TestSplit:
    def test_deterministic_and_disjoint(self):
        X = np.arange(20.0).reshape(10, 2)
        Y = np.arange(10.0)
        (Xtr, _), (Xte, _) = split_train_test(X, Y, seed=2)
        (Xtr2, _), (Xte2, _) = split_train_test(X, Y, seed=2)
        assert np.array_equal(Xtr, Xtr2) and np.array_equal(Xte, Xte2)
        assert Xtr.shape[0] + Xte.shape[0] == 10
        all_rows = {tuple(r) for r in np.vstack([Xtr, Xte])}
        assert len(all_rows) == 10

    def test_too_small(self):
        with pytest.raises(DataError):
            split_train_test(np.ones((1, 2)), np.ones(1), 0)
