"""Tests for model persistence and PGM image files."""

import json

import numpy as np
import pytest

from conftest import random_regression
from nash.ash import AshPrior
from nash.cli import main
from nash.data import Dataset, SideInfo
from nash.engine import FitConfig, fit, predict
from nash.errors import DimensionMismatchError, ParseError
from nash.fused import FusedPrior, Graph
from nash.model_io import dumps_canonical, load_model, model_document, predict_from_model, save_model
from nash.pgm import read_pgm, write_pgm


def fitted_result(seed=0):
    X, y, _ = random_regression(seed, n=30, p=6)
    return X, fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=5),
                  FitConfig(seed=seed))


class TestModelFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        _, result = fitted_result()
        text = dumps_canonical(model_document(result))
        assert dumps_canonical(json.loads(text)) == text

    def test_save_load_preserves_values(self, tmp_path):
        X, result = fitted_result()
        path = tmp_path / "model.json"
        save_model(result, str(path))
        model = load_model(str(path))
        np.testing.assert_array_equal(model.coefficients, result.coefficients)
        assert model.intercept == result.intercept
        assert model.prior_kind == "ash"
        assert model.elbo_trace == result.elbo_trace
        np.testing.assert_allclose(predict_from_model(model, X), predict(result, X), atol=0)

    def test_init_mode_records_whether_init_beta_was_given(self):
        X, y, _ = random_regression(0, n=30, p=6)
        given = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=5),
                    FitConfig(init_beta=np.ones(6), max_sweeps=2))
        assert model_document(given)["config"]["init_mode"] == "provided"
        assert model_document(fitted_result()[1])["config"]["init_mode"] == "zero"

    def test_identical_seeds_identical_files(self, tmp_path):
        paths = []
        for run in range(2):
            _, result = fitted_result(seed=3)
            path = tmp_path / f"m{run}.json"
            save_model(result, str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_column_subset_applied(self, tmp_path):
        X, result = fitted_result()
        path = tmp_path / "model.json"
        save_model(result, str(path), columns=[0, 2, 3, 5, 6, 8])
        model = load_model(str(path))
        wide = np.zeros((4, 9))
        wide[:, [0, 2, 3, 5, 6, 8]] = X[:4]
        np.testing.assert_allclose(predict_from_model(model, wide), predict(result, X[:4]), atol=0)

    def test_wrong_width_rejected(self, tmp_path):
        _, result = fitted_result()
        path = tmp_path / "model.json"
        save_model(result, str(path))
        with pytest.raises(DimensionMismatchError):
            predict_from_model(load_model(str(path)), np.zeros((2, 17)))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_fused_model_with_quadrature_nodes_still_loads(self, tmp_path):
        # older fused model files carry a "gh_nodes" prior parameter; they
        # must still load and predict
        X, y, _ = random_regression(2, n=30, p=6)
        graph = Graph.chain(6)
        result = fit(Dataset(y=y, X=X), SideInfo.from_graph(graph), FusedPrior(graph),
                     FitConfig(max_sweeps=5))
        doc = model_document(result)
        assert "gh_nodes" not in doc["prior"]["params"]
        doc["prior"]["params"]["gh_nodes"] = 32
        path = tmp_path / "old.json"
        path.write_text(dumps_canonical(doc))
        model = load_model(str(path))
        assert model.prior_kind == "fused" and model.prior_params["gh_nodes"] == 32
        x_path = tmp_path / "x.csv"
        x_path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in X))
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(path), "--x", str(x_path), "--out", str(out)]) == 0
        predictions = np.array([float(line) for line in out.read_text().splitlines()])
        np.testing.assert_allclose(predictions, predict(result, X), atol=1e-10)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1}')
        with pytest.raises(ParseError):
            load_model(str(path))


class TestPgm:
    def test_binary_round_trip(self, tmp_path, rng):
        image = rng.uniform(0, 1, size=(9, 14))
        path = tmp_path / "img.pgm"
        write_pgm(str(path), image)
        back = read_pgm(str(path))
        assert back.shape == image.shape
        np.testing.assert_allclose(back, image, atol=0.5 / 255 + 1e-12)

    def test_ascii_format_with_comments(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n")
        image = read_pgm(str(path))
        assert image.shape == (2, 3)
        assert image[0, 2] == pytest.approx(1.0)
        assert image[0, 1] == pytest.approx(128 / 255)

    def test_values_clipped_on_write(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(str(path), np.array([[-0.5, 1.5]]))
        np.testing.assert_array_equal(read_pgm(str(path)), [[0.0, 1.0]])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(ParseError):
            read_pgm(str(path))

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ParseError):
            read_pgm(str(path))
