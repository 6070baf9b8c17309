"""End-to-end tests of the command-line interface (run in process)."""

import json

import numpy as np
import pytest

from conftest import piecewise_image, random_regression
from nash.ash import AshPrior
from nash.cli import _build_prior, build_parser, main
from nash.data import Dataset, SideInfo
from nash.engine import FitConfig, fit
from nash.fused import DenoiseConfig, FusedScales
from nash.pgm import read_pgm, write_pgm


def write_csv(path, matrix):
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def regression_files(tmp_path):
    X, y, _ = random_regression(17, n=30, p=5)
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    write_csv(x_path, X)
    write_csv(y_path, y[:, None])
    return X, y, str(x_path), str(y_path)


class TestFitCommand:
    def test_smoke_fit(self, regression_files, tmp_path, capsys):
        _, _, x_path, y_path = regression_files
        out = tmp_path / "model.json"
        code = main(["fit", "--x", x_path, "--y", y_path, "--out", str(out), "--seed", "1"])
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "final_elbo=" in stdout and "pi0=" in stdout and "sweeps=" in stdout

    def test_identical_seeds_byte_identical_models(self, regression_files, tmp_path):
        _, _, x_path, y_path = regression_files
        files = []
        for run in range(2):
            out = tmp_path / f"model{run}.json"
            assert main(["fit", "--x", x_path, "--y", y_path, "--out", str(out), "--seed", "9"]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_softmax_requires_side_info(self, regression_files, tmp_path, capsys):
        _, _, x_path, y_path = regression_files
        code = main(["fit", "--x", x_path, "--y", y_path, "--prior", "softmax",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "side information" in err

    def test_softmax_with_side_csv(self, regression_files, tmp_path):
        _, _, x_path, y_path = regression_files
        side = tmp_path / "side.csv"
        side.write_text("a\na\nb\nb\nb\n")
        code = main(["fit", "--x", x_path, "--y", y_path, "--prior", "softmax",
                     "--side", str(side), "--steps", "30", "--later-steps", "10",
                     "--out", str(tmp_path / "m.json")])
        assert code == 0

    def test_fused_with_chain_graph(self, regression_files, tmp_path):
        _, _, x_path, y_path = regression_files
        code = main(["fit", "--x", x_path, "--y", y_path, "--prior", "fused",
                     "--side", "chain", "--max-sweeps", "10",
                     "--out", str(tmp_path / "m.json")])
        assert code == 0

    def test_constant_column_fails_without_flag(self, tmp_path, capsys):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        y = np.arange(10.0)
        write_csv(tmp_path / "x.csv", X)
        write_csv(tmp_path / "y.csv", y[:, None])
        code = main(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_drop_constant_flag(self, tmp_path, capsys):
        # a sample sd finds a column of 0.1 at n=20 not quite constant
        for value in (3.0, 0.1):
            rng = np.random.default_rng(0)
            X = np.column_stack([np.full(20, value), rng.standard_normal((20, 3))])
            y = X[:, 1] * 2.0 + 0.1 * rng.standard_normal(20)
            write_csv(tmp_path / "x.csv", X)
            write_csv(tmp_path / "y.csv", y[:, None])
            model = tmp_path / "m.json"
            code = main(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                         "--drop-constant", "--out", str(model)])
            assert code == 0
            assert "dropped 1 constant" in capsys.readouterr().err
            # prediction still accepts the original four-column layout
            write_csv(tmp_path / "new.csv", X[:3])
            assert main(["predict", "--model", str(model), "--x", str(tmp_path / "new.csv"),
                         "--out", str(tmp_path / "p.csv")]) == 0

    @pytest.fixture
    def constant_column_files(self, tmp_path):
        # 12 columns on a 3x4 layout; column 5 is constant
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 12))
        X[:, 5] = 2.0
        y = X[:, :4] @ np.array([1.5, 1.5, -1.0, 0.5]) + 0.3 * rng.standard_normal(40)
        write_csv(tmp_path / "x.csv", X)
        write_csv(tmp_path / "y.csv", y[:, None])
        return ["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                "--drop-constant", "--out", str(tmp_path / "m.json")]

    def test_drop_constant_with_side_features(self, constant_column_files, tmp_path, capsys):
        side = tmp_path / "side.csv"
        side.write_text("".join("a\n" if j < 6 else "b\n" for j in range(12)))
        code = main(constant_column_files + ["--prior", "softmax", "--side", str(side),
                                             "--steps", "30", "--later-steps", "10", "--max-sweeps", "5"])
        assert code == 0
        assert "dropped 1 constant" in capsys.readouterr().err

    @pytest.mark.parametrize("graph", ["chain", "grid:3x4", "edges"])
    def test_drop_constant_with_graph(self, constant_column_files, tmp_path, graph):
        if graph == "edges":
            edges = tmp_path / "edges.csv"
            edges.write_text("".join(f"{j},{j + 1}\n" for j in range(11)))
            graph = str(edges)
        code = main(constant_column_files + ["--prior", "fused", "--side", graph, "--max-sweeps", "5"])
        assert code == 0

    def test_dropped_column_cuts_the_graph(self):
        args = build_parser().parse_args(["fit", "--x", "x.csv", "--y", "y.csv", "--out", "m.json",
                                          "--prior", "fused", "--side", "chain"])
        _, side = _build_prior(args, 6, np.array([0, 1, 3, 4, 5]))
        assert side.graph.kind == "chain"
        assert side.graph.src.tolist() == [0, 1, 2, 3, 3, 4]
        assert side.graph.dst.tolist() == [1, 0, 3, 2, 4, 3]

    @pytest.mark.parametrize("side, message", [("self-loop", "self-loop"),
                                               ("grid:-1x-5", "at least one row")])
    def test_bad_graph_is_single_line_error(self, regression_files, tmp_path, capsys, side, message):
        _, _, x_path, y_path = regression_files
        if side == "self-loop":
            edges = tmp_path / "edges.csv"
            edges.write_text("0,1\n2,2\n")
            side = str(edges)
        out = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--prior", "fused", "--side", side,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert message in err and not out.exists()

    @pytest.mark.parametrize("flags", [["--prior", "softmax", "--hidden", "-1"],
                                       ["--prior", "mdn", "--mdn-components", "0"]])
    def test_bad_network_size_is_single_line_error(self, regression_files, tmp_path, capsys, flags):
        _, _, x_path, y_path = regression_files
        side = tmp_path / "side.csv"
        side.write_text("a\na\nb\nb\nb\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--side", str(side), "--out", str(out)]
                    + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("prior, flags, hidden", [("mdn", [], 16), ("mdn", ["--hidden", "0"], 0),
                                                      ("softmax", [], 0), ("softmax", ["--hidden", "3"], 3)])
    def test_hidden_default_per_prior(self, regression_files, tmp_path, prior, flags, hidden):
        _, _, x_path, y_path = regression_files
        side = tmp_path / "side.csv"
        side.write_text("a\na\nb\nb\nb\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--prior", prior, "--side", str(side),
                     "--steps", "10", "--later-steps", "5", "--max-sweeps", "3", "--out", str(out)]
                    + flags) == 0
        params = json.loads(out.read_text())["prior"]["params"]
        assert params["architecture"]["hidden"] == hidden
        assert ("w1" in params["arrays"]) == (hidden > 0)

    @pytest.mark.parametrize("flags", [["--prior", "softmax", "--learning-rate", "nan"],
                                       ["--prior", "softmax", "--learning-rate", "inf"],
                                       ["--prior", "mdn", "--learning-rate", "0"],
                                       ["--prior", "softmax", "--elbo-tol", "nan"],
                                       ["--prior", "softmax", "--elbo-tol", "inf"]])
    def test_non_finite_hyperparameter_is_single_line_error(self, regression_files, tmp_path, capsys,
                                                            flags):
        _, _, x_path, y_path = regression_files
        side = tmp_path / "side.csv"
        side.write_text("a\na\nb\nb\nb\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--side", str(side), "--out", str(out)]
                    + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert flags[-2][2:].replace("-", "_") in err
        assert not out.exists()

    @pytest.mark.parametrize("prior", ["ash", "softmax", "mdn", "fused"])
    def test_negative_seed_is_single_line_error(self, regression_files, tmp_path, capsys, prior):
        _, _, x_path, y_path = regression_files
        side = tmp_path / "side.csv"
        side.write_text("a\na\nb\nb\nb\n")
        flags = {"ash": [], "fused": ["--side", "chain"]}.get(prior, ["--side", str(side)])
        out = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--prior", prior, *flags, "--seed", "-1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "seed must be non-negative" in err and not out.exists()

    def test_ash_prior_rejects_side_information(self, regression_files, tmp_path, capsys):
        _, _, x_path, y_path = regression_files
        side = tmp_path / "side.csv"
        side.write_text("a\na\nb\nb\nb\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--side", str(side), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "ash prior takes no side information" in err and not out.exists()

    def test_side_rows_checked_against_original_columns(self, constant_column_files, tmp_path, capsys):
        side = tmp_path / "side.csv"
        side.write_text("a\nb\n" * 4)
        code = main(constant_column_files + ["--prior", "softmax", "--side", str(side)])
        assert code == 2
        assert "has 8 rows but the design has 12 columns" in capsys.readouterr().err


    def test_grid_size_below_two_rejected(self, regression_files, tmp_path, capsys):
        _, _, x_path, y_path = regression_files
        out = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--grid-size", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestPredictCommand:
    def test_training_rows_match_fitted_values(self, regression_files, tmp_path):
        X, y, x_path, y_path = regression_files
        model = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--out", str(model), "--seed", "4"]) == 0
        pred_path = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--x", x_path, "--out", str(pred_path)]) == 0
        predictions = np.array([float(line) for line in pred_path.read_text().splitlines()])
        reference = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=20), FitConfig())
        np.testing.assert_allclose(predictions, reference.fitted_values, atol=1e-10)

    def test_empty_input_rejected(self, regression_files, tmp_path, capsys):
        _, _, x_path, y_path = regression_files
        model = tmp_path / "m.json"
        main(["fit", "--x", x_path, "--y", y_path, "--out", str(model)])
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["predict", "--model", str(model), "--x", str(empty),
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_header_only_gives_zero_rows(self, regression_files, tmp_path):
        _, _, x_path, y_path = regression_files
        model = tmp_path / "m.json"
        main(["fit", "--x", x_path, "--y", y_path, "--out", str(model)])
        header_only = tmp_path / "h.csv"
        header_only.write_text("a,b,c,d,e\n")
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--x", str(header_only),
                     "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_dimension_mismatch_rejected(self, regression_files, tmp_path):
        _, _, x_path, y_path = regression_files
        model = tmp_path / "m.json"
        main(["fit", "--x", x_path, "--y", y_path, "--out", str(model)])
        write_csv(tmp_path / "wide.csv", np.zeros((2, 9)))
        assert main(["predict", "--model", str(model), "--x", str(tmp_path / "wide.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("columns", []),
        ("columns", [0, 1, 2, 3, "a"]),
        ("columns", [0, 1, 2, 3, 3.5]),
        ("columns", [[0], [1], [2], [3], [4]]),
        ("columns", [-1, 0, 1, 2, 3]),
        ("columns", [True, 1, 2, 3, 4]),
        ("columns", [0, 1, 2]),
        ("columns", [0, 0, 1, 2, 3]),
        ("coefficients", [[1.0, 2.0, 3.0, 4.0, 5.0]]),
        ("coefficients", [1.0, 2.0, 3.0, 4.0, None]),
        ("coefficients", []),
        ("intercept", float("nan")),
        ("format_version", 2),
    ], ids=["columns-empty", "columns-text", "columns-fraction", "columns-nested", "columns-negative",
            "columns-bool", "columns-short", "columns-repeated", "coefficients-2d", "coefficients-null", "coefficients-empty",
            "intercept-nan", "format-version-2"])
    def test_malformed_model_rejected(self, regression_files, tmp_path, capsys, field, value):
        _, _, x_path, y_path = regression_files
        model = tmp_path / "m.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--out", str(model), "--max-sweeps", "3"]) == 0
        doc = json.loads(model.read_text())
        doc[field] = value
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--x", x_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestSimulateCommand:
    def test_row_count_and_determinism(self, tmp_path):
        # --threads is accepted and ignored: the output does not depend on it
        args = ["simulate", "--experiment", "3", "--replicates", "1", "--n", "30",
                "--p", "5", "--seed", "2"]
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"r{threads}.csv"
            assert main(args + ["--threads", threads, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        assert len(lines) == 1 + 6  # header + six signal fractions x one replicate

    def test_negative_seed_is_single_line_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["simulate", "--experiment", "3", "--replicates", "1", "--n", "30",
                     "--p", "5", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "seed must be non-negative" in err and not out.exists()

    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        assert main(["simulate", "--experiment", "9", "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("replicates", ["0", "-2"])
    def test_replicates_below_one_rejected(self, tmp_path, capsys, replicates):
        out = tmp_path / "r.csv"
        assert main(["simulate", "--experiment", "3", "--replicates", replicates,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n", "-5"], ["--noise-dist", "t(x)"], ["--noise-dist", "t(0)"]])
    def test_bad_size_or_noise_law_is_single_line_error(self, tmp_path, capsys, flags):
        out = tmp_path / "r.csv"
        assert main(["simulate", "--experiment", "3", "--replicates", "1", "--n", "30",
                     "--p", "5", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["--experiment", "5", "--n", "40"], ["--p", "10"]),
        (["--experiment", "3", "--n", "40", "--p", "30"], ["--pve", "1.5"]),
        (["--experiment", "2", "--p", "30"], ["--n", "1"]),
    ])
    def test_override_of_the_varied_field_is_ignored(self, tmp_path, args, flag):
        # the experiment sets the field it varies: the flag changes no row, even out of range
        common = ["simulate", *args, "--replicates", "1", "--max-sweeps", "2", "--seed", "2"]
        plain, overridden = tmp_path / "plain.csv", tmp_path / "overridden.csv"
        assert main([*common, "--out", str(plain)]) == 0
        assert main([*common, *flag, "--out", str(overridden)]) == 0
        assert overridden.read_bytes() == plain.read_bytes()

    def test_grid_size_below_two_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["simulate", "--experiment", "3", "--replicates", "1", "--n", "30",
                     "--p", "5", "--grid-size", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestDenoiseCommand:
    def test_constant_image_unchanged(self, tmp_path):
        image = np.full((10, 12), 0.5)
        src = tmp_path / "in.pgm"
        write_pgm(str(src), image)
        out = tmp_path / "out.pgm"
        assert main(["denoise", "--image", str(src), "--out", str(out)]) == 0
        np.testing.assert_allclose(read_pgm(str(out)), image, atol=1.0 / 255)

    def test_reports_rmse_improvement(self, tmp_path, capsys):
        image = piecewise_image(2)
        noisy = np.clip(image + np.random.default_rng(2).normal(0, 0.2, image.shape), 0, 1)
        src = tmp_path / "noisy.pgm"
        truth = tmp_path / "clean.pgm"
        write_pgm(str(src), noisy)
        write_pgm(str(truth), image)
        out = tmp_path / "out.pgm"
        code = main(["denoise", "--image", str(src), "--out", str(out),
                     "--truth", str(truth), "--sigma", "0.2"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "rmse_noisy=" in stdout and "rmse_denoised=" in stdout
        values = dict(part.split("=") for part in stdout.split())
        assert float(values["rmse_denoised"]) < float(values["rmse_noisy"])

    @pytest.mark.parametrize("truth", ["missing", "wrong-shape"])
    def test_bad_truth_rejected_before_writing(self, tmp_path, capsys, truth):
        src = tmp_path / "in.pgm"
        write_pgm(str(src), piecewise_image(2, size=64))
        path = tmp_path / "truth.pgm"
        if truth == "wrong-shape":
            write_pgm(str(path), np.zeros((8, 8)))
        out = tmp_path / "out.pgm"
        assert main(["denoise", "--image", str(src), "--out", str(out), "--truth", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_sweeps_below_one_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(str(src), piecewise_image(2, size=12))
        out = tmp_path / "out.pgm"
        assert main(["denoise", "--image", str(src), "--out", str(out), "--sweeps", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_single_pixel_without_noise_sd_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(str(src), np.full((1, 1), 0.5))
        out = tmp_path / "out.pgm"
        assert main(["denoise", "--image", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--sigma" in err
        assert not out.exists()

    def test_learn_scales_option_removed(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(str(src), piecewise_image(2, size=12))
        out = tmp_path / "out.pgm"
        with pytest.raises(SystemExit) as excinfo:
            main(["denoise", "--image", str(src), "--out", str(out), "--learn-scales"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--s1", "0"], ["--s2", "-1"], ["--s1", "nan"],
                                       ["--sigma", "-0.2"], ["--sigma", "0"], ["--sigma", "nan"]])
    def test_bad_scale_or_noise_is_single_line_error(self, tmp_path, capsys, flags):
        src = tmp_path / "in.pgm"
        write_pgm(str(src), piecewise_image(2, size=12))
        out = tmp_path / "out.pgm"
        assert main(["denoise", "--image", str(src), "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_non_pgm_rejected(self, tmp_path, capsys):
        bad = tmp_path / "img.pgm"
        bad.write_text("not an image")
        assert main(["denoise", "--image", str(bad), "--out", str(tmp_path / "o.pgm")]) == 2
        assert capsys.readouterr().err.startswith("error:")


def _latin1(path):
    path.write_bytes("0,1\n1,2\n\u00e9t\u00e9,3\n".encode("latin-1"))
    return str(path)


def _odd_p5(path):
    # 16-bit P5 whose body stops one byte into its last pixel
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00\x01" * 3 + b"\x00")
    return str(path)


def _model(x, y, tmp):
    assert main(["fit", "--x", x, "--y", y, "--out", str(tmp / "m.json")]) == 0
    return str(tmp / "m.json")


def _image(tmp):
    write_pgm(str(tmp / "img.pgm"), piecewise_image(1, size=8))
    return str(tmp / "img.pgm")


# each builds the command line from (x.csv, y.csv, tmp_path); "missing/out" names no directory
_IO_ERRORS = {
    "non-UTF-8 --x": lambda x, y, tmp: ["fit", "--x", _latin1(tmp / "bad.csv"), "--y", y,
                                        "--out", str(tmp / "m.json")],
    "non-UTF-8 --y": lambda x, y, tmp: ["fit", "--x", x, "--y", _latin1(tmp / "bad.csv"),
                                        "--out", str(tmp / "m.json")],
    "non-UTF-8 --side features": lambda x, y, tmp: ["fit", "--x", x, "--y", y, "--prior", "softmax",
                                                    "--side", _latin1(tmp / "bad.csv"),
                                                    "--out", str(tmp / "m.json")],
    "non-UTF-8 --side edges": lambda x, y, tmp: ["fit", "--x", x, "--y", y, "--prior", "fused",
                                                 "--side", _latin1(tmp / "bad.csv"),
                                                 "--out", str(tmp / "m.json")],
    "non-UTF-8 --model": lambda x, y, tmp: ["predict", "--model", _latin1(tmp / "bad.json"), "--x", x,
                                            "--out", str(tmp / "p.csv")],
    "odd P5 image": lambda x, y, tmp: ["denoise", "--image", _odd_p5(tmp / "odd.pgm"),
                                       "--out", str(tmp / "o.pgm")],
    "fit --out": lambda x, y, tmp: ["fit", "--x", x, "--y", y, "--out", str(tmp / "missing/out")],
    "predict --out": lambda x, y, tmp: ["predict", "--model", _model(x, y, tmp), "--x", x,
                                        "--out", str(tmp / "missing/out")],
    "simulate --out": lambda x, y, tmp: ["simulate", "--experiment", "3", "--replicates", "1",
                                         "--n", "20", "--p", "5", "--out", str(tmp / "missing/out")],
    "denoise --out": lambda x, y, tmp: ["denoise", "--image", _image(tmp),
                                        "--out", str(tmp / "missing/out")],
}


class TestIoErrors:
    @pytest.mark.parametrize("case", list(_IO_ERRORS))
    def test_unreadable_input_or_unwritable_output_is_single_line_error(
            self, regression_files, tmp_path, capsys, case):
        _, _, x_path, y_path = regression_files
        argv = _IO_ERRORS[case](x_path, y_path, tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestUsage:
    @pytest.mark.parametrize("command", ["fit", "predict", "simulate", "denoise"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        capsys.readouterr()

    def test_missing_required_argument_is_single_line_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--x", "x.csv"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestDefaults:
    """The library owns every default: an option the user leaves unset parses to None."""

    TUNING = {
        "fit": ("seed", "max_sweeps", "elbo_tol", "grid_size", "mdn_components", "steps",
                "later_steps", "learning_rate"),
        "simulate": ("seed", "grid_size", "max_sweeps"),
        "denoise": ("sweeps",),
    }
    REQUIRED = {
        "fit": ["--x", "x.csv", "--y", "y.csv", "--out", "m.json"],
        "simulate": ["--experiment", "1", "--out", "r.csv"],
        "denoise": ["--image", "in.pgm", "--out", "out.pgm"],
    }

    @pytest.mark.parametrize("command", ["fit", "simulate", "denoise"])
    def test_unset_tuning_options_are_none(self, command):
        args = build_parser().parse_args([command, *self.REQUIRED[command]])
        assert {name: getattr(args, name) for name in self.TUNING[command]} == \
               dict.fromkeys(self.TUNING[command])

    def test_denoise_scales_are_the_library_defaults(self):
        args = build_parser().parse_args(["denoise", *self.REQUIRED["denoise"]])
        assert FusedScales(args.s1, args.s2) == DenoiseConfig.scales


class TestTimedSmoke:
    def test_small_experiment_completes_quickly(self, tmp_path):
        import time
        out = tmp_path / "r.csv"
        started = time.monotonic()
        assert main(["simulate", "--experiment", "3", "--replicates", "2",
                     "--p", "100", "--out", str(out), "--seed", "0"]) == 0
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        assert len(out.read_text().splitlines()) == 1 + 6 * 2
