"""Tests for data ingestion, standardization and back-transformation."""

import csv
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nash.data
from nash.data import (
    Dataset,
    SideInfo,
    drop_constant_columns,
    load_matrix_csv,
    load_response_csv,
    load_side_csv,
    one_hot_encode,
    standardize,
    unstandardize,
)
from nash.errors import (
    ConstantColumnError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteError,
    ParseError,
)


class TestDataset:
    def test_shape_accessors(self):
        ds = Dataset(y=np.zeros(3), X=np.ones((3, 2)))
        assert (ds.n, ds.p) == (3, 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            Dataset(y=np.zeros(4), X=np.ones((3, 2)))

    def test_rejects_non_finite(self):
        X = np.ones((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(NonFiniteError):
            Dataset(y=np.zeros(3), X=X)

    def test_rejects_single_row(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(y=np.zeros(1), X=np.ones((1, 2)))


class TestStandardize:
    def test_unit_sd_column_is_left_alone(self):
        # column [1,2,3] has sample sd exactly 1; centering gives [-1,0,1]
        ds = Dataset(y=np.array([0.0, 1.0, 2.0]), X=np.array([[1.0], [2.0], [3.0]]))
        design = standardize(ds)
        np.testing.assert_allclose(design.Xs[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
        assert design.Xs[:, 0] @ design.Xs[:, 0] == pytest.approx(2.0)  # n - 1

    def test_constant_response_centers_to_zero(self):
        ds = Dataset(y=np.array([5.0, 5.0, 5.0]), X=np.array([[1.0], [2.0], [3.0]]))
        design = standardize(ds)
        np.testing.assert_array_equal(design.ys, np.zeros(3))
        assert design.y_mean == 5.0

    def test_constant_column_is_an_error(self):
        ds = Dataset(y=np.zeros(3), X=np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 5.0]]))
        with pytest.raises(ConstantColumnError) as err:
            standardize(ds)
        assert err.value.column == 0

    def test_column_invariants(self, rng):
        X = rng.standard_normal((30, 6)) * rng.uniform(0.5, 10.0, size=6) + rng.normal(0, 5, size=6)
        design = standardize(Dataset(y=rng.standard_normal(30), X=X))
        n = 30
        assert design.Xs.flags.f_contiguous
        assert np.all(np.abs(design.Xs.mean(axis=0)) < 1e-10)
        norms = np.einsum("ij,ij->j", design.Xs, design.Xs)
        assert np.all(np.abs(norms - (n - 1)) < 1e-8 * (n - 1))
        assert abs(design.ys.mean()) < 1e-10
        assert np.all(design.col_scales > 0)

    def test_idempotent_on_standardized_data(self, rng):
        X = rng.standard_normal((50, 4))
        design = standardize(Dataset(y=rng.standard_normal(50), X=X))
        again = standardize(Dataset(y=design.ys, X=design.Xs))
        np.testing.assert_allclose(again.Xs, design.Xs, atol=1e-12)
        np.testing.assert_allclose(again.col_scales, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(again.col_means, np.zeros(4), atol=1e-12)


class TestUnstandardize:
    def test_zero_vector_gives_null_model(self, rng):
        design = standardize(Dataset(y=rng.normal(3.0, 1.0, 20), X=rng.standard_normal((20, 3))))
        coef, intercept = unstandardize(np.zeros(3), design)
        np.testing.assert_array_equal(coef, np.zeros(3))
        assert intercept == pytest.approx(design.y_mean)

    def test_identity_transform(self, rng):
        X = rng.standard_normal((40, 3))
        design = standardize(Dataset(y=rng.standard_normal(40), X=X))
        identity = type(design)(
            Xs=design.Xs,
            ys=design.ys,
            y_mean=design.y_mean,
            col_means=np.zeros(3),
            col_scales=np.ones(3),
        )
        b = np.array([0.5, -1.0, 2.0])
        coef, intercept = unstandardize(b, identity)
        np.testing.assert_array_equal(coef, b)
        assert intercept == pytest.approx(design.y_mean)

    def test_rejects_length_mismatch(self, rng):
        design = standardize(Dataset(y=rng.standard_normal(10), X=rng.standard_normal((10, 3))))
        with pytest.raises(LengthMismatchError):
            unstandardize(np.zeros(4), design)

    def test_raw_predictions_match_standardized(self, rng):
        # oracle: evaluate the linear predictor both ways and compare directly
        X = rng.standard_normal((25, 5)) * rng.uniform(0.2, 4.0, 5) + rng.normal(0, 2, 5)
        y = rng.standard_normal(25)
        design = standardize(Dataset(y=y, X=X))
        b_scaled = rng.standard_normal(5)
        coef, intercept = unstandardize(b_scaled, design)
        raw = X @ coef + intercept
        std = design.Xs @ b_scaled + design.y_mean
        np.testing.assert_allclose(raw, std, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 15, 4
        X = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p) + rng.normal(0, 1, p)
        y = rng.standard_normal(n)
        design = standardize(Dataset(y=y, X=X))
        b_scaled = rng.standard_normal(p)
        coef, intercept = unstandardize(b_scaled, design)
        np.testing.assert_allclose(
            X @ coef + intercept, design.Xs @ b_scaled + design.y_mean, atol=1e-10
        )


class TestDropConstantColumns:
    def test_drops_and_reports_kept(self):
        X = np.array([[1.0, 7.0, 2.0], [2.0, 7.0, 1.0], [3.0, 7.0, 5.0]])
        reduced, kept = drop_constant_columns(Dataset(y=np.zeros(3), X=X))
        np.testing.assert_array_equal(kept, [0, 2])
        assert reduced.p == 2


class TestCsv:
    def test_numeric_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        matrix, header = load_matrix_csv(str(path))
        assert header is None
        np.testing.assert_array_equal(matrix, [[1, 2], [3, 4], [5, 6]])

    def test_header_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        matrix, header = load_matrix_csv(str(path))
        assert header == ["a", "b"]
        assert matrix.shape == (1, 2)

    def test_header_only_gives_zero_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n")
        matrix, _ = load_matrix_csv(str(path))
        assert matrix.shape == (0, 2)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\nNaN,4\n")
        with pytest.raises(ParseError) as err:
            load_matrix_csv(str(path))
        assert err.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_matrix_csv(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            load_matrix_csv(str(path))

    def test_response_takes_first_column(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,100\n2,200\n")
        np.testing.assert_array_equal(load_response_csv(str(path)), [1.0, 2.0])

    @pytest.mark.parametrize("text, header", [
        ("\ufeff1,2\n3,4\n", None),
        ("\ufeffa,b\n1,2\n3,4\n", ["a", "b"]),
        ('\ufeff"a",b\r\n1,2\r\n3,4\r\n', ["a", "b"]),  # quoted: the field-by-field parser
    ])
    def test_byte_order_mark_is_not_part_of_the_first_field(self, tmp_path, text, header):
        # Excel's "CSV UTF-8" export writes a BOM; read as text it made the first row a header
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        matrix, found = load_matrix_csv(str(path))
        assert found == header
        np.testing.assert_array_equal(matrix, [[1, 2], [3, 4]])

    def test_byte_order_mark_in_side_csv(self, tmp_path):
        path = tmp_path / "side.csv"
        path.write_bytes("\ufeff1.5,b\n2.0,a\n".encode("utf-8"))
        D, labels = load_side_csv(str(path))
        assert labels == ["c0", "c1=a", "c1=b"]
        np.testing.assert_array_equal(D, [[1.5, 0, 1], [2.0, 1, 0]])

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\n\xe9,3\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_matrix_csv(str(path))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self):
        # a pipe cannot be rewound, so it goes straight to the field-by-field parser
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"a,b\r\n1,2\r\n3,4\r\n")
            os.close(write_end)
            matrix, header = load_matrix_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(matrix, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("text", [
        "1,2\n3,4\n",
        "a,b\r\n1e-3, -2\r\n\r\n3.5,4\r\n",
        "\ufeffx\n1\n2",
    ])
    def test_plain_numeric_file_takes_one_loadtxt_pass(self, tmp_path, monkeypatch, text):
        def careful_parser(fh):
            raise AssertionError("the field-by-field parser ran on a plain numeric file")

        monkeypatch.setattr(nash.data, "_read_rows", careful_parser)
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        matrix, _ = load_matrix_csv(str(path))
        assert matrix.shape[0] == 2
        assert load_response_csv(str(path)).shape == (2,)


# ---------------------------------------------------------------------------
# The loadtxt pass against the field-by-field parser it replaced as the only one
# ---------------------------------------------------------------------------


def reference_load_matrix_csv(path):
    """``load_matrix_csv`` as it was before the ``np.loadtxt`` pass: csv module plus ``float``."""

    def parse_float(token, line, column):
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"cannot parse {token!r} as a number", line, column) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {token!r}", line, column)
        return value

    def looks_numeric(row):
        for token in row:
            try:
                float(token)
            except ValueError:
                return False
        return True

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    if not rows:
        raise ParseError(f"{path} is empty")
    header = None
    start = 0
    if not looks_numeric(rows[0]):
        header = rows[0]
        start = 1
    width = len(header) if header else len(rows[start]) if len(rows) > start else 0
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise ParseError(f"expected {width} fields, found {len(row)}", line=i + 1)
        for j, token in enumerate(row):
            data[i - start, j] = parse_float(token, i + 1, j + 1)
    return data, header


_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = st.one_of(_finite.map(repr), _finite.map(lambda v: "%.17g" % v),
                    st.integers(-10**6, 10**6).map(str))
_padded = st.tuples(st.sampled_from(["", " ", "  ", "\t"]), _number,
                    st.sampled_from(["", " "])).map("".join)
# tokens the loadtxt pass must hand to the field-by-field parser
_odd = st.sampled_from(['"1.5"', "1_0", "nan", "1e400", "-inf", "", " ", "x", "#1", "1e-400", "0x10"])
_cell = st.one_of(_padded, _padded, _padded, _odd)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    odd = draw(st.booleans())
    lines = []
    header = draw(st.sampled_from([None, "plain", "quoted"]))
    names = [f"c{j}" for j in range(max(1, width + draw(st.sampled_from([0, 0, -1, 1])) * odd))]
    if header == "plain":
        lines.append(",".join(names))
    elif header == "quoted":
        lines.append(",".join(f'"{name}"' for name in names))
    for _ in range(draw(st.integers(0, 5))):
        cells = [draw(_cell if odd else _padded) for _ in range(width)]
        if odd:
            cells += draw(st.sampled_from([[], [], [], [""], ["1"]]))  # trailing comma, ragged row
            if draw(st.booleans()) and len(cells) > 1:
                cells.pop()
        lines.append(",".join(cells))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "\t", "# comment"])) if odd else "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("parity") / "m.csv")


class TestLoadtxtParity:
    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_matches_field_by_field_parser(self, csv_path, text):
        path = csv_path
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        try:
            expected = reference_load_matrix_csv(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                load_matrix_csv(path)
            assert (err.value.line, err.value.column, str(err.value)) == (exc.line, exc.column, str(exc))
            return
        matrix, header = load_matrix_csv(path)
        assert header == expected[1]
        assert matrix.shape == expected[0].shape
        assert matrix.tobytes() == expected[0].tobytes()


class TestSideInfo:
    def test_one_hot_is_lexicographic(self):
        encoded, categories = one_hot_encode(["b", "a", "b"])
        assert categories == ["a", "b"]
        np.testing.assert_array_equal(encoded, [[0, 1], [1, 0], [0, 1]])

    def test_mixed_side_csv(self, tmp_path):
        path = tmp_path / "side.csv"
        path.write_text("1.5,b\n2.0,a\n0.5,b\n")
        D, labels = load_side_csv(str(path))
        assert labels == ["c0", "c1=a", "c1=b"]
        np.testing.assert_array_equal(D[:, 1:], [[0, 1], [1, 0], [0, 1]])
        np.testing.assert_allclose(D[:, 0], [1.5, 2.0, 0.5])

    def test_feature_row_count_checked(self):
        side = SideInfo.from_features(np.ones((4, 2)))
        with pytest.raises(DimensionMismatchError):
            side.check_p(5)
        side.check_p(4)
