import csv
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privauction import (
    DegenerateKernelMass,
    EmptyInstance,
    FeatureSet,
    GaussianKernel,
    KOutOfRange,
    LinearKernel,
    ValidationError,
    ValueInterval,
    WeightSpec,
    kernel_regression_weights,
    knn_weights,
    nadaraya_watson_weights,
    ridge_weights,
)
from privauction.errors import IllConditionedWarning, InstanceTooLarge, ParseError, SingularSystem
from privauction.predictors import (
    DROP_TOLERANCE,
    KERNEL_LIMIT,
    DerivedWeights,
    _drop_negligible,
    _spd_solve,
    build_instance,
    load_feature_csv,
)


def dense(derived, n):
    out = np.zeros(n)
    out[list(derived.kept)] = derived.weights
    return out


def warns_ill_conditioned(features, kernel, lam) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel_regression_weights(features, kernel, lam)
    return any(issubclass(w.category, IllConditionedWarning) for w in caught)


def reference_drop(raw, method, drop_tol=DROP_TOLERANCE):
    """Element-by-element drop rule, the reference for the vectorized one."""
    threshold = drop_tol * float(np.sum(np.abs(raw)))
    kept = [i for i, w in enumerate(raw) if abs(float(w)) > threshold and float(w) != 0.0]
    dropped = [i for i in range(len(raw)) if i not in kept]
    return DerivedWeights(tuple(float(raw[i]) for i in kept), tuple(kept), tuple(dropped), method)


def reference_csv(text, id_column=False):
    """Cell-by-cell CSV parse, the reference for the vectorized one; errors as messages."""
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        return "feature CSV is empty"

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    if all(number(cell) is None for cell in rows[0]):
        rows = rows[1:]
        if not rows:
            return "feature CSV has a header but no data rows"
    ids = None
    if id_column:
        ids = [row[0] for row in rows]
        rows = [row[1:] for row in rows]
    width = len(rows[0])
    if width < 1:
        return "feature CSV has no feature columns"
    matrix = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            return f"feature CSV row {i} has {len(row)} columns, expected {width}"
        for j, cell in enumerate(row):
            if number(cell) is None:
                return f"feature CSV cell ({i}, {j}) is not numeric: {cell!r}"
            matrix[i, j] = number(cell)
    return ids, matrix


def parse_or_message(text, id_column=False):
    try:
        return load_feature_csv(io.StringIO(text), id_column=id_column)
    except ParseError as exc:
        return str(exc)


class TestDropNegligible:
    @given(
        raw=st.lists(
            st.one_of(
                st.floats(),
                st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.25, -0.25, 0.5, 1.0]),
            ),
            max_size=12,
        ),
        drop_tol=st.sampled_from([DROP_TOLERANCE, 0.0, 0.125, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, raw, drop_tol):
        raw = np.array(raw, dtype=np.float64)
        got = _drop_negligible(raw, "m", drop_tol)
        assert got == reference_drop(raw, "m", drop_tol)
        assert all(type(w) is float for w in got.weights)
        assert all(type(i) is int for i in got.kept + got.dropped)

    def test_value_at_threshold_dropped(self):
        # total 1, threshold 0.25: the two entries at 0.25 are not above it
        raw = np.array([0.5, 0.25, -0.25])
        got = _drop_negligible(raw, "m", 0.25)
        assert got == reference_drop(raw, "m", 0.25)
        assert got.kept == (0,) and got.dropped == (1, 2)

    def test_all_zero_and_non_finite(self):
        zeros = np.array([0.0, -0.0, 0.0])
        assert _drop_negligible(zeros, "m").dropped == (0, 1, 2)
        odd = np.array([1.0, math.nan, math.inf, -0.0])
        assert _drop_negligible(odd, "m") == reference_drop(odd, "m")


class TestKnn:
    def test_full_neighborhood(self):
        fs = FeatureSet(np.arange(4.0).reshape(4, 1), np.array([0.0]))
        d = knn_weights(fs, 4)
        assert d.weights == (0.25, 0.25, 0.25, 0.25)
        assert d.dropped == ()

    def test_exact_match_single(self):
        fs = FeatureSet(np.array([[0.0], [1.0], [2.0]]), np.array([2.0]))
        d = knn_weights(fs, 1)
        assert d.weights == (1.0,)
        assert d.kept == (2,)
        assert d.dropped == (0, 1)

    def test_two_nearest_by_hand(self):
        fs = FeatureSet(np.array([[0.0], [1.0], [2.0]]), np.array([0.9]))
        d = knn_weights(fs, 2)
        # distances are 0.9, 0.1, 1.1: neighbors are rows 1 and 0
        assert d.kept == (0, 1)
        assert d.weights == (0.5, 0.5)

    def test_distance_ties_take_smaller_index(self):
        fs = FeatureSet(np.array([[1.0], [-1.0], [1.0]]), np.array([0.0]))
        d = knn_weights(fs, 1)
        assert d.kept == (0,)

    def test_k_out_of_range(self):
        fs = FeatureSet(np.array([[0.0]]), np.array([0.0]))
        for k in (0, 2):
            with pytest.raises(KOutOfRange):
                knn_weights(fs, k)

    def test_simplex(self):
        rng = np.random.default_rng(0)
        fs = FeatureSet(rng.normal(size=(7, 3)), rng.normal(size=3))
        d = knn_weights(fs, 3)
        assert all(w >= 0 for w in d.weights)
        assert sum(d.weights) == pytest.approx(1.0, abs=1e-12)


class TestNadarayaWatson:
    def test_single_row(self):
        fs = FeatureSet(np.array([[3.0, 1.0]]), np.array([0.0, 0.0]))
        d = nadaraya_watson_weights(fs)
        assert d.weights == (1.0,)

    def test_equidistant_symmetry(self):
        fs = FeatureSet(np.array([[1.0], [-1.0]]), np.array([0.0]))
        d = nadaraya_watson_weights(fs)
        assert d.weights == (0.5, 0.5)

    def test_gaussian_value_by_hand(self):
        fs = FeatureSet(np.array([[0.0], [1.0]]), np.array([0.0]))
        d = nadaraya_watson_weights(fs, GaussianKernel(1.0))
        z = 1.0 + math.exp(-1.0)
        assert d.weights[0] == pytest.approx(1.0 / z, abs=1e-15)
        assert d.weights[1] == pytest.approx(math.exp(-1.0) / z, abs=1e-15)

    def test_degenerate_mass(self):
        fs = FeatureSet(np.array([[0.0], [1.0]]), np.array([1e6]))
        with pytest.raises(DegenerateKernelMass):
            nadaraya_watson_weights(fs, GaussianKernel(1.0))

    def test_simplex_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            fs = FeatureSet(rng.normal(size=(6, 2)), rng.normal(size=2))
            d = nadaraya_watson_weights(fs)
            assert all(w > 0 for w in d.weights)
            assert abs(sum(d.weights) - 1.0) <= 1e-12

    def test_linear_negative_mass_names_first_negative_row(self):
        # linear similarities of this seeded 12 x 3 matrix sum to -2.02
        fs = FeatureSet(np.random.default_rng(23).normal(size=(12, 3)), np.array([0.3, -0.2, 1.1]))
        assert np.sum(fs.matrix @ fs.query) == pytest.approx(-2.0153, abs=1e-4)
        with pytest.raises(ValidationError, match="negative at index 1$"):
            nadaraya_watson_weights(fs, LinearKernel())

    def test_linear_mixed_signs_with_positive_mass(self):
        # similarities 1, 2, -1: the mass 2 is positive, but row 2 would weigh -1/2
        fs = FeatureSet(np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 0.0]))
        with pytest.raises(ValidationError, match="negative at index 2$"):
            nadaraya_watson_weights(fs, LinearKernel())

    def test_linear_zero_mass_is_not_underflow(self):
        # rows 1,0 and 0,1 are orthogonal to the query 0,0: the mass is exactly zero
        fs = FeatureSet(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]))
        with pytest.raises(DegenerateKernelMass) as raised:
            nadaraya_watson_weights(fs, LinearKernel())
        assert str(raised.value) == "kernel mass is zero at this query"
        with pytest.raises(DegenerateKernelMass, match="underflowed"):
            nadaraya_watson_weights(FeatureSet(np.array([[0.0], [1.0]]), np.array([1e6])))

    def test_linear_nonnegative_similarities(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            fs = FeatureSet(rng.uniform(0, 1, size=(6, 2)), rng.uniform(0, 1, size=2))
            d = nadaraya_watson_weights(fs, LinearKernel())
            assert d.n_kept == 6
            assert all(w > 0 for w in d.weights)
            assert abs(sum(d.weights) - 1.0) <= 1e-12


class TestRidge:
    def test_identity_design_recovers_query(self):
        fs = FeatureSet(np.eye(3), np.array([1.0, 0.0, 0.0]))
        d = ridge_weights(fs, 1e-8)
        w = dense(d, 3)
        assert np.abs(w - np.array([1.0, 0.0, 0.0])).max() < 1e-6

    def test_scalar_case(self):
        fs = FeatureSet(np.array([[1.0], [1.0]]), np.array([1.0]))
        d = ridge_weights(fs, 1.0)
        assert d.weights == pytest.approx((1 / 3, 1 / 3), rel=1e-15)

    def test_against_explicit_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            Y = rng.normal(size=(8, 4))
            y = rng.normal(size=4)
            lam = float(rng.uniform(0.05, 2))
            d = ridge_weights(FeatureSet(Y, y), lam)
            explicit = y @ np.linalg.inv(Y.T @ Y + lam * np.eye(4)) @ Y.T
            got = dense(d, 8)
            scale = max(1.0, np.abs(explicit).max())
            assert np.abs(got - explicit).max() <= 1e-8 * scale

    def test_negative_weights_occur(self):
        Y = np.array([[1.0, 0.0], [-1.0, 0.5], [0.3, -2.0]])
        d = ridge_weights(FeatureSet(Y, np.array([1.0, 1.0])), 0.5)
        w = dense(d, 3)
        assert (w < 0).any()

    def test_lambda_must_be_positive(self):
        fs = FeatureSet(np.array([[1.0]]), np.array([1.0]))
        for lam in (0.0, -1.0):
            with pytest.raises(ValidationError):
                ridge_weights(fs, lam)

    def test_prediction_consistency(self):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(6, 3))
        y = rng.normal(size=3)
        data = rng.uniform(0, 1, 6)
        d = ridge_weights(FeatureSet(Y, y), 0.8)
        via_weights = float(dense(d, 6) @ data)
        textbook = float(y @ np.linalg.solve(Y.T @ Y + 0.8 * np.eye(3), Y.T @ data))
        assert via_weights == pytest.approx(textbook, rel=1e-8)

    def test_more_features_than_rows_keeps_digits_at_small_lam(self):
        # at n < m the m x m normal equations have m - n eigenvalues lam; the n x n
        # form of the push-through identity keeps the weights accurate
        rng = np.random.default_rng(9)
        for lam in (1e-10, 1e-13, 1e-16):
            Y = rng.normal(size=(3, 6))
            y = rng.normal(size=6)
            expected = np.linalg.solve(Y @ Y.T + lam * np.eye(3), Y @ y)
            got = dense(ridge_weights(FeatureSet(Y, y), lam), 3)
            assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()


class TestSpdSolve:
    def test_indefinite_matrix_raises_singular_system(self):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(SingularSystem, match="^system is not positive definite: "):
            _spd_solve(matrix, np.ones(2))


class TestKernelRegression:
    def test_linear_kernel_matches_ridge(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            Y = rng.normal(size=(7, 3))
            y = rng.normal(size=3)
            lam = float(rng.uniform(0.1, 2))
            fs = FeatureSet(Y, y)
            a = dense(ridge_weights(fs, lam), 7)
            b = dense(kernel_regression_weights(fs, LinearKernel(), lam), 7)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a - b).max() <= 1e-8 * scale

    def test_single_row_scalar_formula(self):
        fs = FeatureSet(np.array([[2.0]]), np.array([1.0]))
        kernel = GaussianKernel(1.0)
        d = kernel_regression_weights(fs, kernel, 0.5)
        k_qy = math.exp(-1.0)  # exp(-|1-2|^2)
        k_yy = 1.0
        assert d.weights[0] == pytest.approx(k_qy / (k_yy + 0.5), rel=1e-12)

    def test_far_query_drops_everyone(self):
        fs = FeatureSet(np.array([[0.0], [1.0]]), np.array([500.0]))
        d = kernel_regression_weights(fs, GaussianKernel(1.0), 0.5)
        assert d.kept == ()
        with pytest.raises(EmptyInstance):
            build_instance(d, [1.0, 1.0], 1.0, ValueInterval(0.0, 1.0))

    def test_gaussian_over_limit_raises_before_gram(self, monkeypatch):
        def gram(self, features):
            raise AssertionError("the Gram matrix was built")

        monkeypatch.setattr(GaussianKernel, "gram", gram)
        fs = FeatureSet(np.arange(KERNEL_LIMIT + 1.0).reshape(-1, 1), np.array([0.0]))
        with pytest.raises(InstanceTooLarge, match=f"n <= {KERNEL_LIMIT}"):
            kernel_regression_weights(fs, GaussianKernel(1.0), 1.0)
        # the linear kernel solves ridge's 1 x 1 system at any n
        assert kernel_regression_weights(fs, LinearKernel(), 1.0).method == "kernel-regression"

    def test_ill_conditioned_warning(self):
        Y = np.array([[1.0, 1.0 + 1e-9], [1.0, 1.0]])
        fs = FeatureSet(Y, np.array([1.0, 1.0]))
        with pytest.warns(IllConditionedWarning):
            kernel_regression_weights(fs, LinearKernel(), 1e-12)

    @pytest.mark.parametrize("n, m", [(3, 6), (5, 5), (9, 4)], ids=["n<m", "n=m", "n>m"])
    def test_linear_kernel_matches_n_by_n_solve(self, n, m):
        # the textbook kernel form, solved test-side on the n x n system
        rng = np.random.default_rng(10 * n + m)
        for _ in range(20):
            Y = rng.normal(size=(n, m))
            y = rng.normal(size=m)
            lam = float(rng.uniform(0.1, 2))
            expected = np.linalg.solve(Y @ Y.T + lam * np.eye(n), Y @ y)
            got = dense(kernel_regression_weights(FeatureSet(Y, y), LinearKernel(), lam), n)
            assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_linear_kernel_warns_iff_n_by_n_condition_exceeds_limit(self):
        rng = np.random.default_rng(12)

        def nearly_equal_rows(n, m):
            Y = np.ones((n, m))
            Y[-1] += 1e-9 * np.arange(m)
            return Y

        shapes = [(8, 3), (3, 8), (4, 4)]
        matrices = [rng.normal(size=shape) for shape in shapes]
        matrices += [nearly_equal_rows(*shape) for shape in [(2, 2), (2, 3), (3, 2), (5, 2)]]
        outcomes = set()
        for Y in matrices:
            n, m = Y.shape
            for lam in (1e-13, 1e-9, 1e-5, 1.0):
                condition = np.linalg.cond(Y @ Y.T + lam * np.eye(n))
                assert not 1e11 < condition < 1e13  # well away from the limit
                features = FeatureSet(Y, rng.normal(size=m))
                warned = warns_ill_conditioned(features, LinearKernel(), lam)
                assert warned == (condition > 1e12), (Y.shape, lam, condition)
                outcomes.add(warned)
        assert outcomes == {True, False}

    def test_gaussian_warns_iff_condition_exceeds_limit(self):
        # two equal rows: the system's eigenvalues are 2 + lam and lam
        fs = FeatureSet(np.array([[0.5, 1.0], [0.5, 1.0]]), np.array([0.0, 1.0]))
        for lam, warns in ((1e-14, True), (1e-6, False)):
            assert (np.linalg.cond(GaussianKernel().gram(fs) + lam * np.eye(2)) > 1e12) == warns
            assert warns_ill_conditioned(fs, GaussianKernel(), lam) == warns

    def test_gaussian_gram_bits_match_textbook_formula(self):
        rng = np.random.default_rng(8)
        Y = rng.normal(size=(40, 5))
        sq = np.einsum("ij,ij->i", Y, Y)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
        expected = np.exp(-np.maximum(d2, 0.0) / 1.3**2)
        got = GaussianKernel(1.3).gram(FeatureSet(Y, np.zeros(5)))
        assert got.tobytes() == expected.tobytes()

    def test_prediction_consistency(self):
        # weighted sum of the data equals the textbook prediction directly
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(6, 2))
        y = rng.normal(size=2)
        data = rng.uniform(0, 1, 6)
        kernel = GaussianKernel(1.2)
        d = kernel_regression_weights(FeatureSet(Y, y), kernel, 0.6)
        via_weights = float(dense(d, 6) @ data)
        fs = FeatureSet(Y, y)
        gram = kernel.gram(fs) + 0.6 * np.eye(6)
        textbook = float(kernel.against_query(fs) @ np.linalg.solve(gram, data))
        assert via_weights == pytest.approx(textbook, rel=1e-8)


class TestWeightSpec:
    def test_dispatch(self):
        fs = FeatureSet(np.array([[0.0], [1.0]]), np.array([0.0]))
        assert WeightSpec("knn", k=1).derive(fs).kept == (0,)
        assert WeightSpec("nadaraya-watson").derive(fs).n_kept == 2
        towards = FeatureSet(np.array([[0.5], [1.0]]), np.array([1.0]))
        assert WeightSpec("ridge", lam=1.0).derive(towards).n_kept >= 1
        assert WeightSpec("kernel-regression", lam=1.0).derive(towards).n_kept >= 1

    def test_missing_parameters(self):
        fs = FeatureSet(np.array([[0.0]]), np.array([0.0]))
        with pytest.raises(ValidationError):
            WeightSpec("knn").derive(fs)
        with pytest.raises(ValidationError):
            WeightSpec("ridge").derive(fs)
        with pytest.raises(ValidationError):
            WeightSpec("nope").derive(fs)

    @pytest.mark.parametrize("fields, message", [
        ({"method": "knn"}, "knn requires k"),
        ({"method": "ridge"}, "ridge requires a regularization strength"),
        ({"method": "kernel-regression"}, "kernel regression requires a regularization strength"),
        ({"method": "nope"}, "unknown weight method 'nope'"),
        ({"method": "nadaraya-watson", "kernel": "cosine"}, "unknown kernel 'cosine'"),
        ({"method": "kernel-regression", "lam": 1.0, "kernel": "cosine"}, "unknown kernel 'cosine'"),
        ({"method": "nadaraya-watson", "bandwidth": 0.0}, "bandwidth must be positive"),
        ({"method": "kernel-regression", "lam": 1.0, "bandwidth": math.nan},
         "bandwidth must be positive"),
        ({"method": "ridge", "lam": 0.0}, "regularization strength must be positive"),
        ({"method": "ridge", "lam": math.nan}, "regularization strength must be positive"),
        ({"method": "kernel-regression", "lam": -1.0}, "regularization strength must be positive"),
    ])
    def test_option_errors_raise_at_construction(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            WeightSpec(**fields)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_raises_at_construction(self, k):
        with pytest.raises(KOutOfRange, match=f"^k must be at least 1, got {k}$"):
            WeightSpec("knn", k=k)

    def test_unused_options_are_not_checked(self):
        # the bandwidth and kernel name only matter to the methods that build a kernel
        assert WeightSpec("ridge", lam=1.0, kernel="cosine", bandwidth=-1.0).lam == 1.0
        assert WeightSpec("knn", k=1, bandwidth=0.0).k == 1


class TestFeatureCsv:
    def test_plain_matrix(self):
        ids, matrix = load_feature_csv(io.StringIO("1,2\n3,4\n"))
        assert ids is None
        assert matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_header_skipped(self):
        ids, matrix = load_feature_csv(io.StringIO("age,height\n1,2\n"))
        assert matrix.tolist() == [[1.0, 2.0]]

    def test_id_column(self):
        ids, matrix = load_feature_csv(io.StringIO("alice,1,2\nbob,3,4\n"), id_column=True)
        assert ids == ["alice", "bob"]
        assert matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError, match="columns"):
            load_feature_csv(io.StringIO("1,2\n3\n"))

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError, match="not numeric"):
            load_feature_csv(io.StringIO("1,2\n3,x\n"))

    def test_empty(self):
        with pytest.raises(ParseError):
            load_feature_csv(io.StringIO(""))

    @given(
        cells=st.lists(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False).map(repr),
                    st.sampled_from([" 1.5 ", "1_0", "nan", "inf", "-inf", "-0", " 2", "1e3"]),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=8,
        ),
        width=st.integers(1, 3),
        header=st.booleans(),
        id_column=st.booleans(),
        bad=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 7), st.integers(0, 2), st.sampled_from(["x", "", "0x1", "1,5"])),
        ),
        ragged=st.one_of(st.none(), st.integers(0, 7)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_cell_by_cell_reference(self, cells, width, header, id_column, bad, ragged):
        rows = [row[:width] for row in cells]
        if id_column:
            rows = [[f"r{i}"] + row for i, row in enumerate(rows)]
        if bad is not None and bad[0] < len(rows):
            rows[bad[0]][min(bad[1], len(rows[bad[0]]) - 1)] = bad[2]
        if ragged is not None and ragged < len(rows):
            rows[ragged] = rows[ragged][:-1] or ["1", "2"]
        if header:
            rows.insert(0, [f"h{j}" for j in range(len(rows[0]))])
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        text = buffer.getvalue()
        got, expected = parse_or_message(text, id_column), reference_csv(text, id_column)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got[0] == expected[0]
            assert got[1].dtype == np.float64
            assert got[1].shape == expected[1].shape
            assert got[1].tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1,2\n3,4\n5\n", "feature CSV row 2 has 1 columns, expected 2"),
            ("1,2\n3,4\n5,x\n", "feature CSV cell (2, 1) is not numeric: 'x'"),
            ("1,2\n3,x\n5\n", "feature CSV cell (1, 1) is not numeric: 'x'"),
            ("", "feature CSV is empty"),
            ("a,b\n", "feature CSV has a header but no data rows"),
        ],
    )
    def test_error_messages(self, text, message):
        assert parse_or_message(text) == message == reference_csv(text)
        # the same faults in an id column's twin and in the fully quoted twin
        lines = text.splitlines()
        with_ids = "".join(f"r{i},{line}\n" for i, line in enumerate(lines))
        quoted = "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n" for line in lines)
        assert parse_or_message(with_ids, True) == message == reference_csv(with_ids, True)
        assert parse_or_message(quoted) == message == reference_csv(quoted)

    @pytest.mark.parametrize("text", ["r0\nr1\n", '"r0"\n"r1"\n'])
    def test_no_feature_columns(self, text):
        # the first row, all ids, is a header; the second leaves no column besides its id
        message = "feature CSV has no feature columns"
        assert parse_or_message(text, True) == message == reference_csv(text, True)

    @pytest.mark.parametrize("id_column", [False, True])
    def test_quoted_and_unquoted_text_agree(self, id_column):
        # the comma split reads unquoted text as csv.reader reads its quoted twin
        rows = [["id", "a", "b"], ["r0", "1.5", " 2"], [], ["r1", "-0", "1e3"], ["r 2", "nan", "3"]]
        if not id_column:
            rows = [row[1:] for row in rows]
        plain = "\n".join(",".join(row) for row in rows) + "\n"
        quoted = "\n".join(",".join(f'"{cell}"' for cell in row) for row in rows) + "\n"
        assert '"' not in plain
        ids, matrix = load_feature_csv(io.StringIO(plain), id_column=id_column)
        quoted_ids, quoted_matrix = load_feature_csv(io.StringIO(quoted), id_column=id_column)
        assert ids == quoted_ids
        assert matrix.tobytes() == quoted_matrix.tobytes()
        assert matrix.shape == (3, 2)

    def test_float_spellings(self):
        _, matrix = load_feature_csv(io.StringIO(" 1.5 ,1_0,nan\ninf,-0,-inf\n"))
        expected = np.array([[1.5, 10.0, math.nan], [math.inf, -0.0, -math.inf]])
        assert matrix.tobytes() == expected.tobytes()


class TestBuildInstance:
    def test_costs_follow_kept_rows(self):
        fs = FeatureSet(np.array([[0.0], [1.0], [2.0]]), np.array([0.0]))
        d = knn_weights(fs, 2)
        inst = build_instance(d, [5.0, 6.0, 7.0], 1.0, ValueInterval(0.0, 1.0))
        assert inst.weights == (0.5, 0.5)
        assert inst.unit_costs == (5.0, 6.0)

    def test_costs_length_checked(self):
        fs = FeatureSet(np.array([[0.0], [1.0], [2.0]]), np.array([0.0]))
        d = knn_weights(fs, 2)
        with pytest.raises(ValidationError, match="unit costs"):
            build_instance(d, [5.0, 6.0], 1.0, ValueInterval(0.0, 1.0))


class TestSpecBoundary:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12, 1.0, 2.0])
    def test_drop_tolerance_outside_unit_interval_rejected(self, tol):
        with pytest.raises(ValidationError, match=r"drop tolerance must lie in \[0, 1\)"):
            WeightSpec("knn", k=1, drop_tol=tol)

    @pytest.mark.parametrize("tol", [0.0, DROP_TOLERANCE, 0.5, 0.999])
    def test_drop_tolerance_inside_unit_interval_accepted(self, tol):
        assert WeightSpec("knn", k=1, drop_tol=tol).drop_tol == tol

    @pytest.mark.parametrize(
        "budget, message", [(0.0, "budget must be positive"), (-1.0, "negative budget")]
    )
    def test_build_instance_needs_positive_budget(self, budget, message):
        d = DerivedWeights((0.5, 0.5), (0, 1), (), "m")
        with pytest.raises(ValidationError, match=message):
            build_instance(d, [1.0, 2.0], budget, ValueInterval(0.0, 1.0))
