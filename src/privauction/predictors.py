"""Public weight derivation from feature data.

Each method reduces a textbook prediction for a new individual to a weighted
sum over the database entries; the resulting vector feeds the auction. Exact
zero weights (and, by default, weights below 1e-12 of the total magnitude)
are dropped with an index map back to the original rows, since zero-weight
entries never contribute to the predictor.
"""

import csv
import warnings
from dataclasses import dataclass
from itertools import chain
from operator import methodcaller
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateKernelMass,
    EmptyInstance,
    IllConditionedWarning,
    KOutOfRange,
    ParseError,
    SingularSystem,
    ValidationError,
)
from .instances import AuctionInstance, ValueInterval, _json_floats, _read_text

__all__ = [
    "FeatureSet",
    "GaussianKernel",
    "LinearKernel",
    "WeightSpec",
    "DerivedWeights",
    "knn_weights",
    "nadaraya_watson_weights",
    "ridge_weights",
    "kernel_regression_weights",
    "load_feature_csv",
    "build_instance",
    "DROP_TOLERANCE",
    "CONDITION_LIMIT",
]

DROP_TOLERANCE = 1e-12
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FeatureSet:
    """Public feature matrix (one row per individual) and the query profile."""

    matrix: np.ndarray
    query: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        query = np.asarray(self.query, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ValidationError("feature matrix must be 2-d with at least one row and column")
        if query.shape != (matrix.shape[1],):
            raise ValidationError(
                f"query length {query.shape} does not match feature dimension {matrix.shape[1]}"
            )
        if not np.all(np.isfinite(matrix)) or not np.all(np.isfinite(query)):
            raise ValidationError("features must be finite")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "query", query)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class GaussianKernel:
    """Squared-exponential similarity, exp(-||a - b||^2 / bandwidth^2)."""

    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise ValidationError("bandwidth must be positive")

    def against_query(self, features: FeatureSet) -> np.ndarray:
        diff = features.matrix - features.query
        return np.exp(-np.einsum("ij,ij->i", diff, diff) / self.bandwidth**2)

    def gram(self, features: FeatureSet) -> np.ndarray:
        sq = np.einsum("ij,ij->i", features.matrix, features.matrix)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (features.matrix @ features.matrix.T)
        return np.exp(-np.maximum(d2, 0.0) / self.bandwidth**2)


@dataclass(frozen=True)
class LinearKernel:
    """Plain inner-product similarity."""

    def against_query(self, features: FeatureSet) -> np.ndarray:
        return features.matrix @ features.query

    def gram(self, features: FeatureSet) -> np.ndarray:
        return features.matrix @ features.matrix.T


@dataclass(frozen=True)
class DerivedWeights:
    """Weight vector for surviving rows plus the index maps back to the input."""

    weights: tuple[float, ...]
    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    method: str

    @property
    def n_kept(self) -> int:
        return len(self.weights)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "weights": _json_floats(self.weights),
            "kept": list(self.kept),
            "dropped": list(self.dropped),
        }

    def csv_rows(self) -> list[tuple]:
        return [("index", "weight")] + [
            (orig, f"{w:.12g}") for orig, w in zip(self.kept, self.weights)
        ]


def _drop_negligible(
    raw: np.ndarray, method: str, drop_tol: float = DROP_TOLERANCE
) -> DerivedWeights:
    total = float(np.sum(np.abs(raw)))
    threshold = drop_tol * total
    mask = (np.abs(raw) > threshold) & (raw != 0.0)
    kept = np.flatnonzero(mask)
    return DerivedWeights(
        tuple(raw[kept].tolist()),
        tuple(kept.tolist()),
        tuple(np.flatnonzero(~mask).tolist()),
        method,
    )


def knn_weights(features: FeatureSet, k: int, drop_tol: float = DROP_TOLERANCE) -> DerivedWeights:
    """Equal weight 1/k on the k rows nearest the query (ties to smaller index)."""
    if not 1 <= k <= features.n:
        raise KOutOfRange(f"k must be in [1, {features.n}], got {k}")
    diff = features.matrix - features.query
    distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    order = np.argsort(distances, kind="stable")
    raw = np.zeros(features.n)
    raw[order[:k]] = 1.0 / k
    return _drop_negligible(raw, f"knn(k={k})", drop_tol)


def nadaraya_watson_weights(
    features: FeatureSet,
    kernel: GaussianKernel | LinearKernel = GaussianKernel(),
    drop_tol: float = DROP_TOLERANCE,
) -> DerivedWeights:
    """Kernel-normalized weights, positive and summing to one; a negative similarity raises."""
    similarity = kernel.against_query(features)
    negative = np.flatnonzero(similarity < 0)
    if negative.size:
        raise ValidationError(f"kernel similarity is negative at index {negative[0]}")
    mass = float(np.sum(similarity))
    if mass <= 0.0:
        if isinstance(kernel, LinearKernel):
            raise DegenerateKernelMass("kernel mass is zero at this query")
        raise DegenerateKernelMass("kernel mass underflowed to zero at this query")
    return _drop_negligible(similarity / mass, "nadaraya-watson", drop_tol)


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` once a Cholesky factorization shows ``matrix`` positive definite.

    The factorization does not reject non-finite entries itself, so they are
    checked first.
    """
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))):
        raise ValidationError("array must not contain infs or NaNs")
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"system is not positive definite: {exc}") from exc
    return np.linalg.solve(matrix, rhs)


def ridge_weights(
    features: FeatureSet, lam: float, drop_tol: float = DROP_TOLERANCE
) -> DerivedWeights:
    """Weights of the regularized least-squares prediction at the query.

    A Cholesky factorization decides that the regularized normal equations
    are positive definite, then `numpy.linalg.solve` solves them; the matrix
    is never inverted explicitly. Weights may be negative.
    """
    if not lam > 0:
        raise ValidationError("regularization strength must be positive")
    gram = features.matrix.T @ features.matrix + lam * np.eye(features.m)
    coeffs = _spd_solve(gram, features.query)
    raw = features.matrix @ coeffs
    return _drop_negligible(raw, f"ridge(lam={lam})", drop_tol)


def kernel_regression_weights(
    features: FeatureSet,
    kernel: GaussianKernel | LinearKernel,
    lam: float,
    drop_tol: float = DROP_TOLERANCE,
) -> DerivedWeights:
    """Weights of the regularized kernel prediction at the query.

    Warns (IllConditionedWarning) when the regularized kernel matrix's
    condition number exceeds 1e12. A Cholesky factorization decides that the
    system is positive definite, then `numpy.linalg.solve` solves it; a
    system that is not fails loudly (SingularSystem) rather than falling back
    to a pseudo-inverse.
    """
    if not lam > 0:
        raise ValidationError("regularization strength must be positive")
    gram = kernel.gram(features) + lam * np.eye(features.n)
    condition = float(np.linalg.cond(gram))
    if condition > CONDITION_LIMIT:
        warnings.warn(
            f"kernel system condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}",
            IllConditionedWarning,
            stacklevel=2,
        )
    raw = _spd_solve(gram, kernel.against_query(features))
    return _drop_negligible(raw, "kernel-regression", drop_tol)


@dataclass(frozen=True)
class WeightSpec:
    """Parsed method selection used by the command-line front end.

    Construction rejects every option error (a missing ``k`` or ``lam``, a
    ``k`` below 1, a ``lam`` that is not positive, an unknown method or
    kernel, a bandwidth that is not positive), so `derive` only dispatches.
    Only the options the method reads are checked; ``k``'s upper bound, the
    row count, waits for the features.
    """

    method: str  # "knn" | "nadaraya-watson" | "ridge" | "kernel-regression"
    k: int | None = None
    kernel: str = "gaussian"
    bandwidth: float = 1.0
    lam: float | None = None
    drop_tol: float = DROP_TOLERANCE

    def __post_init__(self) -> None:
        if not 0 <= self.drop_tol < 1:  # also rejects NaN: a tolerance of 1 drops every weight
            raise ValidationError("drop tolerance must lie in [0, 1)")
        if self.method == "knn":
            if self.k is None:
                raise ValidationError("knn requires k")
            if self.k < 1:
                raise KOutOfRange(f"k must be at least 1, got {self.k}")
        elif self.method == "ridge":
            if self.lam is None:
                raise ValidationError("ridge requires a regularization strength")
            self._check_lam()
        elif self.method == "kernel-regression":
            if self.lam is None:
                raise ValidationError("kernel regression requires a regularization strength")
            self._check_lam()
            self._kernel()
        elif self.method == "nadaraya-watson":
            self._kernel()
        else:
            raise ValidationError(f"unknown weight method {self.method!r}")

    def _check_lam(self) -> None:
        if not self.lam > 0:  # also rejects NaN
            raise ValidationError("regularization strength must be positive")

    def _kernel(self) -> GaussianKernel | LinearKernel:
        if self.kernel == "gaussian":
            return GaussianKernel(self.bandwidth)
        if self.kernel == "linear":
            return LinearKernel()
        raise ValidationError(f"unknown kernel {self.kernel!r}")

    def derive(self, features: FeatureSet) -> DerivedWeights:
        if self.method == "knn":
            return knn_weights(features, self.k, self.drop_tol)
        if self.method == "nadaraya-watson":
            return nadaraya_watson_weights(features, self._kernel(), self.drop_tol)
        if self.method == "ridge":
            return ridge_weights(features, self.lam, self.drop_tol)
        return kernel_regression_weights(features, self._kernel(), self.lam, self.drop_tol)


def _parse_float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value


def _split_matrix(text: str) -> np.ndarray | None:
    """The matrix of CSV text without quotes or ids, or None when the full pass must decide.

    Splitting a line on commas gives the row `csv.reader` gives for text
    without quotes. Each line is split only while its cells are converted,
    so no table of cells is held. Empty text, a header alone, ragged rows
    and a non-numeric cell give None.
    """
    lines = list(filter(None, text.splitlines()))
    if lines and all(_parse_float(cell) is None for cell in lines[0].split(",")):
        del lines[0]  # the header
    if not lines:
        return None
    commas = lines[0].count(",")
    if set(map(methodcaller("count", ","), lines)) != {commas}:
        return None
    cells = map(float, chain.from_iterable(map(methodcaller("split", ","), lines)))
    try:
        matrix = np.fromiter(cells, np.float64, len(lines) * (commas + 1))
    except ValueError:
        return None
    return matrix.reshape(len(lines), commas + 1)


def load_feature_csv(source, id_column: bool = False) -> tuple[list[str] | None, np.ndarray]:
    """Read a feature matrix from CSV.

    A first row whose cells all fail numeric parsing is treated as a header
    and skipped. When ``id_column`` is set, the first column holds row ids and
    the remaining columns the features.

    Text with no ``"``, read without ``id_column``, goes through
    `_split_matrix`, which splits each line on commas. Any other text, and
    text that pass leaves undecided, is read row by row through `csv.reader`,
    which names the first offending row or cell.
    """
    text = _read_text(source)
    if '"' not in text and not id_column:
        matrix = _split_matrix(text)
        if matrix is not None:
            return None, matrix
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        raise ParseError("feature CSV is empty")
    if all(_parse_float(cell) is None for cell in rows[0]):
        rows = rows[1:]
        if not rows:
            raise ParseError("feature CSV has a header but no data rows")
    ids: list[str] | None = None
    if id_column:
        ids = [row[0] for row in rows]
        rows = [row[1:] for row in rows]
    width = len(rows[0])
    if width < 1:
        raise ParseError("feature CSV has no feature columns")
    matrix = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"feature CSV row {i} has {len(row)} columns, expected {width}")
        for j, cell in enumerate(row):
            value = _parse_float(cell)
            if value is None:
                raise ParseError(f"feature CSV cell ({i}, {j}) is not numeric: {cell!r}")
            matrix[i, j] = value
    return ids, matrix


def build_instance(
    derived: DerivedWeights,
    unit_costs: Sequence[float],
    budget: float,
    interval: ValueInterval,
) -> AuctionInstance:
    """Assemble an auction instance from derived weights and per-row costs.

    Costs are given in original row order, one per feature row; the entries of
    dropped rows are discarded alongside their weights. The budget must be
    positive, as in an instance file.
    """
    n_original = len(derived.kept) + len(derived.dropped)
    if len(unit_costs) != n_original:
        raise ValidationError(
            f"{len(unit_costs)} unit costs for {n_original} feature rows "
            f"({derived.n_kept} surviving weights)"
        )
    if derived.n_kept == 0:
        raise EmptyInstance("every weight was dropped; no individuals remain")
    if budget == 0:  # a negative budget fails in AuctionInstance, as "negative budget"
        raise ValidationError("budget must be positive")
    costs = tuple(map(float, map(unit_costs.__getitem__, derived.kept)))
    return AuctionInstance(derived.weights, costs, budget, interval)
