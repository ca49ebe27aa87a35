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
from itertools import chain, islice
from operator import methodcaller
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateKernelMass,
    EmptyInstance,
    IllConditionedWarning,
    InstanceTooLarge,
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
KERNEL_LIMIT = 8000  # most rows of a Gaussian kernel regression: O(n^3) time, two n x n arrays


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
        gram = features.matrix @ features.matrix.T  # in place from here: two n x n arrays at most
        gram *= 2.0
        np.subtract(np.add.outer(sq, sq), gram, out=gram)  # squared distances
        np.negative(np.maximum(gram, 0.0, out=gram), out=gram)
        gram /= self.bandwidth**2
        return np.exp(gram, out=gram)


@dataclass(frozen=True)
class LinearKernel:
    """Plain inner-product similarity; kernel regression with it is ridge."""

    def against_query(self, features: FeatureSet) -> np.ndarray:
        return features.matrix @ features.query


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


def _check_lam(lam) -> None:
    if not lam > 0:  # also rejects NaN
        raise ValidationError("regularization strength must be positive")


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``matrix @ x = rhs`` by `numpy.linalg.solve`; return x and the ascending eigenvalues.

    A non-finite entry raises ValidationError before LAPACK (which may print errors) reads it.
    The eigenvalues of `numpy.linalg.eigvalsh` decide positive definiteness, else SingularSystem.
    """
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))):
        raise ValidationError("array must not contain infs or NaNs")
    spectrum = np.linalg.eigvalsh(matrix)
    if not spectrum[0] > 0:
        raise SingularSystem(f"system is not positive definite: eigenvalue {spectrum[0]:.3e}")
    return np.linalg.solve(matrix, rhs), spectrum


def _ridge_solve(features: FeatureSet, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw ridge weights ``X (XᵀX + λI)⁻¹ q`` and the eigenvalues of the system solved.

    At n < m that is the smaller ``(XXᵀ + λI) w = X q`` (push-through identity) instead.
    """
    rows = features.matrix
    if features.n < features.m:
        return _spd_solve(rows @ rows.T + lam * np.eye(features.n), rows @ features.query)
    coeffs, spectrum = _spd_solve(rows.T @ rows + lam * np.eye(features.m), features.query)
    return rows @ coeffs, spectrum


def ridge_weights(
    features: FeatureSet, lam: float, drop_tol: float = DROP_TOLERANCE
) -> DerivedWeights:
    """Ridge weights at the query, by `_ridge_solve`; they may be negative."""
    _check_lam(lam)
    return _drop_negligible(_ridge_solve(features, lam)[0], f"ridge(lam={lam})", drop_tol)


def kernel_regression_weights(
    features: FeatureSet,
    kernel: GaussianKernel | LinearKernel,
    lam: float,
    drop_tol: float = DROP_TOLERANCE,
) -> DerivedWeights:
    """Weights of the regularized kernel prediction at the query, by `_spd_solve`.

    The linear kernel's are ridge's (`_ridge_solve`). Warns (IllConditionedWarning) when the
    n x n system's condition number exceeds 1e12; at n > m its eigenvalues are ridge's and lam.
    A Gaussian kernel over more than `KERNEL_LIMIT` rows raises InstanceTooLarge before
    its Gram matrix is built.
    """
    _check_lam(lam)
    if isinstance(kernel, LinearKernel):
        raw, spectrum = _ridge_solve(features, lam)
        condition = spectrum[-1] / (lam if features.n > features.m else spectrum[0])
    else:
        if features.n > KERNEL_LIMIT:
            raise InstanceTooLarge(f"Gaussian kernel regression limited to n <= {KERNEL_LIMIT}")
        gram = kernel.gram(features)
        gram.flat[:: features.n + 1] += lam  # the diagonal, in place
        raw, spectrum = _spd_solve(gram, kernel.against_query(features))
        condition = spectrum[-1] / spectrum[0]
    if condition > CONDITION_LIMIT:
        message = f"kernel system condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}"
        warnings.warn(message, IllConditionedWarning, stacklevel=2)
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
            _check_lam(self.lam)
        elif self.method == "kernel-regression":
            if self.lam is None:
                raise ValidationError("kernel regression requires a regularization strength")
            _check_lam(self.lam)
            self._kernel()
        elif self.method == "nadaraya-watson":
            self._kernel()
        else:
            raise ValidationError(f"unknown weight method {self.method!r}")

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


def _rows(text: str):
    """The non-blank rows of CSV text; text with no ``"`` splits on commas as in `csv.reader`."""
    lines = text.splitlines()
    if '"' in text:
        return filter(None, csv.reader(lines))
    return map(methodcaller("split", ","), filter(None, lines))


def _feature_cells(rows, width: int, ids: list[str] | None):
    """Each row's feature cells, its id moved to ``ids`` if a list; ValueError at a ragged row."""
    full = width + (ids is not None)
    for row in rows:
        if len(row) != full:
            raise ValueError
        if ids is not None:
            ids.append(row.pop(0))
        yield row


def load_feature_csv(source, id_column: bool = False) -> tuple[list[str] | None, np.ndarray]:
    """Read a feature matrix from CSV.

    A first row whose cells all fail numeric parsing is treated as a header
    and skipped. When ``id_column`` is set, the first column holds row ids and
    the remaining columns the features.

    The rows stream into one conversion of every cell. A ragged row or a
    non-numeric cell stops it, and only then does a second pass over the
    rows name the first offending row or cell.
    """
    text = _read_text(source)
    rows = _rows(text)
    first = next(rows, None)
    if first is None:
        raise ParseError("feature CSV is empty")
    header = all(_parse_float(cell) is None for cell in first)
    if header:
        first = next(rows, None)
        if first is None:
            raise ParseError("feature CSV has a header but no data rows")
    width = len(first) - id_column
    if width < 1:
        raise ParseError("feature CSV has no feature columns")
    ids = [] if id_column else None
    cells = chain.from_iterable(_feature_cells(chain((first,), rows), width, ids))
    try:
        return ids, np.fromiter(map(float, cells), np.float64).reshape(-1, width)
    except ValueError:
        pass  # a ragged row or a non-numeric cell, which the second pass names
    for i, row in enumerate(islice(_rows(text), header, None)):
        cells = row[id_column:]
        if len(cells) != width:
            raise ParseError(f"feature CSV row {i} has {len(cells)} columns, expected {width}")
        for j, cell in enumerate(cells):
            if _parse_float(cell) is None:
                raise ParseError(f"feature CSV cell ({i}, {j}) is not numeric: {cell!r}")


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
