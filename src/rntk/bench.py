"""Classification benchmark harness for precomputed-kernel SVMs.

Protocol per dataset: split into two halves, grid-search every kernel and
SVM configuration by training on one half and scoring on the other,
collect every configuration tied at the best validation accuracy, then
run 4-fold cross-testing where the tied configurations vote per test
sample. Reported accuracy is the mean over folds. Splits derive
deterministically from the dataset name unless an explicit sidecar file
provides them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from .kernels import (
    Arch,
    HyperParams,
    InputOrder,
    ShapeError,
    Variant,
    _as_int,
    _as_real,
    _family_key,
    _integer,
    gram_cross_family,
    gram_family,
)
# unused here, but the benchmark's traces (perfbench/workloads.py) patch them here
from .kernels import gram, gram_cross  # noqa: F401
from .svm import predict, train_multiclass

log = logging.getLogger("rntk.bench")

SELECTOR_CK = "ck"
SELECTOR_NTK = "ntk"


class DatasetFormatError(ValueError):
    """Raised when a dataset file does not parse; the message names the cell."""


@dataclass(frozen=True)
class Dataset:
    """One classification dataset: N scalar sequences of length T.

    labels are contiguous codes 0..K-1; label_values maps codes back to
    the integers found in the file (ascending).
    """

    features: np.ndarray
    labels: np.ndarray
    name: str
    label_values: tuple

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ShapeError("features must be N x T")
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError("labels must align with feature rows")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        codes = np.unique(self.labels)
        if not np.array_equal(codes, np.arange(len(self.label_values))):
            raise ValueError("labels must be contiguous codes covering label_values")

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def T(self) -> int:
        return self.features.shape[1]


# variant/ordering combinations each method feeds into the validation grid;
# flips of bidirectional kernels are identities, so BI entries appear once
METHOD_VARIANTS = {
    "rnn": ((Arch.RNN, InputOrder.DEFAULT),),
    "bi-rnn": ((Arch.BI_RNN, InputOrder.DEFAULT),),
    "rnn-avg": ((Arch.RNN_AVG, InputOrder.DEFAULT),),
    "bi-rnn-avg": ((Arch.BI_RNN_AVG, InputOrder.DEFAULT),),
    "rnn-p": (
        (Arch.RNN, InputOrder.DEFAULT),
        (Arch.RNN, InputOrder.FLIPPED),
        (Arch.RNN_AVG, InputOrder.DEFAULT),
        (Arch.RNN_AVG, InputOrder.FLIPPED),
    ),
}
METHODS = (*METHOD_VARIANTS, "rbf", "poly")


def _positive(v) -> bool:
    return v > 0


# HyperGrid's search sets: (field, conversion of each value to a Python
# value or None, test of the converted value, what the two ask)
_GRID_SETS = (
    ("sigma_u_set", _as_real, _positive, "finite and > 0"),
    ("sigma_b_set", _as_real, lambda v: v >= 0, "finite and >= 0"),
    ("L_set", _as_int, _positive, "positive integers"),
    ("C_set", _as_real, _positive, "finite and > 0"),
    ("rbf_gamma_scaled", _as_real, _positive, "finite and > 0"),
    ("poly_degrees", _as_int, _positive, "positive integers"),
    ("methods", lambda v: v, METHODS.__contains__, "among " + ", ".join(METHODS)),
)


@dataclass(frozen=True)
class HyperGrid:
    """Search space of the protocol; sigma_w stays fixed.

    sigma_v is never part of the grid: it is derived from the variant by
    sigma_v_for. rbf_gamma_scaled values are divided by T at evaluation
    time, and poly kernels use (x.x'/T + 1)^degree. Each search set is
    stored as a tuple of Python numbers, numpy scalars converted; a set is
    given as a tuple, list or 1-D array, never as a scalar or a string.
    """

    sigma_u_set: tuple = (0.25, 0.5)
    sigma_b_set: tuple = (0.001, 0.1)
    L_set: tuple = (1, 2)
    C_set: tuple = (0.01, 1.0, 100.0, 10000.0, 1000000.0)
    sigma_w: float = HyperParams.sigma_w
    rbf_gamma_scaled: tuple = (0.01, 0.1, 1.0, 10.0)
    poly_degrees: tuple = (2, 3)
    methods: tuple = METHODS

    def __post_init__(self):
        for name, convert, valid, what in _GRID_SETS:
            values = getattr(self, name)
            if not (isinstance(values, (tuple, list))
                    or (isinstance(values, np.ndarray) and values.ndim == 1)):
                raise ValueError(f"HyperGrid.{name} must be a tuple, list or 1-D array "
                                 f"of values, got {values!r}")
            if len(values) == 0:
                raise ValueError(f"HyperGrid.{name} must not be empty")
            converted = tuple(convert(v) for v in values)
            bad = [v for v, c in zip(values, converted) if c is None or not valid(c)]
            if bad:
                raise ValueError(f"HyperGrid.{name} values must be {what}, got {bad}")
            # a repeated value would make one configuration vote twice
            if len(set(converted)) < len(converted):
                raise ValueError(f"HyperGrid.{name} must hold each value once, got {values}")
            object.__setattr__(self, name, converted)
        sigma_w = _as_real(self.sigma_w)
        if sigma_w is None or sigma_w <= 0:
            raise ValueError(f"HyperGrid.sigma_w must be finite and > 0, got {self.sigma_w!r}")
        object.__setattr__(self, "sigma_w", sigma_w)


@dataclass(frozen=True)
class Splits:
    """Index sets driving the protocol: one validation half, four folds."""

    validation_half: np.ndarray
    folds: tuple
    n_points: int

    def __post_init__(self):
        N = _integer(self.n_points, "Splits.n_points")
        val = self.validation_half
        named = [("validation_half", val)] + [(f"folds[{k}]", f) for k, f in enumerate(self.folds)]
        for name, idx in named:
            if not (isinstance(idx, np.ndarray) and np.issubdtype(idx.dtype, np.integer)):
                raise ValueError(f"Splits.{name} must be an integer numpy index array, "
                                 f"got {getattr(idx, 'dtype', type(idx).__name__)}")
        if val.size == 0 or val.size >= N or len(np.unique(val)) != val.size:
            raise ValueError("validation half must be a proper nonempty index subset")
        if val.min() < 0 or val.max() >= N:
            raise ValueError("validation index out of range")
        if len(self.folds) != 4:
            raise ValueError("exactly 4 folds required")
        joined = np.concatenate(self.folds)
        if not np.array_equal(np.sort(joined), np.arange(N)):
            raise ValueError("folds must partition the dataset")
        sizes = [f.size for f in self.folds]
        if max(sizes) - min(sizes) > 1:
            raise ValueError("fold sizes may differ by at most 1")

    @property
    def training_half(self) -> np.ndarray:
        mask = np.ones(self.n_points, dtype=bool)
        mask[self.validation_half] = False
        return np.flatnonzero(mask)


def default_splits(name: str, n_points: int) -> Splits:
    """Deterministic splits seeded by the dataset name alone."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    perm = rng.permutation(n_points)
    val = np.sort(perm[: n_points // 2])
    folds = tuple(np.sort(f) for f in np.array_split(rng.permutation(n_points), 4))
    return Splits(validation_half=val, folds=folds, n_points=n_points)


def load_splits(path, n_points: int) -> Splits:
    """Read a sidecar split file: {"validation_half": [...], "folds": [[...] x 4]}.

    Raises ValueError naming the file, and the key when one is missing or
    holds anything but a list of integer indices.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None

    def indices(value, key):
        if not isinstance(value, list) or not all(type(i) is int for i in value):
            raise ValueError(f"{path}: {key} must be a list of integer indices")
        return np.asarray(value, dtype=np.int64)

    for key in ("validation_half", "folds"):
        if not isinstance(raw, dict) or key not in raw:
            raise ValueError(f"{path}: missing key {key!r}")
    if not isinstance(raw["folds"], list):
        raise ValueError(f"{path}: folds must be a list of index lists")
    val = indices(raw["validation_half"], "validation_half")
    folds = tuple(indices(f, f"folds[{k}]") for k, f in enumerate(raw["folds"]))
    try:
        return Splits(validation_half=val, folds=folds, n_points=n_points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_dataset(path) -> Dataset:
    """Parse a headerless CSV: feature columns then one integer label column."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    width = None
    rows = []
    labels = []
    for i, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise DatasetFormatError(
                    f"{path}: row {i} has no feature columns before the label")
        elif len(cells) != width:
            raise DatasetFormatError(
                f"{path}: row {i} has {len(cells)} columns, expected {width}")
        feats = []
        for j, cell in enumerate(cells[:-1], start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: row {i}, column {j}: not numeric: {cell!r}") from None
            if not math.isfinite(value):
                raise DatasetFormatError(
                    f"{path}: row {i}, column {j}: non-finite value {cell!r}")
            feats.append(value)
        try:
            labels.append(int(cells[-1]))
        except ValueError:
            raise DatasetFormatError(
                f"{path}: row {i}, label column: not an integer: {cells[-1]!r}") from None
        rows.append(feats)
    values = np.asarray(sorted(set(labels)))
    code_of = {int(v): k for k, v in enumerate(values)}
    codes = np.asarray([code_of[lab] for lab in labels], dtype=np.int64)
    return Dataset(features=np.asarray(rows, dtype=np.float64), labels=codes,
                   name=path.stem, label_values=tuple(int(v) for v in values))


def normalize(train_features, test_features):
    """Per-feature z-score by training statistics; constant features go to 0."""
    tr = np.asarray(train_features, dtype=np.float64)
    te = np.asarray(test_features, dtype=np.float64)
    if tr.ndim != 2 or te.ndim != 2 or tr.shape[1] != te.shape[1]:
        raise ShapeError("train and test features must be 2-D with equal T")
    mu = tr.mean(axis=0)
    sd = tr.std(axis=0)
    safe = np.where(sd > 0, sd, 1.0)
    out_tr = np.where(sd > 0, (tr - mu) / safe, 0.0)
    out_te = np.where(sd > 0, (te - mu) / safe, 0.0)
    return out_tr, out_te


def sigma_v_for(variant: Variant, T: int) -> float:
    """Output scale that puts every architecture's kernel on a common footing:
    one over the root of the number of output heads the readout sums."""
    T = _integer(T, "T")
    if T < 1:
        raise ValueError("T must be at least 1")
    heads = (T if variant.pooled else 1) * (2 if variant.bidirectional else 1)
    return 1.0 / math.sqrt(heads)


@dataclass(frozen=True)
class RNNKernelSpec:
    """A (params, variant) member of the kernel engine; params.sigma_v is sigma_v_for's."""

    params: HyperParams
    variant: Variant

    def label(self, selector, C) -> str:
        p = self.params
        return (f"{self.variant.label}|su={p.sigma_u}|sb={p.sigma_b}"
                f"|L={p.depth_L}|{selector}|C={C:g}")


@dataclass(frozen=True)
class RBFSpec:
    gamma: float

    def label(self, selector, C) -> str:
        return f"rbf|gamma={self.gamma:g}|C={C:g}"

    def kernel(self, A, B):
        """exp(-gamma |a - b|^2) of every row pair, distances clipped at 0."""
        aa = (A * A).sum(axis=1)[:, None]
        bb = (B * B).sum(axis=1)[None, :]
        return np.exp(-self.gamma * np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0))


@dataclass(frozen=True)
class PolySpec:
    degree: int

    def label(self, selector, C) -> str:
        return f"poly|degree={self.degree}|C={C:g}"

    def kernel(self, A, B):
        """(a.b / T + 1)^degree of every row pair."""
        return (A @ B.T / A.shape[1] + 1.0) ** self.degree


def _family_matrices(specs, train_X, test_X, threads):
    """{spec: {selector: (train Gram, cross Gram)}} of one kernel family.

    A baseline family is one spec with the one selector None. An RNN
    family's matrices come from one train-by-train and one test-by-train
    call, bit for bit what `gram`/`gram_cross` return for each spec alone.
    The train Grams are read-only, so that each C path of
    `train_multiclass` checks its Gram once.
    """
    if not isinstance(specs[0], RNNKernelSpec):
        (spec,) = specs
        out = {spec: {None: (spec.kernel(train_X, train_X), spec.kernel(test_X, train_X))}}
    else:
        members = [(spec.params, spec.variant) for spec in specs]
        fulls = gram_family(train_X, members, threads=threads)
        crosses = gram_cross_family(train_X, test_X, members, threads=threads)
        out = {spec: {SELECTOR_CK: (full.ck, cross.ck), SELECTOR_NTK: (full.ntk, cross.ntk)}
               for spec, full, cross in zip(specs, fulls, crosses)}
    for per_spec in out.values():
        for K, _ in per_spec.values():
            K.flags.writeable = False
    return out


def _method_configs(method: str, grid: HyperGrid, T: int):
    """(spec, selector, C) triples a method contributes to the search."""
    selectors = (None,)
    if method in METHOD_VARIANTS:
        specs = []
        for arch, order in METHOD_VARIANTS[method]:
            variant = Variant(arch, order)
            sigma_v = sigma_v_for(variant, T)
            for su, sb, L in product(grid.sigma_u_set, grid.sigma_b_set, grid.L_set):
                params = HyperParams(sigma_w=grid.sigma_w, sigma_u=su, sigma_b=sb,
                                     sigma_v=sigma_v, depth_L=L)
                specs.append(RNNKernelSpec(params, variant))
        selectors = (SELECTOR_CK, SELECTOR_NTK)
    elif method == "rbf":
        specs = [RBFSpec(gamma=g / T) for g in grid.rbf_gamma_scaled]
    elif method == "poly":
        specs = [PolySpec(degree=d) for d in grid.poly_degrees]
    else:
        raise ValueError(f"unknown method {method!r}")
    return [(spec, sel, C) for spec in specs for sel, C in product(selectors, grid.C_set)]


@dataclass
class ProtocolResult:
    """Everything run_protocol learned about one dataset."""

    dataset: str
    accuracies: dict
    validation_best: dict
    best_configs: dict
    fold_accuracies: dict
    gram_computations: int


def _predictions(configs, train_X, test_X, train_y, label_set, threads):
    """Train every distinct configuration on one split and predict its test rows.

    Returns ({config: predicted labels}, distinct kernel specs). Distinct
    configs run one kernel family at a time (RNN specs sharing sigma_w,
    sigma_u and sigma_b; each baseline spec alone), families in order of
    first appearance and configs in order within each. A family's kernels
    come from one computation, serve both selectors and every C, and are
    dropped before the next family's are computed. Each fit is seeded with
    the last model of its (spec, selector): along the ascending default
    C_set, the solution at the previous C. Those models go with their
    family's kernels.
    """
    families = {}
    for cfg in dict.fromkeys(configs):
        spec = cfg[0]
        key = _family_key(spec.params) if isinstance(spec, RNNKernelSpec) else spec
        families.setdefault(key, []).append(cfg)
    preds, computed = {}, 0
    for group in families.values():
        specs = list(dict.fromkeys(spec for spec, _, _ in group))
        kernels = _family_matrices(specs, train_X, test_X, threads)
        computed += len(kernels)
        # a spec belongs to one family, so its C path ends with the family
        last_models = {}
        for cfg in group:
            spec, selector, C = cfg
            K, cross = kernels[spec][selector]
            model = train_multiclass(K, train_y, C=C, label_set=label_set,
                                     warm_start=last_models.get((spec, selector)))
            last_models[(spec, selector)] = model
            preds[cfg] = predict(model, cross)
        # free them now: rebinding would keep them alive through the next computation
        del kernels, K, cross, last_models, model
    return preds, computed


def _vote(predictions, n_classes):
    """Per-sample majority over configurations; ties go to the smallest code."""
    votes = np.zeros((predictions[0].size, n_classes), dtype=np.int64)
    for pred in predictions:
        votes[np.arange(pred.size), pred] += 1
    return np.argmax(votes, axis=1)


def run_protocol(dataset: Dataset, grid: HyperGrid = HyperGrid(),
                 splits: Optional[Splits] = None, threads=None) -> ProtocolResult:
    """Run the full search-then-vote protocol on one dataset.

    Phase 1 trains every configuration on the training half and scores it
    on the validation half; phase 2 retrains each method's full set of
    validation-tied configurations on each 3-fold union and lets them
    vote on the held-out fold. Returns per-method mean fold accuracy.
    """
    N = dataset.n_points
    if N < 8:
        raise ValueError(f"dataset {dataset.name}: need at least 8 points, got {N}")
    if splits is None:
        splits = default_splits(dataset.name, N)
    if splits.n_points != N:
        raise ValueError("splits were built for a different dataset size")
    label_set = np.arange(len(dataset.label_values))

    val_idx = splits.validation_half
    tr_idx = splits.training_half
    unseen = set(dataset.labels[val_idx]) - set(dataset.labels[tr_idx])
    if unseen:
        log.info("%s: classes %s absent from the training half; their "
                 "validation rows always score as errors", dataset.name,
                 sorted(unseen))
    tr_X, val_X = normalize(dataset.features[tr_idx], dataset.features[val_idx])
    tr_y, val_y = dataset.labels[tr_idx], dataset.labels[val_idx]

    method_configs = {m: _method_configs(m, grid, dataset.T) for m in grid.methods}
    preds, gram_computations = _predictions(
        [cfg for m in grid.methods for cfg in method_configs[m]],
        tr_X, val_X, tr_y, label_set, threads)
    validation_best = {}
    best_configs = {}
    for method, configs in method_configs.items():
        scores = [float(np.mean(preds[cfg] == val_y)) for cfg in configs]
        best = max(scores)
        validation_best[method] = best
        best_configs[method] = [cfg for cfg, s in zip(configs, scores) if s == best]

    fold_accuracies = {m: [] for m in grid.methods}
    for fold in splits.folds:
        mask = np.ones(N, dtype=bool)
        mask[fold] = False
        fit_idx = np.flatnonzero(mask)
        fit_X, te_X = normalize(dataset.features[fit_idx], dataset.features[fold])
        fit_y, te_y = dataset.labels[fit_idx], dataset.labels[fold]
        preds, computed = _predictions(
            [cfg for m in grid.methods for cfg in best_configs[m]],
            fit_X, te_X, fit_y, label_set, threads)
        gram_computations += computed
        for method in grid.methods:
            voted = _vote([preds[cfg] for cfg in best_configs[method]],
                          len(dataset.label_values))
            fold_accuracies[method].append(float(np.mean(voted == te_y)))

    accuracies = {m: float(np.mean(fold_accuracies[m])) for m in grid.methods}
    labels_of = {m: [spec.label(sel, C) for spec, sel, C in best_configs[m]]
                 for m in grid.methods}
    return ProtocolResult(dataset=dataset.name, accuracies=accuracies,
                          validation_best=validation_best,
                          best_configs=labels_of,
                          fold_accuracies=fold_accuracies,
                          gram_computations=gram_computations)


# BenchReport's per-method aggregate columns, in report and CSV order
_AGGREGATES = ("acc_mean", "acc_std", "p95", "pma", "friedman_rank")


@dataclass(frozen=True)
class BenchReport:
    """Accuracy table plus the four aggregate metrics, column per method."""

    dataset_names: tuple
    method_names: tuple
    accuracies: np.ndarray
    acc_mean: np.ndarray
    acc_std: np.ndarray
    p95: np.ndarray
    pma: np.ndarray
    friedman_rank: np.ndarray
    ranks: np.ndarray
    pma_definition: str

    def __post_init__(self):
        if np.any(self.p95 < 0) or np.any(self.p95 > 1):
            raise ValueError("P95 must lie in [0, 1]")
        if np.any(self.pma < 0) or np.any(self.pma > 1):
            raise ValueError("PMA must lie in [0, 1]")
        M = len(self.method_names)
        expected = M * (M + 1) / 2
        if not np.allclose(self.ranks.sum(axis=1), expected):
            raise ValueError("per-dataset ranks must sum to M(M+1)/2")


def compute_metrics(acc_table, method_names=None, dataset_names=None,
                    strict_pma: bool = False) -> BenchReport:
    """Aggregate a datasets-by-methods accuracy table.

    P95 counts datasets where a method reaches at least 95% of the row
    maximum (boundary inclusive). PMA defaults to the mean ratio to the
    row maximum; strict_pma switches it to the fraction of datasets where
    the method attains the maximum exactly. Friedman ranks average ties.
    """
    table = np.asarray(acc_table, dtype=np.float64)
    if table.ndim != 2 or table.size == 0:
        raise ValueError("accuracy table must be a nonempty 2-D array")
    bad = np.argwhere(~((table >= 0.0) & (table <= 1.0)))
    if bad.size:
        cell = tuple(bad[0].tolist())
        raise ValueError(f"accuracy table values must be finite and in [0, 1], "
                         f"got {table[cell]} at {cell}")
    D, M = table.shape
    if method_names is None:
        method_names = tuple(f"method-{i}" for i in range(M))
    if dataset_names is None:
        dataset_names = tuple(f"dataset-{i}" for i in range(D))
    if len(method_names) != M or len(dataset_names) != D:
        raise ValueError("names must match the table shape")

    row_max = table.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(row_max > 0, table / np.where(row_max > 0, row_max, 1.0), 1.0)
    p95 = (table >= 0.95 * row_max).mean(axis=0)
    if strict_pma:
        pma = (table == row_max).mean(axis=0)
    else:
        pma = ratio.mean(axis=0)
    # rank 1 is a row's best method; tied methods share their average rank
    above = (table[:, None, :] > table[:, :, None]).sum(axis=2)
    tied = (table[:, None, :] == table[:, :, None]).sum(axis=2)
    ranks = above + 0.5 * (tied + 1)
    acc_std = table.std(axis=0, ddof=1) if D > 1 else np.zeros(M)
    return BenchReport(
        dataset_names=tuple(dataset_names), method_names=tuple(method_names),
        accuracies=table, acc_mean=table.mean(axis=0), acc_std=acc_std,
        p95=p95, pma=pma, friedman_rank=ranks.mean(axis=0), ranks=ranks,
        pma_definition="strict-count" if strict_pma else "ratio-mean")


def report_to_json(report: BenchReport, results=None) -> str:
    """Full report as a JSON document, including per-dataset tables."""
    doc = {
        "datasets": list(report.dataset_names),
        "methods": list(report.method_names),
        "accuracy_table": report.accuracies.tolist(),
        "aggregates": {
            name: {agg: float(getattr(report, agg)[j]) for agg in _AGGREGATES}
            for j, name in enumerate(report.method_names)
        },
        "pma_definition": report.pma_definition,
    }
    if results is not None:
        doc["details"] = {
            r.dataset: {
                "validation_best": r.validation_best,
                "best_configs": r.best_configs,
                "fold_accuracies": r.fold_accuracies,
                "gram_computations": r.gram_computations,
            }
            for r in results
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def aggregates_to_csv(report: BenchReport) -> str:
    """Aggregate metrics as CSV text, one row per method."""
    lines = [",".join(("method", *_AGGREGATES))]
    for j, name in enumerate(report.method_names):
        lines.append(",".join(
            [name] + [f"{getattr(report, agg)[j]:.6f}" for agg in _AGGREGATES]))
    return "\n".join(lines) + "\n"


def run_suite(datasets, grid: HyperGrid = HyperGrid(), splits_map=None,
              threads=None, strict_pma: bool = False):
    """Run the protocol over several datasets and aggregate the results.

    splits_map optionally supplies Splits per dataset name. Returns
    (BenchReport, [ProtocolResult]).
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    results = []
    for ds in datasets:
        splits = None if splits_map is None else splits_map.get(ds.name)
        results.append(run_protocol(ds, grid, splits=splits, threads=threads))
    methods = grid.methods
    table = np.array([[r.accuracies[m] for m in methods] for r in results])
    report = compute_metrics(table, methods, tuple(r.dataset for r in results),
                             strict_pma=strict_pma)
    return report, results
