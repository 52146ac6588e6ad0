import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from rntk import Arch, HyperParams, InputOrder, ShapeError, Variant, bench
from rntk.bench import (
    BenchReport,
    Dataset,
    DatasetFormatError,
    HyperGrid,
    PolySpec,
    RBFSpec,
    RNNKernelSpec,
    Splits,
    _method_configs,
    _predictions,
    _vote,
    aggregates_to_csv,
    compute_metrics,
    default_splits,
    load_dataset,
    load_splits,
    normalize,
    report_to_json,
    run_protocol,
    run_suite,
    sigma_v_for,
)

SMALL_GRID = HyperGrid(sigma_u_set=(0.5,), sigma_b_set=(0.1,), L_set=(1,),
                       C_set=(1.0, 100.0), rbf_gamma_scaled=(0.1, 1.0),
                       poly_degrees=(2,), methods=("rnn", "rbf"))


def write_csv(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def make_dataset(seed, n=16, T=4, classes=2, name="synth"):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, T))
    labels = np.arange(n) % classes
    X += labels[:, None] * 1.5
    return Dataset(features=X, labels=np.asarray(labels, dtype=np.int64),
                   name=name, label_values=tuple(range(classes)))


def test_load_dataset_basic(tmp_path):
    p = write_csv(tmp_path, "toy.csv", "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
    ds = load_dataset(p)
    assert ds.n_points == 3 and ds.T == 2
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert ds.name == "toy" and ds.label_values == (0, 1)
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_load_dataset_recodes_labels(tmp_path):
    p = write_csv(tmp_path, "gap.csv", "1.0,7\n2.0,3\n3.0,7\n")
    ds = load_dataset(p)
    assert ds.label_values == (3, 7)
    assert np.array_equal(ds.labels, [1, 0, 1])


def test_load_dataset_errors(tmp_path):
    with pytest.raises(DatasetFormatError, match="empty"):
        load_dataset(write_csv(tmp_path, "empty.csv", ""))
    with pytest.raises(DatasetFormatError, match="row 2"):
        load_dataset(write_csv(tmp_path, "ragged.csv", "1.0,2.0,0\n1.0,1\n"))
    with pytest.raises(DatasetFormatError, match="row 2, column 1"):
        load_dataset(write_csv(tmp_path, "nan.csv", "1.0,0\nNaN,1\n"))
    with pytest.raises(DatasetFormatError, match="column 2"):
        load_dataset(write_csv(tmp_path, "text.csv", "1.0,abc,0\n"))
    with pytest.raises(DatasetFormatError, match="label"):
        load_dataset(write_csv(tmp_path, "flab.csv", "1.0,2.0,0.5\n"))
    with pytest.raises(DatasetFormatError, match="row 1"):
        load_dataset(write_csv(tmp_path, "thin.csv", "7\n8\n"))


def test_load_splits_rejects_bad_sidecars(tmp_path):
    s = default_splits("demo", 16)
    val = s.validation_half.tolist()
    folds = [f.tolist() for f in s.folds]
    cases = [
        ({"validation_half": val}, "'folds'"),
        ({"folds": folds}, "'validation_half'"),
        ([val, folds], "'validation_half'"),
        ({"validation_half": [i + 0.5 for i in val], "folds": folds}, "validation_half"),
        ({"validation_half": val, "folds": [folds[0], [0.9, 1.5]] + folds[2:]}, "folds[1]"),
        ({"validation_half": val, "folds": 4}, "folds"),
        ({"validation_half": val, "folds": folds[:3]}, "4 folds"),
    ]
    for k, (doc, key) in enumerate(cases):
        p = tmp_path / f"bad{k}.splits.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_splits(p, 16)
        assert str(p) in str(exc.value) and key in str(exc.value), (k, str(exc.value))
    p = tmp_path / "text.splits.json"
    p.write_text("validation_half: 0 1 2", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON") as exc:
        load_splits(p, 16)
    assert str(p) in str(exc.value)


def test_normalize_contract():
    train = np.array([[5.0, -1.0, 2.0], [5.0, 1.0, 4.0]])
    test = np.array([[5.0, 3.0, 100.0]])
    tr, te = normalize(train, test)
    assert np.all(tr[:, 0] == 0.0) and np.all(te[:, 0] == 0.0)
    assert np.allclose(tr[:, 1], [-1.0, 1.0])
    assert np.allclose(te[0, 1], 3.0)  # scaled by train stats, no clipping
    assert abs(tr[:, 2].mean()) < 1e-15 and abs(tr[:, 2].std() - 1.0) < 1e-15
    with pytest.raises(ShapeError):
        normalize(train, np.zeros((1, 2)))


def test_sigma_v_values():
    assert sigma_v_for(Variant(Arch.RNN), 10) == 1.0
    assert sigma_v_for(Variant(Arch.RNN_AVG), 4) == 0.5
    assert sigma_v_for(Variant(Arch.BI_RNN_AVG), 2) == 0.5
    assert abs(sigma_v_for(Variant(Arch.BI_RNN), 3) - 1.0 / math.sqrt(2)) < 1e-15
    with pytest.raises(ValueError):
        sigma_v_for(Variant(Arch.RNN), 0)
    # the per-architecture formulas, bit for bit
    for T in (1, 3, 7, 16):
        assert sigma_v_for(Variant(Arch.RNN), T) == 1.0
        assert sigma_v_for(Variant(Arch.BI_RNN), T) == 1.0 / math.sqrt(2.0)
        assert sigma_v_for(Variant(Arch.RNN_AVG), T) == 1.0 / math.sqrt(T)
        assert sigma_v_for(Variant(Arch.BI_RNN_AVG), np.int64(T)) == 1.0 / math.sqrt(2.0 * T)
    # a fraction gave 0.632 and True gave 1.0
    for bad in (2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="T must be an integer"):
            sigma_v_for(Variant(Arch.RNN_AVG), bad)


def test_default_splits_deterministic():
    a = default_splits("wine", 21)
    b = default_splits("wine", 21)
    c = default_splits("iris", 21)
    assert np.array_equal(a.validation_half, b.validation_half)
    assert all(np.array_equal(x, y) for x, y in zip(a.folds, b.folds))
    assert not np.array_equal(a.validation_half, c.validation_half)
    assert a.validation_half.size == 10
    sizes = [f.size for f in a.folds]
    assert max(sizes) - min(sizes) <= 1
    assert np.array_equal(np.sort(np.concatenate(a.folds)), np.arange(21))
    assert np.array_equal(np.sort(np.concatenate([a.validation_half,
                                                  a.training_half])), np.arange(21))


def test_splits_validation():
    f = tuple(np.array_split(np.arange(12), 4))
    with pytest.raises(ValueError):
        Splits(validation_half=np.array([0, 0, 1]), folds=f, n_points=12)
    with pytest.raises(ValueError):
        Splits(validation_half=np.array([0, 99]), folds=f, n_points=12)
    bad_folds = (np.arange(6), np.arange(6, 12), np.array([], dtype=int),
                 np.array([], dtype=int))
    with pytest.raises(ValueError):
        Splits(validation_half=np.arange(6), folds=bad_folds, n_points=12)
    overlapping = (np.arange(3), np.arange(3), np.arange(3, 8), np.arange(8, 12))
    with pytest.raises(ValueError):
        Splits(validation_half=np.arange(6), folds=overlapping, n_points=12)


def test_load_splits_round_trip(tmp_path):
    s = default_splits("demo", 16)
    doc = {"validation_half": s.validation_half.tolist(),
           "folds": [f.tolist() for f in s.folds]}
    p = tmp_path / "demo.splits.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_splits(p, 16)
    assert np.array_equal(loaded.validation_half, s.validation_half)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.folds, s.folds))


def test_metrics_rank_example():
    table = np.array([[0.9, 0.8], [0.7, 0.7]])
    rep = compute_metrics(table, ("A", "B"))
    assert np.allclose(rep.friedman_rank, [1.25, 1.75])
    assert np.allclose(rep.p95, [1.0, 0.5])
    assert np.allclose(rep.pma, [1.0, (0.8 / 0.9 + 1.0) / 2.0])
    assert np.allclose(rep.acc_mean, [0.8, 0.75])
    strict = compute_metrics(table, ("A", "B"), strict_pma=True)
    assert np.allclose(strict.pma, [1.0, 0.5])
    assert strict.pma_definition == "strict-count"


def test_metrics_single_method():
    rep = compute_metrics(np.array([[0.6], [0.9]]))
    assert rep.p95[0] == 1.0 and rep.pma[0] == 1.0 and rep.friedman_rank[0] == 1.0


def test_metrics_boundary_inclusive():
    table = np.array([[1.0, 0.95], [0.8, 0.76]])
    rep = compute_metrics(table)
    assert rep.p95[1] == 1.0


def test_metrics_errors():
    with pytest.raises(ValueError):
        compute_metrics(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        compute_metrics(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        compute_metrics(np.ones((2, 2)), ("only-one",))
    for cell in (float("nan"), float("inf"), 1.5, -0.1):
        with pytest.raises(ValueError, match=r"finite and in \[0, 1\].* at \(1, 0\)"):
            compute_metrics(np.array([[0.5, 0.6], [cell, 0.7]]))


def test_metrics_ranks_average_ties():
    table = np.array([[0.9, 0.8, 0.9, 0.7],
                      [0.5, 0.5, 0.5, 0.5],
                      [0.6, 0.7, 0.8, 0.6]])
    rep = compute_metrics(table)
    want = np.array([[1.5, 3.0, 1.5, 4.0],
                     [2.5, 2.5, 2.5, 2.5],
                     [3.5, 2.0, 1.0, 3.5]])
    assert np.array_equal(rep.ranks, want)
    assert np.array_equal(rep.friedman_rank, want.mean(axis=0))


def test_library_imports_numpy_only():
    # scipy is a test-only dependency: no library module may import it
    code = "import sys, rntk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    package_root = str(Path(bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]", out.stdout


def test_rank_sum_invariant_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(20):
        D, M = rng.integers(1, 6), rng.integers(1, 7)
        table = rng.choice([0.5, 0.6, 0.7, 0.8], size=(D, M))
        rep = compute_metrics(table)
        assert np.allclose(rep.ranks.sum(axis=1), M * (M + 1) / 2)


def test_vote_rules():
    assert np.array_equal(_vote([np.array([2, 0, 1])], 3), [2, 0, 1])
    same = np.array([1, 1])
    assert np.array_equal(_vote([same, same.copy()], 2), same)
    # a 1-1 split between classes 2 and 0 goes to the smaller code
    a, b = np.array([2, 1]), np.array([0, 1])
    assert np.array_equal(_vote([a, b], 3), [0, 1])


def test_grid_rejects_empty_search_sets():
    for name in ("sigma_u_set", "sigma_b_set", "L_set", "C_set", "rbf_gamma_scaled",
                 "poly_degrees", "methods"):
        with pytest.raises(ValueError, match=f"HyperGrid.{name} must not be empty"):
            HyperGrid(**{name: ()})


def test_grid_rejects_bad_values():
    bad = {"sigma_u_set": [(0.0,), (-0.5,), (float("inf"),), ("0.5",)],
           "sigma_b_set": [(-0.1,), (float("nan"),)],
           "L_set": [(0,), (1.5,), (2.0,), (True,)],
           "C_set": [(0.0,), (-1.0,), (float("inf"),), (float("nan"),), (True,)],
           "rbf_gamma_scaled": [(-1.0,), (0.0,), (float("nan"),)],
           "poly_degrees": [(1.5,), (0,), (-2,), (False,)],
           "methods": [("rbf", "bogus"), ("rbf", "rbf")],
           "sigma_w": [0.0, -1.0, float("nan"), float("inf"), True]}
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=f"HyperGrid.{name} "):
                HyperGrid(**{name: value})
    HyperGrid(sigma_b_set=(0.0, 0.1), C_set=(1, 2.5), L_set=(3,))


def test_grid_takes_numpy_values_as_python_numbers():
    grid = HyperGrid(L_set=tuple(np.arange(1, 3)), C_set=tuple(np.array([0.5, 2.0])),
                     sigma_u_set=(np.float32(0.5),), sigma_w=np.float64(1.5))
    assert grid.L_set == (1, 2) and all(type(v) is int for v in grid.L_set)
    assert grid.C_set == (0.5, 2.0) and all(type(v) is float for v in grid.C_set)
    assert grid.sigma_u_set == (0.5,) and type(grid.sigma_u_set[0]) is float
    assert type(grid.sigma_w) is float
    assert grid == HyperGrid(L_set=(1, 2), C_set=(0.5, 2.0), sigma_u_set=(0.5,), sigma_w=1.5)


def test_method_configs_counts():
    grid = HyperGrid()
    assert len(_method_configs("rnn", grid, 5)) == 80
    assert len(_method_configs("bi-rnn-avg", grid, 5)) == 80
    assert len(_method_configs("rnn-p", grid, 5)) == 320
    assert len(_method_configs("rbf", grid, 5)) == 20
    assert len(_method_configs("poly", grid, 5)) == 10
    with pytest.raises(ValueError):
        _method_configs("mystery", grid, 5)


def test_predictions_share_kernels_and_free_them(monkeypatch):
    ds = make_dataset(1)
    shapes = ((Arch.RNN, InputOrder.DEFAULT, 1), (Arch.BI_RNN_AVG, InputOrder.DEFAULT, 2),
              (Arch.RNN_AVG, InputOrder.FLIPPED, 2))
    specs = [RNNKernelSpec(HyperParams(sigma_u=su, sigma_b=0.1, depth_L=L,
                                       sigma_v=sigma_v_for(Variant(arch, order), ds.T)),
                           Variant(arch, order))
             for su in (0.5, 0.25) for arch, order, L in shapes]
    configs = [(spec, sel, C) for spec in specs for sel in ("ck", "ntk")
               for C in (1.0, 100.0)]
    configs += [(RBFSpec(gamma=0.1), None, C) for C in (1.0, 100.0)]
    configs.insert(2, configs[0])
    family_calls, cross_calls, grams, seeds = [], [], {}, []
    real_family, real_cross = bench.gram_family, bench.gram_cross_family
    real_train = bench.train_multiclass

    def spec_of(params, variant):
        assert params.sigma_v == sigma_v_for(variant, ds.T)
        return RNNKernelSpec(params, variant)

    def spy_family(data, members, **kwargs):
        out = real_family(data, members, **kwargs)
        family_calls.append([spec_of(*m) for m in members])
        for m, pair in zip(members, out):
            grams[spec_of(*m)] = (weakref.ref(pair.ck), id(pair.ck), id(pair.ntk))
        return out

    def spy_cross(train, test, members, **kwargs):
        cross_calls.append([spec_of(*m) for m in members])
        return real_cross(train, test, members, **kwargs)

    def spy_train(gram, labels, C, **kwargs):
        model = real_train(gram, labels, C, **kwargs)
        seeds.append((kwargs["warm_start"], model, id(gram)))
        return model

    def one_spec_engine(*args, **kwargs):
        raise AssertionError("the protocol computes RNN kernels by family only")

    monkeypatch.setattr(bench, "gram_family", spy_family)
    monkeypatch.setattr(bench, "gram_cross_family", spy_cross)
    monkeypatch.setattr(bench, "gram", one_spec_engine)
    monkeypatch.setattr(bench, "gram_cross", one_spec_engine)
    monkeypatch.setattr(bench, "train_multiclass", spy_train)
    preds, computed = _predictions(configs, ds.features[:8], ds.features[8:],
                                   ds.labels[:8], np.arange(2), threads=1)
    # one family computation per (sigma_u, sigma_b) serves all three of its
    # specs; the count is still distinct specs (six RNN, one RBF)
    assert computed == 7
    assert family_calls == cross_calls == [specs[:3], specs[3:]]
    distinct = list(dict.fromkeys(configs))
    assert len(seeds) == len(distinct) and set(preds) == set(configs)
    assert all(p.shape == (8,) for p in preds.values())
    # each selector trains on its own Gram, seeded by its previous C's model
    last = {}
    for (spec, sel, C), (warm, model, gram_id) in zip(distinct, seeds):
        if sel is not None:
            assert gram_id == grams[spec][1 if sel == "ck" else 2], (spec, sel, C)
        assert warm is last.get((spec, sel)), (spec, sel, C)
        last[(spec, sel)] = model
    # the last family's Grams die on return too
    assert all(ref() is None for ref, _, _ in grams.values())


def test_predictions_hold_one_family_of_matrices_at_a_time(monkeypatch):
    # configs ordered by method, as run_protocol orders them: the two
    # (sigma_u, sigma_b) families of "rnn" come back in "rnn-avg", after rbf
    ds = make_dataset(3)
    grid = HyperGrid(sigma_u_set=(0.25, 0.5), sigma_b_set=(0.1,), L_set=(1, 2),
                     C_set=(1.0, 100.0), rbf_gamma_scaled=(0.1, 1.0),
                     methods=("rnn", "rbf", "rnn-avg"))
    configs = [cfg for m in grid.methods for cfg in _method_configs(m, grid, ds.T)]
    alive, computed_specs = [], []
    real_matrices = bench._family_matrices

    def spy_matrices(specs, train_X, test_X, threads):
        assert all(ref() is None for ref in alive), "an earlier family is still alive"
        computed_specs.append(specs)
        out = real_matrices(specs, train_X, test_X, threads)
        alive.extend(weakref.ref(m) for per_spec in out.values()
                     for pair in per_spec.values() for m in pair)
        return out

    monkeypatch.setattr(bench, "_family_matrices", spy_matrices)
    preds, computed = _predictions(configs, ds.features[:8], ds.features[8:],
                                   ds.labels[:8], np.arange(2), threads=1)
    rnn = [dict.fromkeys(s for s, _, _ in _method_configs(m, grid, ds.T))
           for m in ("rnn", "rnn-avg")]
    family = [[s for specs in rnn for s in specs if s.params.sigma_u == su]
              for su in (0.25, 0.5)]
    rbf = list(dict.fromkeys(s for s, _, _ in _method_configs("rbf", grid, ds.T)))
    assert computed_specs == [family[0], family[1], [rbf[0]], [rbf[1]]]
    assert computed == 10 and set(preds) == set(configs)
    assert all(ref() is None for ref in alive)


def test_baseline_kernels_match_their_definitions():
    rng = np.random.default_rng(23)
    train, test = rng.standard_normal((9, 5)), rng.standard_normal((4, 5))
    for gamma in (0.02, 0.2, 2.0):
        spec = RBFSpec(gamma=gamma)
        for A in (train, test):
            want = np.array([[math.exp(-gamma * float(((a - b) ** 2).sum())) for b in train]
                             for a in A])
            assert np.allclose(spec.kernel(A, train), want, rtol=0, atol=1e-12)
    for degree in (1, 2, 3):
        spec = PolySpec(degree=degree)
        for A in (train, test):
            want = np.array([[(float(a @ b) / 5 + 1.0) ** degree for b in train] for a in A])
            assert np.allclose(spec.kernel(A, train), want, rtol=0, atol=1e-12)
    # a baseline spec is a family of its own, with the one selector None
    for spec in (RBFSpec(gamma=0.2), PolySpec(degree=3)):
        out = bench._family_matrices([spec], train, test, threads=1)
        assert list(out) == [spec] and list(out[spec]) == [None]
        K, cross = out[spec][None]
        assert np.array_equal(K, spec.kernel(train, train))
        assert np.array_equal(cross, spec.kernel(test, train))


def test_protocol_deterministic_and_counted():
    ds = make_dataset(11, n=16, T=4)
    r1 = run_protocol(ds, SMALL_GRID, threads=1)
    r2 = run_protocol(ds, SMALL_GRID, threads=1)
    assert r1.accuracies == r2.accuracies
    assert r1.best_configs == r2.best_configs
    assert set(r1.accuracies) == {"rnn", "rbf"}
    for acc in r1.accuracies.values():
        assert 0.0 <= acc <= 1.0
    for m, folds in r1.fold_accuracies.items():
        assert len(folds) == 4
        assert abs(np.mean(folds) - r1.accuracies[m]) < 1e-15
    # distinct kernel specs: 1 rnn + 2 rbf gammas; best specs per fold are a
    # subset, and every C value shares its spec's computation
    n_specs = 3
    best_specs = set()
    for labels in r1.best_configs.values():
        for label in labels:
            parts = label.split("|")
            drop = 2 if parts[0] not in ("rbf", "poly") else 1
            best_specs.add("|".join(parts[:-drop]))
    expected = n_specs + 4 * len(best_specs)
    assert r1.gram_computations == expected


def test_protocol_rejects_tiny_datasets():
    ds = make_dataset(13, n=6)
    with pytest.raises(ValueError, match="at least 8"):
        run_protocol(ds, SMALL_GRID)
    # and splits built for a dataset of another size
    with pytest.raises(ValueError, match="different dataset size"):
        run_protocol(make_dataset(13), SMALL_GRID, splits=default_splits("synth", 12))


def test_protocol_handles_missing_classes(caplog):
    rng = np.random.default_rng(17)
    X = rng.standard_normal((12, 3))
    labels = np.array([2, 2, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1])
    X += labels[:, None]
    ds = Dataset(features=X, labels=labels, name="rare", label_values=(0, 1, 2))
    # both rare-class rows sit in the validation half, so the training half
    # never sees class 2 and pair models fall back to constant votes
    splits = Splits(validation_half=np.array([0, 1, 3, 5, 8, 10]),
                    folds=tuple(np.array_split(np.arange(12), 4)), n_points=12)
    with caplog.at_level("INFO"):
        result = run_protocol(ds, SMALL_GRID, splits=splits)
    assert "absent from the training half" in caplog.text
    assert all(0.0 <= a <= 1.0 for a in result.accuracies.values())


def test_run_suite_and_serialization():
    datasets = [make_dataset(19, name="alpha"), make_dataset(23, name="beta")]
    report, results = run_suite(datasets, SMALL_GRID, threads=1)
    assert report.dataset_names == ("alpha", "beta")
    assert report.method_names == ("rnn", "rbf")
    assert np.allclose(report.ranks.sum(axis=1), 3.0)
    doc = json.loads(report_to_json(report, results))
    assert doc["methods"] == ["rnn", "rbf"]
    assert "alpha" in doc["details"]
    csv_text = aggregates_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("method,") and len(lines) == 3
    with pytest.raises(ValueError):
        run_suite([], SMALL_GRID)


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        BenchReport(dataset_names=("d",), method_names=("m",),
                    accuracies=np.array([[0.5]]), acc_mean=np.array([0.5]),
                    acc_std=np.array([0.0]), p95=np.array([1.5]),
                    pma=np.array([1.0]), friedman_rank=np.array([1.0]),
                    ranks=np.array([[1.0]]), pma_definition="ratio-mean")


def test_sidecar_splits_change_result(tmp_path):
    ds = make_dataset(29, n=12, T=3, name="override")
    custom = Splits(validation_half=np.arange(6),
                    folds=tuple(np.array_split(np.arange(12), 4)), n_points=12)
    r_default = run_protocol(ds, SMALL_GRID)
    r_custom = run_protocol(ds, SMALL_GRID, splits=custom)
    assert set(r_default.accuracies) == set(r_custom.accuracies)
