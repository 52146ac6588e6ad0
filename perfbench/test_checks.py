"""The benchmark's own tests: every output check passes on correct output
and fails on a corrupted copy of it.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import workloads
from rntk import Arch, HyperParams, Variant, gram, gram_cross
from rntk import bench, gram_io, svm

ROOT = Path(__file__).resolve().parent.parent
HP = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=0.7, depth_L=2)


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(5).standard_normal((30, 6))


@pytest.mark.parametrize("variant", [Variant(Arch.RNN), Variant(Arch.BI_RNN_AVG)])
def test_gram_entries_catch_one_perturbed_entry(data, variant):
    pair = gram(data, HP, variant)
    entries = [(0, 0), (3, 17), (29, 4)]
    assert checks.gram_entry_failures(data, HP, variant, pair.ck, pair.ntk,
                                      entries, "g") == []
    ntk = pair.ntk.copy()
    ntk[3, 17] *= 1 + 1e-9
    assert checks.gram_entry_failures(data, HP, variant, pair.ck, ntk, entries, "g")


def test_symmetry_and_psd_catch_corruption(data):
    K = gram(data, HP).ck
    block = np.arange(0, 30, 2)
    assert checks.symmetric_psd_failures(K, block, "g") == []
    asym = K.copy()
    asym[2, 5] = np.nextafter(asym[2, 5], np.inf)
    assert checks.symmetric_psd_failures(asym, block, "g")
    indefinite = K.copy()
    indefinite[4, 4] = -indefinite[4, 4]
    assert checks.symmetric_psd_failures(indefinite, block, "g")


def test_cross_rows_catch_one_perturbed_entry(data):
    rows = np.array([1, 7, 20])
    K = gram(data, HP).ntk
    cross = gram_cross(data, data[rows], HP).ntk
    assert checks.cross_row_failures(cross, K, rows, "c") == []
    cross[2, 9] += 1e-9
    assert checks.cross_row_failures(cross, K, rows, "c")


def test_roundtrip_catches_one_flipped_bit(tmp_path, data):
    K = gram(data, HP).ck
    path = tmp_path / "ck.gram"
    gram_io.write_gram(path, K, gram_io.KIND_CK, Variant())
    back = gram_io.read_gram(path)
    written = (K, gram_io.KIND_CK, Variant())
    assert checks.roundtrip_failures(written, back, "r") == []
    bits = back[0].view(np.uint64)
    bits[3, 4] ^= 1
    assert checks.roundtrip_failures(written, back, "r")
    assert checks.roundtrip_failures(written, (K, gram_io.KIND_NTK, Variant()), "r")


@pytest.fixture(scope="module")
def fitted(data):
    labels = np.repeat([0, 1, 2], 10)
    X = data + labels[:, None]
    K = gram(X, HP).ntk
    train = np.arange(30) % 5 != 0
    model = svm.train_multiclass(K[np.ix_(train, train)], labels[train], C=10.0)
    cross = K[np.ix_(~train, train)]
    return K[np.ix_(train, train)], labels[train], model, cross


def test_kkt_catches_scaled_dual_coefficients(fitted):
    K, labels, model, _ = fitted
    assert checks.kkt_failures(K, labels, 10.0, 1e-3, model) == []
    pair = dataclasses.replace(model.models[0], alphas=model.models[0].alphas * 0.9)
    corrupted = dataclasses.replace(model, models=(pair,) + model.models[1:])
    assert checks.kkt_failures(K, labels, 10.0, 1e-3, corrupted)


def test_prediction_catches_one_flipped_label(fitted):
    _, _, model, cross = fitted
    pred = svm.predict(model, cross)
    assert checks.prediction_failures(model, cross, pred) == []
    pred[0] = (pred[0] + 1) % 3
    assert checks.prediction_failures(model, cross, pred)


def test_accuracy_below_majority_fails():
    labels = np.array([0, 0, 0, 1])
    good = types.SimpleNamespace(dataset="d", accuracies={"rnn": 0.8, "rbf": 1.0})
    bad = types.SimpleNamespace(dataset="d", accuracies={"rnn": 0.75, "rbf": 1.0})
    assert checks.accuracy_failures(good, labels) == []
    assert checks.accuracy_failures(bad, labels)


def test_expected_gram_computations_match_the_protocol():
    ds = bench.load_dataset(ROOT / "datasets" / "drift.csv")
    grid = bench.HyperGrid(sigma_u_set=(0.5,), sigma_b_set=(0.1,), L_set=(1,),
                           C_set=(1.0,), rbf_gamma_scaled=(1.0,), poly_degrees=(2,),
                           methods=("rnn", "rnn-p", "rbf", "poly"))
    result = bench.run_protocol(ds, grid, threads=1)
    expected = checks.expected_gram_computations(grid, result.best_configs, 4)
    assert result.gram_computations == expected


def test_oracle_check_catches_a_biased_mean():
    analytic = {("ntk", 1): 2.0, ("ck", 1): 0.5}
    ck_sd = {("ck", 1): 0.6}
    ok = {("ntk", 1): [(2.01, 0.02, 2), (1.98, 0.03, 2)],
          ("ck", 1): [(0.2, 0.3, 2), (0.9, 0.4, 2)]}
    assert checks.oracle_failures(ok, analytic, ck_sd) == []
    biased = {**ok, ("ntk", 1): [(3.0, 0.02, 2), (3.01, 0.03, 2)]}
    assert checks.oracle_failures(biased, analytic, ck_sd)


def test_oracle_check_floors_the_ck_stderr():
    # a few CK products can agree closely by chance; the infinite-width
    # standard deviation keeps that from reading as a failure
    analytic = {("ck", 1): 0.5}
    tight = {("ck", 1): [(0.05, 0.001, 2), (0.051, 0.001, 2)]}
    assert checks.oracle_failures(tight, analytic, {}) != []
    assert checks.oracle_failures(tight, analytic, {("ck", 1): 0.6}) == []


def test_oracle_pooling_matches_one_sample():
    sample = np.random.default_rng(0).standard_normal(7) + 3.0
    calls = [(float(s.mean()), float(s.std(ddof=1) / math.sqrt(s.size)), s.size)
             for s in (sample[:3], sample[3:])]
    mean, stderr, n = checks.pool(calls)
    assert n == 7
    assert mean == pytest.approx(sample.mean(), rel=1e-12)
    assert stderr == pytest.approx(sample.std(ddof=1) / math.sqrt(7), rel=1e-12)


def test_self_time_subtracts_direct_children():
    recorded = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 5), ("c", 2.0, 3.0, 1, 0),
                ("b", 5.0, 6.0, 0, 7)]
    summary = spans.summarize(recorded)
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"] == {"calls": 2, "total_s": pytest.approx(4.0),
                            "self_s": pytest.approx(3.0), "work": 12}


def test_tracer_records_nesting_and_restores_functions():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, work=lambda x: x)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    holder = types.SimpleNamespace(f=outer)
    with spans.patched([(holder, "f", lambda x: -x)]):
        assert holder.f(3) == -3
    assert holder.f(3) == 8
    (n1, _, _, p1, w1), (n2, _, _, p2, w2) = tracer.spans
    assert (n1, p1, w1) == ("outer", -1, 0)
    assert (n2, p2, w2) == ("inner", 0, 3)


def test_traced_metrics_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {name: unit for name, (_, unit) in workloads.layer_metrics({}).items()}
    reported.update({name: unit for name, (_, unit) in
                     workloads.trace_metrics(0.0, 0.0, 0.0).items()})
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == reported
