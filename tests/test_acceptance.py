"""Acceptance suite: one test per headline guarantee of the library.

Each test prints a single PASS/FAIL line (past pytest's capture) with the
measured margin, then asserts. Criterion 10 is informational only: its
line reports whether timing ratios fall in the expected bands, but the
test never fails on them.

Seeds are fixed. The Monte Carlo criteria (1, 2) gate a maximum of many
|z| statistics at 3, so some seeds exceed it even on exact kernels:
criterion 01 checks 32 entries, and if they were independent with 49
degrees of freedom each, about 12.6% of seeds would read above 3
(P(|t_49| > 3) is about 0.42%). Over seeds 0-19 at criterion 01's width,
trials and cells, 3 read above 3 (2.5 expected), and seed 0 reads 2.75.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from rntk import (
    Arch,
    HyperParams,
    Variant,
    analytic_suite,
    empirical_cross_head,
    empirical_suite,
    gram,
    kernel_pair,
    sample_rnn,
    vphi,
)
from rntk.bench import HyperGrid, load_dataset, run_protocol, run_suite
from rntk.svm import decision_function, smo_train
from dense_bptt import central_difference, flat_gradient, n_weights
from svm_reference import dual_objective, projected_gradient_reference

DATA_DIR = Path(__file__).resolve().parents[1] / "datasets"
ARCHS = (Arch.RNN, Arch.BI_RNN, Arch.RNN_AVG, Arch.BI_RNN_AVG)


def _report(capsys, num, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[criterion {num:02d}] {label}: {status} ({detail})")


def test_criterion_01_finite_width_oracle_agreement(capsys):
    seed = 0
    width, trials = 4000, 50
    start = time.monotonic()
    worst = 0.0
    for L in (1, 2):
        for T in (2, 5):
            params = HyperParams(sigma_w=math.sqrt(2.0), sigma_u=0.5,
                                 sigma_b=0.1, sigma_v=1.0, depth_L=L)
            rng = np.random.default_rng((seed, L, T))
            x = rng.standard_normal(T)
            xp = rng.standard_normal(T)
            x /= np.linalg.norm(x)
            xp /= np.linalg.norm(xp)
            expected = analytic_suite(x, xp, params)
            ss = np.random.SeedSequence((seed, L, T, 17))
            est = empirical_suite(x, xp, params, width=width, trials=trials,
                                  seed=ss)
            for key, value in expected.items():
                e = est[key]
                worst = max(worst, abs(e.mean - value) / e.stderr)
    elapsed = time.monotonic() - start
    ok = worst <= 3.0 and elapsed < 600.0
    _report(capsys, 1, "finite-width oracle agreement", ok,
            f"max|z|={worst:.2f} vs 3.00, {elapsed:.0f}s vs 600s")
    assert worst <= 3.0
    assert elapsed < 600.0


def test_criterion_02_cross_head_independence(capsys):
    seed = 3
    width, trials = 2000, 100
    worst = 0.0
    for L, ha, hb in [(1, 0, 3), (1, 1, 4), (2, 0, 4), (2, 2, 3)]:
        params = HyperParams(sigma_w=math.sqrt(2.0), sigma_u=0.5,
                             sigma_b=0.1, depth_L=L)
        rng = np.random.default_rng((seed, L, ha, hb))
        x = rng.standard_normal(5)
        xp = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        xp /= np.linalg.norm(xp)
        ss = np.random.SeedSequence((seed, L, ha, hb, 29))
        prods, inners = empirical_cross_head(x, xp, params, width=width,
                                             trials=trials, seed=ss,
                                             head_a=ha, head_b=hb)
        for est in (prods, inners):
            worst = max(worst, abs(est.mean) / est.stderr)
    ok = worst <= 3.0
    _report(capsys, 2, "cross-head independence", ok,
            f"max|mean|/stderr={worst:.2f} vs 3.00")
    assert worst <= 3.0


def test_criterion_03_prefix_additivity(capsys):
    rng = np.random.default_rng(510)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(2, 7))
        params = HyperParams(
            sigma_w=float(rng.uniform(0.8, 1.8)),
            sigma_u=float(rng.uniform(0.2, 1.5)),
            sigma_b=float(rng.uniform(0.0, 0.5)),
            sigma_v=float(rng.uniform(0.5, 2.0)),
            depth_L=int(rng.integers(1, 4)),
        )
        x = rng.standard_normal(T)
        xp = rng.standard_normal(T)
        full = kernel_pair(x, xp, params)
        ck_sum = 0.0
        ntk_sum = 0.0
        for t in range(1, T + 1):
            part = kernel_pair(x[:t], xp[:t], params)
            ck_sum += part.ck_last
            ntk_sum += part.ntk_last
        worst = max(worst,
                    abs(ck_sum - full.ck_avg) / abs(full.ck_avg),
                    abs(ntk_sum - full.ntk_avg) / abs(full.ntk_avg))
    ok = worst <= 1e-10
    _report(capsys, 3, "pooled kernel equals prefix sum", ok,
            f"worst rel err={worst:.2e} vs 1e-10")
    assert worst <= 1e-10


def test_criterion_04_bidirectional_composition(capsys):
    worst = 0.0
    for k, T in enumerate((3, 5, 6, 8, 4)):
        rng = np.random.default_rng((640, k))
        data = rng.standard_normal((30, T))
        params = HyperParams(
            sigma_u=float(rng.uniform(0.2, 1.0)),
            sigma_b=float(rng.uniform(0.0, 0.3)),
            depth_L=int(rng.integers(1, 3)),
        )
        flipped = data[:, ::-1].copy()
        for uni, bi in ((Arch.RNN, Arch.BI_RNN),
                        (Arch.RNN_AVG, Arch.BI_RNN_AVG)):
            g_fwd = gram(data, params, Variant(uni))
            g_bwd = gram(flipped, params, Variant(uni))
            g_bi = gram(data, params, Variant(bi))
            worst = max(worst,
                        np.abs(g_fwd.ck + g_bwd.ck - g_bi.ck).max(),
                        np.abs(g_fwd.ntk + g_bwd.ntk - g_bi.ntk).max())
            g_bi_flip = gram(flipped, params, Variant(bi))
            worst = max(worst,
                        np.abs(g_bi_flip.ck - g_bi.ck).max(),
                        np.abs(g_bi_flip.ntk - g_bi.ntk).max())
    ok = worst <= 1e-12
    _report(capsys, 4, "bidirectional composition and flip invariance", ok,
            f"worst abs diff={worst:.2e} vs 1e-12")
    assert worst <= 1e-12


def test_criterion_05_relu_moment_closed_forms(capsys):
    seed = 2
    grid = [
        (1.0, 1.0, -1.0),
        (1.0, 1.0, 0.0),
        (1.0, 1.0, 1.0),
        (2.0, 0.5, 0.3),
        (1.5, 1.5, 0.8),
        (0.7, 2.0, -0.6),
        (3.0, 3.0, 0.99),
        (1.0, 4.0, 0.5),
        (2.0, 2.0, -0.95),
    ]
    n_samples, chunk = 10_000_000, 1_000_000
    worst = 0.0
    for idx, (k1, k2, c) in enumerate(grid):
        rng = np.random.default_rng((seed, idx))
        s1, s2 = math.sqrt(k1), math.sqrt(k2)
        b = math.sqrt(max(0.0, 1.0 - c * c))
        n = 0
        sum_p = sumsq_p = sum_d = sumsq_d = 0.0
        while n < n_samples:
            m = min(chunk, n_samples - n)
            g1 = rng.standard_normal(m)
            g2 = rng.standard_normal(m)
            z1 = s1 * g1
            z2 = s2 * (c * g1 + b * g2)
            p = np.maximum(z1, 0.0) * np.maximum(z2, 0.0)
            d = ((z1 > 0.0) & (z2 > 0.0)).astype(np.float64)
            sum_p += p.sum()
            sumsq_p += (p * p).sum()
            sum_d += d.sum()
            sumsq_d += (d * d).sum()
            n += m
        moment, moment_prime = vphi(k1, k2, c * math.sqrt(k1 * k2))
        for analytic, total, totalsq in ((moment, sum_p, sumsq_p),
                                         (moment_prime, sum_d, sumsq_d)):
            mean = total / n
            var = max(0.0, (totalsq - n * mean * mean) / (n - 1))
            stderr = math.sqrt(var / n)
            if stderr == 0.0:
                assert analytic == mean
            else:
                worst = max(worst, abs(analytic - mean) / stderr)
    ok = worst <= 4.0
    _report(capsys, 5, "ReLU moment closed forms vs Monte Carlo", ok,
            f"max|z|={worst:.2f} vs 4.00")
    assert worst <= 4.0


def test_criterion_06_gram_symmetry_and_psd(capsys):
    worst = -np.inf
    for k in range(20):
        rng = np.random.default_rng((620, k))
        data = rng.standard_normal((50, 8))
        params = HyperParams(
            sigma_w=float(rng.uniform(1.0, 1.6)),
            sigma_u=float(rng.uniform(0.2, 1.2)),
            sigma_b=float(rng.uniform(0.0, 0.3)),
            depth_L=int(rng.integers(1, 3)),
        )
        for arch in ARCHS:
            g = gram(data, params, Variant(arch))
            for M in (g.ck, g.ntk):
                assert np.array_equal(M, M.T)
                floor = -1e-8 * np.trace(M) / M.shape[0]
                min_eig = float(np.linalg.eigvalsh(M)[0])
                worst = max(worst, (floor - min_eig) / abs(floor))
                assert min_eig >= floor
    ok = worst <= 0.0
    _report(capsys, 6, "gram symmetry and eigenvalue floor", ok,
            f"min eigenvalue clears the floor by {-worst:.1e}x its magnitude")
    assert ok


def test_criterion_07_svm_dual_agreement(capsys):
    seed = 0
    tol = 1e-8
    worst_rel = 0.0
    worst_kkt = -np.inf
    cs = [0.1, 1.0, 10.0, 100.0]
    for k in range(20):
        rng = np.random.default_rng((seed, k))
        X = rng.standard_normal((30, 4))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        sq = (X * X).sum(axis=1)
        G = np.exp(-0.5 * np.maximum(sq[:, None] + sq[None, :] - 2 * X @ X.T, 0))
        C = cs[k % len(cs)]
        model = smo_train(G, y, C=C, tol=tol)
        a = np.zeros(30)
        a[model.support_indices] = np.abs(model.alphas)
        obj = dual_objective(G, y, a)
        _, obj_ref = projected_gradient_reference(G, y, C=C, tol=1e-10)
        worst_rel = max(worst_rel,
                        abs(obj - obj_ref) / max(1.0, abs(obj_ref)))
        grad = (G * np.outer(y, y)) @ a - 1.0
        up = ((a < C - 1e-12) & (y > 0)) | ((a > 1e-12) & (y < 0))
        low = ((a < C - 1e-12) & (y < 0)) | ((a > 1e-12) & (y > 0))
        worst_kkt = max(worst_kkt,
                        np.max(-(y * grad)[up]) - np.min(-(y * grad)[low]))
    rng = np.random.default_rng((seed, 99))
    X = rng.standard_normal((30, 2)) * 0.4
    y = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
    X[y > 0, 0] += 3.0
    X[y < 0, 0] -= 3.0
    sq = (X * X).sum(axis=1)
    G = np.exp(-0.2 * np.maximum(sq[:, None] + sq[None, :] - 2 * X @ X.T, 0))
    sep = smo_train(G, y, C=1e6, tol=tol)
    acc = float(np.mean(np.where(decision_function(sep, G) >= 0, 1.0, -1.0) == y))
    ok = worst_rel <= 1e-6 and worst_kkt <= tol and acc == 1.0
    _report(capsys, 7, "SMO matches reference QP", ok,
            f"worst rel={worst_rel:.2e} vs 1e-6, worst KKT gap={worst_kkt:.2e} "
            f"vs tol={tol:g}, separable acc={acc}")
    assert worst_rel <= 1e-6
    assert worst_kkt <= tol
    assert acc == 1.0


def test_criterion_08_bptt_matches_finite_differences(capsys):
    seed = 0
    step = 1e-5
    width, n_coords = 25, 40
    worst = 0.0
    for L in (1, 2):
        for T in (2, 4):
            params = HyperParams(sigma_w=math.sqrt(2.0), sigma_u=0.5,
                                 sigma_b=0.1, depth_L=L)
            rng = np.random.default_rng((seed, L, T))
            x = rng.standard_normal(T)
            s1, s2 = np.random.SeedSequence((seed, L, T, 5)).spawn(2)
            nets = (sample_rnn(params, width, T, s1), sample_rnn(params, width, T, s2))
            for arch in ARCHS:
                variant = Variant(arch)
                g = flat_gradient(nets, params, x, variant)
                for j in rng.choice(n_weights(nets), size=n_coords, replace=False):
                    fd = central_difference(nets, params, x, variant, j, step)
                    scale = max(abs(fd), abs(g[j]))
                    if scale < 1e-12:
                        assert fd == g[j]
                    else:
                        worst = max(worst, abs(fd - g[j]) / scale)
    ok = worst <= 1e-5
    _report(capsys, 8, "BPTT agrees with central differences", ok,
            f"worst rel err={worst:.2e} vs 1e-5")
    assert worst <= 1e-5


def test_criterion_09_benchmark_protocol(capsys):
    start = time.monotonic()
    paths = sorted(DATA_DIR.glob("*.csv"))
    assert len(paths) >= 5
    datasets = [load_dataset(p) for p in paths]
    grid = HyperGrid()
    report, results = run_suite(datasets, grid)

    M = len(report.method_names)
    for metric in (report.acc_mean, report.acc_std, report.p95,
                   report.pma, report.friedman_rank):
        assert metric.shape == (M,)
        assert np.all(np.isfinite(metric))
    assert np.allclose(report.ranks.sum(axis=1), M * (M + 1) / 2)

    rnn_cols = [i for i, m in enumerate(report.method_names)
                if m not in ("rbf", "poly")]
    rbf_col = report.method_names.index("rbf")
    best_rnn = report.accuracies[:, rnn_cols].max(axis=1)
    floor_count = int(np.sum(best_rnn >= report.accuracies[:, rbf_col]))

    smallest = min(datasets, key=lambda d: d.features.shape[0])
    again = run_protocol(smallest, grid)
    first = next(r for r in results if r.dataset == smallest.name)
    assert again.accuracies == first.accuracies
    assert again.best_configs == first.best_configs
    assert again.fold_accuracies == first.fold_accuracies

    # every result on the bundled datasets with their default splits; the
    # file is json.dumps(observed, indent=1, sort_keys=True), rewritten only
    # by a change that says why the results moved
    observed = {r.dataset: {"accuracies": r.accuracies,
                            "validation_best": r.validation_best,
                            "best_configs": r.best_configs,
                            "fold_accuracies": r.fold_accuracies,
                            "gram_computations": r.gram_computations}
                for r in results}
    expected = json.loads((Path(__file__).parent / "protocol_results.json")
                          .read_text(encoding="utf-8"))
    moved = sorted(name for name in observed.keys() | expected.keys()
                   if observed.get(name) != expected.get(name))

    elapsed = time.monotonic() - start
    ok = floor_count >= 2 and not moved and elapsed < 1800.0
    _report(capsys, 9, "benchmark protocol end to end", ok,
            f"{len(datasets)} datasets, best RNN kernel >= RBF on "
            f"{floor_count} (need 2), deterministic rerun OK, "
            f"results moved on {moved or 'none'} of protocol_results.json, "
            f"{elapsed:.0f}s vs 1800s")
    assert floor_count >= 2
    assert not moved, f"protocol results differ from protocol_results.json on {moved}"
    assert elapsed < 1800.0


def test_criterion_10_scaling_trends_informational(capsys):
    def time_gram(N, T, L):
        rng = np.random.default_rng((700, N, T, L))
        data = rng.standard_normal((N, T))
        params = HyperParams(depth_L=L)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            gram(data, params, Variant(Arch.RNN), threads=1)
            best = min(best, time.perf_counter() - t0)
        return best

    t_n1, t_n2 = time_gram(100, 8, 1), time_gram(200, 8, 1)
    t_t1, t_t2 = time_gram(120, 6, 1), time_gram(120, 12, 1)
    t_l1, t_l2 = time_gram(120, 8, 1), time_gram(120, 8, 2)
    ratios = {
        "N x2": (t_n2 / t_n1, (2.5, 6.5)),
        "T x2": (t_t2 / t_t1, (1.5, 2.8)),
        "L x2": (t_l2 / t_l1, (1.5, 2.8)),
    }
    assert all(t > 0 for t in (t_n1, t_n2, t_t1, t_t2, t_l1, t_l2))
    parts = []
    in_band = True
    for name, (ratio, (lo, hi)) in ratios.items():
        inside = lo <= ratio <= hi
        in_band = in_band and inside
        parts.append(f"{name}={ratio:.2f} [{lo},{hi}]"
                     f"{'' if inside else ' outside'}")
    _report(capsys, 10, "scaling trends (informational, never gates)",
            True, "; ".join(parts) + ("" if in_band else "; reported only"))
