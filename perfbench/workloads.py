"""The benchmark's workloads: inputs from the seed, the timed job, output
checks, and the per-layer metrics read from a traced job.

Every workload is single-threaded (``threads=1``; the launcher pins BLAS
to one thread), because the two cores of the reference host are shared
and threading gains on them are small.

- ``suite``: ``run_suite`` over two bundled datasets (blobs, 3 classes;
  drift, 2 classes) with the default ``HyperGrid``; SMO does most of the
  work and the kernel layer sees many small Grams.
- ``gram``: ``gram`` on a seeded 1200 x 20 matrix for ``rnn`` (L=2) and
  ``bi-rnn-avg`` (L=1), one 240 x 1200 ``gram_cross`` block, and a
  ``write_gram``/``read_gram`` round trip of the four matrices; the kernel
  recursion does nearly all the work at a few large calls.
- ``verify``: ``empirical_suite`` at width 4000 with 2 trials on each
  (L, T) cell of ``rntk verify``; Gaussian draws and BLAS matmuls do the
  work.
"""

from __future__ import annotations

import inspect
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import spans
from rntk import bench, gram_io, kernels, oracle, svm
from rntk.kernels import Arch, HyperParams, Variant

EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}


def _pair_steps(data, params, variant=Variant(), **_):
    n = len(data)
    dirs = 2 if variant.bidirectional else 1
    return n * (n + 1) // 2 * len(data[0]) * params.depth_L * dirs


def _cross_steps(train, test, params, variant=Variant(), **_):
    dirs = 2 if variant.bidirectional else 1
    return len(train) * len(test) * len(train[0]) * params.depth_L * dirs


def _matrix_bytes(path, matrix, *_, **__):
    return int(np.asarray(matrix).nbytes)


def _file_bytes(path):
    return Path(path).stat().st_size


def _trials(x, x_prime, params, width, trials, *_, **__):
    return trials


def traced_functions(tracer):
    """Wrap the package's public functions where their callers look them up."""
    gram_ = tracer.wrap("kernels.gram", kernels.gram, _pair_steps)
    cross = tracer.wrap("kernels.gram_cross", kernels.gram_cross, _cross_steps)
    return [
        (bench, "run_protocol", tracer.wrap("bench.run_protocol", bench.run_protocol)),
        (bench, "gram", gram_),
        (bench, "gram_cross", cross),
        (kernels, "gram", gram_),
        (kernels, "gram_cross", cross),
        (bench, "train_multiclass",
         tracer.wrap("svm.train_multiclass", bench.train_multiclass)),
        (bench, "predict", tracer.wrap("svm.predict", bench.predict)),
        (svm, "smo_train", tracer.wrap("svm.smo_train", svm.smo_train)),
        (oracle, "empirical_suite",
         tracer.wrap("oracle.empirical_suite", oracle.empirical_suite, _trials)),
        (oracle, "sample_rnn", tracer.wrap("oracle.sample_rnn", oracle.sample_rnn)),
        (gram_io, "write_gram",
         tracer.wrap("gram_io.write_gram", gram_io.write_gram, _matrix_bytes)),
        (gram_io, "read_gram",
         tracer.wrap("gram_io.read_gram", gram_io.read_gram, _file_bytes)),
    ]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(summary, gram_computations=0, alloc_peak_mb=0.0):
    """Every per-layer metric of one traced job, from its span summary.

    A layer the workload does not reach reads 0.
    """
    get = lambda name: summary.get(name, EMPTY)  # noqa: E731
    gram_, cross = get("kernels.gram"), get("kernels.gram_cross")
    train, smo = get("svm.train_multiclass"), get("svm.smo_train")
    suite, draws = get("oracle.empirical_suite"), get("oracle.sample_rnn")
    write, read = get("gram_io.write_gram"), get("gram_io.read_gram")
    return {
        "kernels.gram_s": (gram_["total_s"], "s"),
        "kernels.cross_s": (cross["total_s"], "s"),
        "kernels.gram_steps_per_s": (_ratio(gram_["work"], gram_["total_s"], 1e-6), "Msteps/s"),
        "kernels.cross_steps_per_s": (_ratio(cross["work"], cross["total_s"], 1e-6), "Msteps/s"),
        "kernels.gram_alloc_peak_mb": (alloc_peak_mb, "MB"),
        "kernels.calls": (gram_["calls"] + cross["calls"], "count"),
        "svm.smo_s": (smo["total_s"], "s"),
        "svm.ms_per_fit": (_ratio(smo["total_s"], smo["calls"], 1e3), "ms"),
        "svm.train_self_s": (train["self_s"], "s"),
        "svm.predict_s": (get("svm.predict")["total_s"], "s"),
        "svm.fits": (smo["calls"], "count"),
        "bench.protocol_self_s": (get("bench.run_protocol")["self_s"], "s"),
        "bench.gram_computations": (gram_computations, "count"),
        "oracle.trial_s": (_ratio(suite["total_s"], suite["work"]), "s"),
        "oracle.sample_s": (draws["total_s"], "s"),
        "oracle.draws": (draws["calls"], "count"),
        # each trial estimates one input pair in each of two directions
        "oracle.entries_per_draw": (_ratio(2 * suite["work"], draws["calls"]), "ratio"),
        "gram_io.write_mb_per_s": (_ratio(write["work"], write["total_s"], 1e-6), "MB/s"),
        "gram_io.read_mb_per_s": (_ratio(read["work"], read["total_s"], 1e-6), "MB/s"),
    }


def trace_metrics(job_s, traced_job_s, self_sum_s):
    """How the traced repetitions compare with the untraced ones.

    ``self_sum_s`` is the time inside wrapped calls, the sum of every self
    time; ``overhead_s`` is the median traced repetition minus ``job_s``.
    """
    return {
        "trace.job_s": (job_s, "s"),
        "trace.self_sum_s": (self_sum_s, "s"),
        "trace.overhead_s": (traced_job_s - job_s, "s"),
    }


class Suite:
    """``run_suite`` over bundled datasets, as ``rntk bench`` runs it."""

    name = "suite"
    DATASETS = ("blobs", "drift")
    # every train_multiclass/predict call whose index is a multiple of this
    # is kept from the warm-up for the output checks
    SAMPLE_EVERY = 40

    def __init__(self, root, seed, work_dir):
        self.datasets = [bench.load_dataset(root / "datasets" / f"{name}.csv")
                         for name in self.DATASETS]
        self.grid = bench.HyperGrid()
        # The seed draws the fold partition. The validation half stays the
        # dataset's default one: it decides how many configurations tie at
        # validation, so a seeded half changes the work by up to 2x.
        self.splits = {}
        for i, ds in enumerate(self.datasets):
            rng = np.random.default_rng((seed, i))
            folds = tuple(np.sort(f) for f in
                          np.array_split(rng.permutation(ds.n_points), 4))
            val = bench.default_splits(ds.name, ds.n_points).validation_half
            self.splits[ds.name] = bench.Splits(val, folds, ds.n_points)
        self.fits = []
        self.predictions = []
        self.outputs = []

    def job(self, rep, op):
        out = op(lambda: bench.run_suite(self.datasets, self.grid,
                                         splits_map=self.splits, threads=1))
        self.outputs.append(out)
        return out

    def capture(self):
        """Keep sampled fits and predictions of the job run inside it."""
        train, predict = bench.train_multiclass, bench.predict
        tol = inspect.signature(svm.train_multiclass).parameters["tol"].default
        calls = {"train": 0, "predict": 0}

        def sampled_train(gram, labels, C, **kwargs):
            model = train(gram, labels, C, **kwargs)
            if calls["train"] % self.SAMPLE_EVERY == 0:
                self.fits.append((gram, labels, C, kwargs.get("tol", tol), model))
            calls["train"] += 1
            return model

        def sampled_predict(model, cross):
            out = predict(model, cross)
            if calls["predict"] % self.SAMPLE_EVERY == 0:
                self.predictions.append((model, cross, out))
            calls["predict"] += 1
            return out

        return spans.patched([(bench, "train_multiclass", sampled_train),
                              (bench, "predict", sampled_predict)])

    def check(self):
        failures = []
        for gram, labels, C, tol, model in self.fits:
            failures += checks.kkt_failures(gram, labels, C, tol, model)
        for model, cross, out in self.predictions:
            failures += checks.prediction_failures(model, cross, out)
        if not self.fits or not self.predictions:
            failures.append("no fits or predictions were sampled")
        done = [out for out in self.outputs if out is not None]
        if not done:
            return failures + ["no run_suite call completed"]
        _, results = done[-1]
        for ds, result in zip(self.datasets, results):
            failures += checks.accuracy_failures(result, ds.labels)
            expected = checks.expected_gram_computations(
                self.grid, result.best_configs, len(self.splits[ds.name].folds))
            if result.gram_computations != expected:
                failures.append(f"{ds.name}: {result.gram_computations} Gram "
                                f"computations, expected {expected}")
        for _, other in done[:-1]:
            if [(r.accuracies, r.best_configs) for r in other] != \
                    [(r.accuracies, r.best_configs) for r in results]:
                failures.append("repetitions of the same inputs disagree")
        return failures

    def extra_metrics(self, output):
        if output is None:
            return {}
        return {"gram_computations": sum(r.gram_computations for r in output[1])}


class Gram:
    """``gram``/``gram_cross`` on a seeded matrix and a Gram file round trip."""

    name = "gram"
    N, T, CROSS_ROWS = 1200, 20, 240
    ENTRIES_CHECKED, PSD_BLOCK = 24, 200

    def __init__(self, root, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.X = rng.standard_normal((self.N, self.T))
        self.rows = np.sort(rng.choice(self.N, self.CROSS_ROWS, replace=False))
        self.specs = []
        for arch, L in ((Arch.RNN, 2), (Arch.BI_RNN_AVG, 1)):
            variant = Variant(arch)
            params = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=L,
                                 sigma_v=bench.sigma_v_for(variant, self.T))
            self.specs.append((arch.value, params, variant))
        self.check_rng = np.random.default_rng((seed, 1))
        self.work_dir = Path(work_dir)
        self.last = None

    def job(self, rep, op):
        # the checks read the last repetition; drop the one before, so that
        # peak memory is that of one repetition
        self.last = out = {"grams": {}, "files": []}
        for label, params, variant in self.specs:
            out["grams"][label] = op(
                lambda: kernels.gram(self.X, params, variant, threads=1))
        _, params, variant = self.specs[0]
        out["cross"] = op(lambda: kernels.gram_cross(
            self.X, self.X[self.rows], params, variant, threads=1))
        for label, _, variant in self.specs:
            pair = out["grams"][label]
            for kind, attr in ((gram_io.KIND_CK, "ck"), (gram_io.KIND_NTK, "ntk")):
                path = self.work_dir / f"{label}-{attr}.gram"
                op(lambda: gram_io.write_gram(path, getattr(pair, attr), kind, variant))
                back = op(lambda: gram_io.read_gram(path))
                out["files"].append((f"{label}/{attr}", pair and
                                     (getattr(pair, attr), kind, variant), back))
        return out

    def capture(self):
        return spans.patched([])

    def check(self):
        out = self.last
        failures = []
        for label, params, variant in self.specs:
            pair = out["grams"][label]
            if pair is None:
                failures.append(f"{label}: gram failed")
                continue
            i = self.check_rng.integers(0, self.N, self.ENTRIES_CHECKED)
            j = self.check_rng.integers(0, self.N, self.ENTRIES_CHECKED)
            entries = list(zip(i, j)) + [(k, k) for k in i[:4]]
            failures += checks.gram_entry_failures(self.X, params, variant,
                                                   pair.ck, pair.ntk, entries, label)
            block = np.sort(self.check_rng.choice(self.N, self.PSD_BLOCK, replace=False))
            for kind in ("ck", "ntk"):
                failures += checks.symmetric_psd_failures(
                    getattr(pair, kind), block, f"{label}/{kind}")
        pair, cross = out["grams"][self.specs[0][0]], out["cross"]
        if pair is None or cross is None:
            failures.append("gram_cross block or its gram failed")
        else:
            for kind in ("ck", "ntk"):
                failures += checks.cross_row_failures(
                    getattr(cross, kind), getattr(pair, kind), self.rows, f"cross/{kind}")
        for label, written, back in out["files"]:
            if written is None or back is None:
                failures.append(f"{label}: write or read failed")
            else:
                failures += checks.roundtrip_failures(written, back, label)
        return failures

    def extra_metrics(self, output):
        """Peak traced allocation of each ``gram`` call, the largest in MB.

        Measured on calls of their own: tracemalloc slows every allocation,
        so it stays out of the timed and traced repetitions.
        """
        peak = 0
        for _, params, variant in self.specs:
            tracemalloc.start()
            try:
                kernels.gram(self.X, params, variant, threads=1)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return {"alloc_peak_mb": peak / 1e6}


class Verify:
    """``empirical_suite`` over the (L, T) cells of ``rntk verify``."""

    name = "verify"
    WIDTH, TRIALS = 4000, 2
    CELLS = ((1, 2), (1, 5), (2, 2), (2, 5))

    def __init__(self, root, seed, work_dir):
        self.seed = seed
        self.cells = []
        for L, T in self.CELLS:
            params = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=1.0, depth_L=L)
            rng = np.random.default_rng((seed, T, L, 1))
            x, xp = rng.standard_normal(T), rng.standard_normal(T)
            self.cells.append((L, T, params, x / np.linalg.norm(x), xp / np.linalg.norm(xp)))
        self.outputs = []

    def job(self, rep, op):
        out = {}
        for L, T, params, x, xp in self.cells:
            trial_seed = np.random.SeedSequence((self.seed, rep, T, L))
            est = op(lambda: oracle.empirical_suite(
                x, xp, params, width=self.WIDTH, trials=self.TRIALS, seed=trial_seed))
            out[(L, T)] = est
        self.outputs.append(out)
        return out

    def capture(self):
        return spans.patched([])

    def check(self):
        estimates, analytic, ck_sd = {}, {}, {}
        failures = []
        for L, T, params, x, xp in self.cells:
            values, sd = checks.verify_cell_references(x, xp, params)
            for (arch, kind), value in values.items():
                key = (L, T, arch.value, kind)
                analytic[key] = value
                if (arch, kind) in sd:
                    ck_sd[key] = sd[(arch, kind)]
                estimates[key] = []
            for out in self.outputs:
                if out[(L, T)] is None:
                    failures.append(f"L={L} T={T}: empirical_suite failed")
                    continue
                for (arch, kind), est in out[(L, T)].items():
                    estimates[(L, T, arch.value, kind)].append(
                        (est.mean, est.stderr, est.trials))
        return failures + checks.oracle_failures(estimates, analytic, ck_sd)

    def extra_metrics(self, output):
        return {}


WORKLOADS = {cls.name: cls for cls in (Suite, Gram, Verify)}
