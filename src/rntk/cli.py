"""Command line interface: gram computation, kernel verification against
finite-width sampling, benchmark runs, and timing sweeps.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    DatasetFormatError,
    HyperGrid,
    load_dataset,
    load_splits,
    report_to_json,
    aggregates_to_csv,
    run_suite,
    sigma_v_for,
)
from .gram_io import KIND_CK, KIND_NTK, write_gram, write_gram_csv
from .kernels import Arch, HyperParams, InputOrder, Variant, gram
from .oracle import analytic_suite, empirical_suite

_ARCH_NAMES = [a.value for a in Arch]
_ORDER_NAMES = [o.value for o in InputOrder]


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _trials_arg(text):
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            "need at least 2 trials (stderr is undefined for 1)")
    return value


def _int_list(text):
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"need positive integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rntk",
        description="Infinite-width recurrent-network kernels: compute Gram "
                    "matrices, verify them against finite networks, and run "
                    "classification benchmarks.")
    parser.add_argument("--version", action="version", version=f"rntk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gram", help="compute CK/NTK Gram matrices of a dataset")
    g.add_argument("--data", required=True, help="dataset CSV (features + label column)")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--variant", choices=_ARCH_NAMES, default="rnn")
    g.add_argument("--order", choices=_ORDER_NAMES, default="default")
    g.add_argument("--L", type=_positive_int, default=1, help="number of layers")
    g.add_argument("--sigma-u", type=float, default=0.5)
    g.add_argument("--sigma-b", type=float, default=0.1)
    g.add_argument("--sigma-w", type=float, default=math.sqrt(2.0))
    g.add_argument("--sigma-v", type=float, default=None,
                   help="output scale; default derives from the variant")
    g.add_argument("--format", choices=["binary", "csv"], default="binary")
    g.add_argument("--threads", type=_positive_int, default=None)

    v = sub.add_parser("verify", help="compare analytic kernels to sampled networks")
    v.add_argument("--width", type=_positive_int, default=4000)
    v.add_argument("--trials", type=_trials_arg, default=50)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--L-list", type=_int_list, default=[1, 2])
    v.add_argument("--T-list", type=_int_list, default=[2, 5])
    v.add_argument("--sigma-u", type=float, default=0.5)
    v.add_argument("--sigma-b", type=float, default=0.1)
    v.add_argument("--out", default=None, help="write the JSON report here "
                                               "instead of stdout")

    b = sub.add_parser("bench", help="run the benchmark protocol on a dataset directory")
    b.add_argument("--data-dir", required=True)
    b.add_argument("--out-dir", required=True)
    b.add_argument("--methods", default=None,
                   help="comma-separated subset of: " + ",".join(HyperGrid().methods))
    b.add_argument("--strict-pma", action="store_true",
                   help="report PMA as the fraction of datasets where the "
                        "method attains the row maximum")
    b.add_argument("--threads", type=_positive_int, default=None)

    t = sub.add_parser("timing", help="time Gram computation over size sweeps")
    t.add_argument("--N-list", type=_int_list, default=[100, 200, 400])
    t.add_argument("--T-list", type=_int_list, default=[10, 20, 40])
    t.add_argument("--L-list", type=_int_list, default=[1, 2, 4])
    t.add_argument("--base-N", type=_positive_int, default=100)
    t.add_argument("--base-T", type=_positive_int, default=20)
    t.add_argument("--base-L", type=_positive_int, default=1)
    t.add_argument("--reps", type=_positive_int, default=3)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--threads", type=_positive_int, default=None)
    t.add_argument("--out", default=None, help="write CSV here instead of stdout")
    return parser


def cmd_gram(args) -> int:
    dataset = load_dataset(args.data)
    variant = Variant.parse(args.variant, args.order)
    sigma_v = args.sigma_v
    if sigma_v is None:
        sigma_v = sigma_v_for(variant, dataset.T)
    params = HyperParams(sigma_w=args.sigma_w, sigma_u=args.sigma_u,
                         sigma_b=args.sigma_b, sigma_v=sigma_v, depth_L=args.L)
    pair = gram(dataset.features, params, variant, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "binary":
        write_gram(out / "ck.gram", pair.ck, KIND_CK, variant)
        write_gram(out / "ntk.gram", pair.ntk, KIND_NTK, variant)
        names = "ck.gram, ntk.gram"
    else:
        write_gram_csv(out / "ck.csv", pair.ck)
        write_gram_csv(out / "ntk.csv", pair.ntk)
        names = "ck.csv, ntk.csv"
    print(f"wrote {names} to {out} ({dataset.n_points} points, T={dataset.T}, "
          f"variant={variant.label})")
    return 0


def cmd_verify(args) -> int:
    rows = []
    for T in args.T_list:
        for L in args.L_list:
            params = HyperParams(sigma_u=args.sigma_u, sigma_b=args.sigma_b,
                                 sigma_v=1.0, depth_L=L)
            rng = np.random.default_rng((args.seed, T, L, 1))
            x = rng.standard_normal(T)
            x /= np.linalg.norm(x)
            xp = rng.standard_normal(T)
            xp /= np.linalg.norm(xp)
            trial_ss = np.random.SeedSequence((args.seed, T, L))
            suite = empirical_suite(x, xp, params, width=args.width,
                                    trials=args.trials, seed=trial_ss)
            analytic = analytic_suite(x, xp, params)
            for (arch, kind), expected in analytic.items():
                est = suite[(arch, kind)]
                diff = est.mean - expected
                if est.stderr > 0:
                    z = diff / est.stderr
                else:
                    # every trial gave the same value: exact agreement or none
                    z = math.copysign(math.inf, diff) if diff != 0 else 0.0
                rows.append({
                    "variant": arch.value, "kind": kind, "L": L, "T": T,
                    "analytic": expected, "empirical_mean": est.mean,
                    "stderr": est.stderr, "z_score": z, "pass": bool(abs(z) <= 3.0),
                })
    all_pass = all(r["pass"] for r in rows)
    report = {"width": args.width, "trials": args.trials, "seed": args.seed,
              "rows": rows, "all_pass": all_pass}
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if not all_pass:
        failing = [f"{r['variant']}/{r['kind']} L={r['L']} T={r['T']} "
                   f"z={r['z_score']:.2f}" for r in rows if not r["pass"]]
        print("failing configurations: " + "; ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    data_dir = Path(args.data_dir)
    paths = sorted(data_dir.glob("*.csv"))
    if not paths:
        print(f"no CSV datasets found in {data_dir}", file=sys.stderr)
        return 1
    grid = HyperGrid()
    if args.methods is not None:
        wanted = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        try:
            grid = HyperGrid(methods=wanted)
        except ValueError as exc:
            print(f"--methods must list known methods, each method once: {exc}",
                  file=sys.stderr)
            return 2
    datasets = []
    splits_map = {}
    for p in paths:
        try:
            ds = load_dataset(p)
        except DatasetFormatError as exc:
            print(f"skipping {p.name}: {exc}", file=sys.stderr)
            continue
        sidecar = p.parent / f"{p.stem}.splits.json"
        if sidecar.exists():
            splits_map[ds.name] = load_splits(sidecar, ds.n_points)
        datasets.append(ds)
    if not datasets:
        print("all datasets failed to parse", file=sys.stderr)
        return 1
    report, results = run_suite(datasets, grid, splits_map=splits_map or None,
                                threads=args.threads, strict_pma=args.strict_pma)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_to_json(report, results) + "\n",
                                         encoding="utf-8")
    (out_dir / "aggregates.csv").write_text(aggregates_to_csv(report),
                                            encoding="utf-8")
    print(f"benchmarked {len(datasets)} datasets x {len(grid.methods)} methods; "
          f"reports in {out_dir}")
    return 0


def _time_gram(N, T, L, reps, seed, threads) -> float:
    rng = np.random.default_rng((seed, N, T, L))
    data = rng.standard_normal((N, T))
    params = HyperParams(depth_L=L)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        gram(data, params, Variant(Arch.RNN), threads=threads)
        times.append(time.perf_counter() - start)
    return float(np.mean(times))


def cmd_timing(args) -> int:
    lines = ["sweep,N,T,L,mean_seconds"]
    for N in args.N_list:
        secs = _time_gram(N, args.base_T, args.base_L, args.reps, args.seed,
                          args.threads)
        lines.append(f"N,{N},{args.base_T},{args.base_L},{secs:.6f}")
    for T in args.T_list:
        secs = _time_gram(args.base_N, T, args.base_L, args.reps, args.seed,
                          args.threads)
        lines.append(f"T,{args.base_N},{T},{args.base_L},{secs:.6f}")
    for L in args.L_list:
        secs = _time_gram(args.base_N, args.base_T, L, args.reps, args.seed,
                          args.threads)
        lines.append(f"L,{args.base_N},{args.base_T},{L},{secs:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gram": cmd_gram, "verify": cmd_verify,
                "bench": cmd_bench, "timing": cmd_timing}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"rntk {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
