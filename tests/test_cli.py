import json

import numpy as np
import pytest

from rntk import Arch, HyperParams, KernelEstimate, Variant, analytic_suite, cli, gram
from rntk.cli import main
from rntk.gram_io import read_gram


def write_dataset(path, seed, n=16, T=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, T))
    labels = np.arange(n) % 2
    X += labels[:, None] * 1.2
    lines = [",".join(f"{v:.8g}" for v in row) + f",{lab}"
             for row, lab in zip(X, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return X, labels


def test_gram_command_writes_binary_pair(tmp_path):
    data = tmp_path / "d.csv"
    X, _ = write_dataset(data, seed=1)
    out = tmp_path / "g"
    code = main(["gram", "--data", str(data), "--out", str(out),
                 "--variant", "rnn", "--L", "1", "--sigma-u", "0.5",
                 "--sigma-b", "0.1", "--sigma-v", "1.0"])
    assert code == 0
    ck, kind_ck, _ = read_gram(out / "ck.gram")
    ntk, kind_ntk, _ = read_gram(out / "ntk.gram")
    assert kind_ck == 0 and kind_ntk == 1
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=1.0, depth_L=1)
    direct = gram(np.loadtxt(data, delimiter=",")[:, :-1], params, Variant())
    assert np.array_equal(ck, direct.ck)
    assert np.array_equal(ntk, direct.ntk)


def test_gram_command_deterministic(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gram", "--data", str(data), "--out", str(out1)]) == 0
    assert main(["gram", "--data", str(data), "--out", str(out2)]) == 0
    assert (out1 / "ck.gram").read_bytes() == (out2 / "ck.gram").read_bytes()
    assert (out1 / "ntk.gram").read_bytes() == (out2 / "ntk.gram").read_bytes()


def test_gram_command_bi_flip_invariant(tmp_path):
    data = tmp_path / "d.csv"
    X, labels = write_dataset(data, seed=3)
    flipped = tmp_path / "f.csv"
    lines = [",".join(f"{v:.8g}" for v in row[::-1]) + f",{lab}"
             for row, lab in zip(X, labels)]
    flipped.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gram", "--data", str(data), "--out", str(out1),
                 "--variant", "bi-rnn"]) == 0
    assert main(["gram", "--data", str(flipped), "--out", str(out2),
                 "--variant", "bi-rnn"]) == 0
    assert (out1 / "ck.gram").read_bytes() == (out2 / "ck.gram").read_bytes()
    assert (out1 / "ntk.gram").read_bytes() == (out2 / "ntk.gram").read_bytes()


def test_gram_command_csv_format(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=4, n=6)
    out = tmp_path / "g"
    assert main(["gram", "--data", str(data), "--out", str(out),
                 "--format", "csv"]) == 0
    ck = np.loadtxt(out / "ck.csv", delimiter=",")
    assert ck.shape == (6, 6)
    assert np.array_equal(ck, ck.T)


def test_gram_command_missing_file(tmp_path, capsys):
    code = main(["gram", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "g")])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--data", "d.csv", "--out", "g", "--variant", "mlp"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--data", "d.csv", "--out", "g", "--tile-pairs", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_command_small_run(tmp_path):
    report_path = tmp_path / "report.json"
    args = ["verify", "--width", "200", "--trials", "60", "--seed", "7",
            "--L-list", "1", "--T-list", "2", "--out", str(report_path)]
    code = main(args)
    report = json.loads(report_path.read_text())
    assert report["width"] == 200 and report["trials"] == 60
    assert len(report["rows"]) == 8
    for row in report["rows"]:
        assert set(row) == {"variant", "kind", "L", "T", "analytic",
                            "empirical_mean", "stderr", "z_score", "pass"}
        assert row["stderr"] > 0
    assert code == (0 if report["all_pass"] else 1)
    assert report["all_pass"], [r["z_score"] for r in report["rows"]]

    second = tmp_path / "again.json"
    main(["verify", "--width", "200", "--trials", "60", "--seed", "7",
          "--L-list", "1", "--T-list", "2", "--out", str(second)])
    assert report_path.read_text() == second.read_text()


def test_verify_fails_a_zero_variance_row_off_the_analytic_value(
        tmp_path, monkeypatch, capsys):
    # at tiny widths every sampled output can be 0: stderr 0 passes only
    # a mean equal to the analytic value
    exact = (Arch.RNN, "ck")

    def constant_suite(x, xp, params, width, trials, seed):
        analytic = analytic_suite(x, xp, params)
        return {key: KernelEstimate(mean=value if key == exact else 0.0, stderr=0.0,
                                    trials=trials, width=width)
                for key, value in analytic.items()}

    monkeypatch.setattr(cli, "empirical_suite", constant_suite)
    out = tmp_path / "r.json"
    code = main(["verify", "--width", "2", "--trials", "5", "--L-list", "1",
                 "--T-list", "2", "--out", str(out)])
    assert code == 1
    assert "inf" in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    for row in rows:
        if (row["variant"], row["kind"]) == ("rnn", "ck"):
            assert row["pass"] and row["z_score"] == 0.0
        else:
            assert not row["pass"] and abs(row["z_score"]) == float("inf")


def test_verify_width_convergence(tmp_path, capsys):
    # matched seeds: a narrow network deviates more from the analytic
    # kernels, in aggregate, than a wide one
    devs = {}
    for width in (16, 640):
        out = tmp_path / f"w{width}.json"
        main(["verify", "--width", str(width), "--trials", "300", "--seed", "0",
              "--L-list", "1,2", "--T-list", "3", "--out", str(out)])
        rows = json.loads(out.read_text())["rows"]
        devs[width] = np.mean([abs(r["empirical_mean"] - r["analytic"])
                               for r in rows])
    capsys.readouterr()
    assert devs[16] > devs[640]


def test_bench_command(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_dataset(data_dir / "one.csv", seed=11)
    write_dataset(data_dir / "two.csv", seed=12)
    (data_dir / "broken.csv").write_text("1.0,2.0,0\n1.0,1\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["bench", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
                 "--methods", "rnn,rbf", "--threads", "1"])
    err = capsys.readouterr().err
    assert code == 0
    assert "broken" in err
    report = json.loads((out_dir / "report.json").read_text())
    assert report["methods"] == ["rnn", "rbf"]
    assert report["datasets"] == ["one", "two"]
    agg = (out_dir / "aggregates.csv").read_text().strip().split("\n")
    assert agg[0] == "method,acc_mean,acc_std,p95,pma,friedman_rank"
    assert len(agg) == 3


def test_bench_command_failures(tmp_path, capsys, monkeypatch):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--data-dir", str(empty),
                 "--out-dir", str(tmp_path / "o")]) == 1
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_dataset(data_dir / "one.csv", seed=13)
    assert main(["bench", "--data-dir", str(data_dir),
                 "--out-dir", str(tmp_path / "o2"),
                 "--methods", "rnn,bogus"]) == 2

    def no_loading(path):
        raise AssertionError(f"loaded {path} despite a usage error")

    with monkeypatch.context() as m:
        m.setattr(cli, "load_dataset", no_loading)
        for methods in (",", "", "rbf,rbf", "rnn, rbf,rnn", "rnn,bogus"):
            assert main(["bench", "--data-dir", str(data_dir),
                         "--out-dir", str(tmp_path / "o4"),
                         "--methods", methods]) == 2, methods
            assert "each method once" in capsys.readouterr().err
    assert not (tmp_path / "o4").exists()
    (data_dir / "one.csv").write_text("junk\n", encoding="utf-8")
    assert main(["bench", "--data-dir", str(data_dir),
                 "--out-dir", str(tmp_path / "o3")]) == 1
    capsys.readouterr()


def test_bench_command_sidecar_splits(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_dataset(data_dir / "one.csv", seed=14)
    folds = [f.tolist() for f in np.array_split(np.arange(16), 4)]
    sidecar = {"validation_half": list(range(8)), "folds": folds}
    (data_dir / "one.splits.json").write_text(json.dumps(sidecar), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["--methods", "rbf", "--threads", "1"]
    assert main(["bench", "--data-dir", str(data_dir), "--out-dir", str(out_a)]
                + args) == 0
    assert main(["bench", "--data-dir", str(data_dir), "--out-dir", str(out_b)]
                + args) == 0
    assert (out_a / "report.json").read_text() == (out_b / "report.json").read_text()


def test_bench_command_bad_sidecar_exits_one(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_dataset(data_dir / "one.csv", seed=15)
    sidecar = data_dir / "one.splits.json"
    sidecar.write_text(json.dumps({"validation_half": list(range(8))}),
                       encoding="utf-8")
    assert main(["bench", "--data-dir", str(data_dir),
                 "--out-dir", str(tmp_path / "o"), "--methods", "rbf"]) == 1
    err = capsys.readouterr().err
    assert "one.splits.json" in err and "'folds'" in err


def test_timing_command(tmp_path):
    out = tmp_path / "times.csv"
    code = main(["timing", "--N-list", "30,60", "--T-list", "4", "--L-list", "1",
                 "--base-N", "30", "--base-T", "4", "--reps", "1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "sweep,N,T,L,mean_seconds"
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[-1]) > 0.0


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
