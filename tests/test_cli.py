"""Command-line shell: run, sweep, analyze, eval."""
import csv
import json
import math
import re

import pytest

from autoscale import TraceLine, cli, read_trace, write_trace
from autoscale.cli import RunConfig, main


QUAD = ["--problem", "quadratic", "--k", "2", "--dim", "3",
        "--scales", "1,2", "--seed", "0"]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_run_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        RunConfig(method="sgd")
    with pytest.raises(ValueError, match="unknown problem"):
        RunConfig(problem="cifar")
    with pytest.raises(ValueError, match="unknown cost kind"):
        RunConfig(cost_kind="entropy")
    with pytest.raises(ValueError, match="needs explicit weights"):
        RunConfig(method="fixed")
    with pytest.raises(ValueError):
        RunConfig(total_iters=0)
    with pytest.raises(ValueError, match="unknown config key\\(s\\): lr, momentum"):
        RunConfig.from_dict({"lr": 0.1, "momentum": 0.9})


def test_semantic_hash_ignores_run_id():
    a = RunConfig(method="unitary", run_id="left")
    b = RunConfig(method="unitary", run_id="right")
    c = RunConfig(method="unitary", seed=1, run_id="left")
    assert a.semantic_hash() == b.semantic_hash()
    assert a.semantic_hash() != c.semantic_hash()


def test_resolved_run_id():
    named = RunConfig(method="unitary", run_id="my-run")
    assert named.resolved_run_id() == "my-run"
    derived = RunConfig(method="unitary")
    assert re.fullmatch(r"unitary-[0-9a-f]{8}", derived.resolved_run_id())


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

def test_run_unitary_writes_trace_and_summary(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    summary = tmp_path / "run.json"
    rc = main(["run", "--method", "unitary", *QUAD,
               "--total-iters", "120",
               "--trace", str(trace), "--summary", str(summary)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta_m=" in out

    lines = read_trace(trace)
    assert len(lines) == 120
    assert all(l.weights == (1.0, 1.0) for l in lines)
    assert all(l.method == "unitary" for l in lines)
    assert all(l.cost_kind == "" for l in lines)      # not an adaptive run
    assert [l.iter for l in lines] == list(range(120))

    data = json.loads(summary.read_text(encoding="utf-8"))
    assert data["method"] == "unitary"
    assert data["baseline_mode"] == "exact"
    assert len(data["final_losses"]) == 2
    assert data["final_weights"] == [1.0, 1.0]
    assert set(["mean_gms", "mean_gcs", "mean_cond"]).issubset(data)


def test_run_autoscale_adapts_weights(tmp_path):
    trace = tmp_path / "auto.jsonl"
    rc = main(["run", "--method", "autoscale", *QUAD,
               "--total-iters", "500", "--window-size", "50",
               "--aggregation-size", "2", "--cost", "equal-grad-norm",
               "--trace", str(trace)])
    assert rc == 0
    lines = read_trace(trace)
    assert len(lines) == 500
    assert lines[0].weights == (1.0, 1.0)
    assert lines[-1].weights != (1.0, 1.0)            # a solve happened
    assert all(l.cost_kind == "equal-grad-norm" for l in lines)


def test_run_fixed_and_rlw(tmp_path):
    s_fixed = tmp_path / "fixed.json"
    rc = main(["run", "--method", "fixed", *QUAD, "--weights", "0.5,1.5",
               "--total-iters", "80", "--summary", str(s_fixed)])
    assert rc == 0
    assert json.loads(s_fixed.read_text())["final_weights"] == [0.5, 1.5]

    trace = tmp_path / "rlw.jsonl"
    rc = main(["run", "--method", "rlw", *QUAD, "--total-iters", "60",
               "--trace", str(trace)])
    assert rc == 0
    lines = read_trace(trace)
    assert len({l.weights for l in lines}) > 1        # weights resample


def test_run_stl_skips_trace(tmp_path, capsys):
    trace = tmp_path / "stl.jsonl"
    summary = tmp_path / "stl.json"
    rc = main(["run", "--method", "stl", *QUAD, "--total-iters", "120",
               "--trace", str(trace), "--summary", str(summary)])
    assert rc == 0
    assert "trace: skipped" in capsys.readouterr().out
    assert not trace.exists()
    data = json.loads(summary.read_text())
    assert data["final_weights"] is None
    # single-task training reaches the exact optima on quadratics
    assert data["delta_m"] == pytest.approx(0.0, abs=1e-4)


def test_run_stl_trains_the_baselines_once(monkeypatch, capsys):
    calls = []
    train = cli.run_stl_baselines

    def counted(problem, total_iters):
        calls.append(total_iters)
        return train(problem, total_iters)

    monkeypatch.setattr(cli, "run_stl_baselines", counted)
    assert main(["run", "--method", "stl", "--problem", "mlp", "--k", "3",
                 "--total-iters", "50"]) == 0
    assert calls == [50]
    assert "delta_m=0.0000%" in capsys.readouterr().out


def test_run_mlp_uses_stl_baselines(tmp_path):
    summary = tmp_path / "mlp.json"
    rc = main(["run", "--method", "unitary", "--problem", "mlp",
               "--k", "2", "--width", "8", "--n-samples", "16",
               "--total-iters", "40", "--baseline-iters", "40",
               "--summary", str(summary)])
    assert rc == 0
    assert json.loads(summary.read_text())["baseline_mode"] == "stl"


def test_run_traces_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["run", "--method", "autoscale", *QUAD, "--total-iters", "200",
            "--window-size", "20", "--aggregation-size", "2",
            "--run-id", "twin"]
    assert main(argv + ["--trace", str(a)]) == 0
    assert main(argv + ["--trace", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "method": "fixed", "problem": "quadratic", "k": 2, "dim": 3,
        "scales": [1.0, 2.0], "weights": [1.0, 1.0], "total_iters": 50,
    }), encoding="utf-8")
    summary = tmp_path / "s.json"
    rc = main(["run", "--config", str(cfg_path), "--weights", "0.5,1.5",
               "--summary", str(summary)])
    assert rc == 0
    assert json.loads(summary.read_text())["final_weights"] == [0.5, 1.5]


def test_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"learning_rate": 0.1}), encoding="utf-8")
    rc = main(["run", "--config", str(cfg_path), "--method", "unitary"])
    assert rc == 2
    assert "error: unknown config key(s): learning_rate" in capsys.readouterr().err
    rc = main(["run", "--method", "fixed", *QUAD, "--total-iters", "10"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_single_task_quadratic_exits_2(capsys):
    assert main(["run", "--problem", "quadratic", "--k", "1", "--scales", "1"]) == 2
    assert "error: weight vector needs at least 2 tasks" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_names_the_iteration(capsys):
    rc = main(["run", "--method", "fixed", "--problem", "quadratic", "--k", "3",
               "--weights", "1,1,1", "--step-size", "50"])
    assert rc == 3
    assert re.search(r"error: training diverged at iteration (\d+): non-finite task "
                     r"losses or gradients; last finite losses \[[^]]+\] at iteration "
                     r"\d+; weights \[1\.0, 1\.0, 1\.0\]", capsys.readouterr().err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_leaves_no_trace(tmp_path):
    trace = tmp_path / "t.jsonl"
    rc = main(["run", "--method", "fixed", "--problem", "quadratic", "--k", "3",
               "--weights", "1,1,1", "--step-size", "50", "--trace", str(trace)])
    assert rc == 3
    assert not trace.exists()


def test_losses_past_the_square_overflow_give_a_complete_trace(tmp_path):
    """Losses pass 1e154 at iteration 52 and stay finite: every line is kept
    and re-parses with a finite spread."""
    trace = tmp_path / "f.jsonl"
    rc = main(["run", "--method", "fixed", "--problem", "quadratic", "--k", "3",
               "--weights", "1,1,1", "--step-size", "50", "--total-iters", "60",
               "--trace", str(trace)])
    assert rc == 0
    lines = read_trace(trace)
    assert len(lines) == 60
    assert max(lines[52].losses) > 1e154
    assert all(math.isfinite(line.ilr_std) for line in lines)


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------

def _sweep(tmp_path, name, jobs="1"):
    out_dir = tmp_path / name
    rc = main(["sweep", *QUAD, "--total-iters", "60", "--n", "4",
               "--out-dir", str(out_dir), "--jobs", jobs])
    assert rc == 0
    return out_dir / "sweep_summary.csv"


def test_sweep_writes_summary_csv(tmp_path, capsys):
    csv_path = _sweep(tmp_path, "sw")
    out = capsys.readouterr().out
    assert "sweep: 4 runs" in out
    assert "best: sweep-" in out
    rows = _read_csv(csv_path)
    assert rows[0][:5] == ["run_id", "weight_0", "weight_1", "delta_m",
                           "delta_m_deg"]
    assert len(rows) == 5
    assert [r[0] for r in rows[1:]] == [f"sweep-{i:03d}" for i in range(4)]
    for r in rows[1:]:
        assert float(r[1]) + float(r[2]) == pytest.approx(2.0, abs=1e-9)


def test_sweep_is_deterministic_and_job_count_invariant(tmp_path):
    first = _sweep(tmp_path, "s1").read_bytes()
    second = _sweep(tmp_path, "s2").read_bytes()
    parallel = _sweep(tmp_path, "s3", jobs="2").read_bytes()
    assert first == second
    assert first == parallel


# ---------------------------------------------------------------------------
# analyze subcommand
# ---------------------------------------------------------------------------

def test_analyze_traces_and_correlations(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--method", "unitary", *QUAD, "--total-iters", "50",
                 "--run-id", "probe", "--trace", str(trace)]) == 0
    sweep_csv = _sweep(tmp_path, "sw")
    capsys.readouterr()

    out_dir = tmp_path / "an"
    rc = main(["analyze", "--traces", str(trace),
               "--summary", str(sweep_csv), "--out-dir", str(out_dir)])
    assert rc == 0

    traj = _read_csv(out_dir / "probe_trajectory.csv")
    assert traj[0] == ["iter", "gms_mean", "gcs_mean", "cond_number",
                       "ilr_std", "rl_std"]
    assert len(traj) == 51

    agg = _read_csv(out_dir / "aggregates.csv")
    assert agg[0][:4] == ["run_id", "method", "cost_kind", "iters"]
    assert agg[1][0] == "probe" and agg[1][3] == "50"

    corr = _read_csv(out_dir / "correlations.csv")
    assert corr[0] == ["metric", "spearman_rho_vs_delta_m"]
    assert [r[0] for r in corr[1:]] == ["mean_gms", "mean_gcs", "mean_cond",
                                        "mean_ilr_std", "mean_rl_std"]
    for r in corr[1:]:
        assert -1.0 <= float(r[1]) <= 1.0


def test_analyze_requires_some_input(tmp_path, capsys):
    rc = main(["analyze", "--out-dir", str(tmp_path / "empty")])
    assert rc == 1
    assert "nothing to do" in capsys.readouterr().err


def test_analyze_corrupt_trace_names_the_line(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--method", "unitary", *QUAD, "--total-iters", "10",
                 "--trace", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    lines[4] = '{"weights": "oops"}'
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["analyze", "--traces", str(trace), "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "error: line 5:" in capsys.readouterr().err


@pytest.mark.parametrize("field, raw", [
    ("cond_number", "NaN"),
    ("ilr_std", "1e999"),
    ("gram_upper", "[" + "9" * 400 + "]"),
], ids=["nan", "inf", "huge-int"])
def test_analyze_exits_2_on_a_number_no_double_holds(tmp_path, capsys, field, raw):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--method", "unitary", *QUAD, "--total-iters", "5",
                 "--trace", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    lines[2] = re.sub(f'"{field}":(\\[[^]]*\\]|[^,]*)', f'"{field}":{raw}', lines[2])
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["analyze", "--traces", str(trace), "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert f"error: line 3: field '{field}' must be finite" in capsys.readouterr().err


def test_analyze_smooth_is_a_trailing_mean(tmp_path):
    gms = (0.5, None, None, None, 0.25, 0.75, 1.0)
    lines = [TraceLine("s", "fixed", "", 0, "0" * 16, i, (1.0, 1.0), (1.0, 1.0),
                       (1.0, 1.0), (1.0, 0.0, 1.0), g, None, i + 1.0, (1.0, 1.0),
                       0.0, (1.0, 1.0), (0.5, 0.5), 0.0, ())
             for i, g in enumerate(gms)]
    trace = tmp_path / "s.jsonl"
    write_trace(trace, lines)
    assert main(["analyze", "--traces", str(trace), "--smooth", "3",
                 "--out-dir", str(tmp_path / "an")]) == 0
    # Trailing means over the last three iterations, skipping nulls; a
    # window of nulls only stays null.
    assert _read_csv(tmp_path / "an" / "s_trajectory.csv") == [
        ["iter", "gms_mean", "gcs_mean", "cond_number", "ilr_std", "rl_std"],
        ["0", "0.5", "", "1.0", "0.0", "0.0"],
        ["1", "0.5", "", "1.5", "0.0", "0.0"],
        ["2", "0.5", "", "2.0", "0.0", "0.0"],
        ["3", "", "", "3.0", "0.0", "0.0"],
        ["4", "0.25", "", "4.0", "0.0", "0.0"],
        ["5", "0.5", "", "5.0", "0.0", "0.0"],
        ["6", repr(2.0 / 3.0), "", "6.0", "0.0", "0.0"],
    ]


# ---------------------------------------------------------------------------
# eval subcommand
# ---------------------------------------------------------------------------

def _score_file(tmp_path, **overrides):
    data = {
        "baselines": [1.0, 2.0],
        "higher_is_better": [False, False],
        "methods": {"balanced": [1.1, 1.8], "baseline-ish": [1.0, 2.0]},
    }
    data.update(overrides)
    path = tmp_path / "scores.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_eval_prints_table_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["eval", "--scores", str(_score_file(tmp_path)),
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "method" in text and "balanced" in text

    rows = _read_csv(out)
    assert rows[0] == ["method", "delta_m", "delta_m_deg", "mean_rank"]
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["balanced"][1]) == pytest.approx(0.0, abs=1e-12)
    assert float(by_name["balanced"][2]) == pytest.approx(10.0, abs=1e-12)
    assert float(by_name["balanced"][3]) == 1.5
    assert float(by_name["baseline-ish"][1]) == 0.0


def test_eval_missing_key_exits_1(tmp_path, capsys):
    path = _score_file(tmp_path)
    data = json.loads(path.read_text())
    del data["methods"]
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["eval", "--scores", str(path)])
    assert rc == 1
    assert "missing key 'methods'" in capsys.readouterr().err
