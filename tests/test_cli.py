"""Command-line shell: run, sweep, analyze, eval."""
import argparse
import csv
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields

import pytest

import autoscale
from autoscale import (DivergenceError, TraceLine, cli, read_trace, run_fixed_scalarization,
                       sample_weight_sets, uniform_weights)
from autoscale.cli import RunConfig, execute_run, main

from helpers import write_trace_lines

QUAD = ["--problem", "quadratic", "--k", "2", "--dim", "3",
        "--scales", "1,2", "--seed", "0"]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


#: A small MLP run whose baselines are empirical, so they train in a worker.
MLP = ["--problem", "mlp", "--k", "3", "--width", "8", "--n-samples", "16",
       "--total-iters", "40", "--baseline-iters", "40"]

#: Makes the Nth process start of the interpreter fail as fork does when
#: the system is out of processes; N is filled in.
FAIL_START = """\
import errno, os
from multiprocessing.process import BaseProcess
start, starts = BaseProcess.start, []
def failing(self):
    starts.append(self)
    if len(starts) == {n}:
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    start(self)
BaseProcess.start = failing
"""


def _main_in_subprocess(*argvs, prelude=""):
    """Run ``prelude``, then ``main`` on each argv until one fails, in a new
    interpreter in a process group of its own; returns its exit code and
    standard error.  It must exit within the timeout and leave no process of
    its group alive."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(autoscale.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (f"{prelude}\nimport sys\nfrom autoscale.cli import main\n"
              f"for argv in {list(argvs)!r}:\n"
              "    rc = main(argv)\n"
              "    if rc:\n"
              "        sys.exit(rc)\n")
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the command did not exit within 30 s")
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return proc.returncode, err
        time.sleep(0.05)
    os.killpg(proc.pid, signal.SIGKILL)
    pytest.fail("a process of the command outlived it")


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
    with pytest.raises(ValueError, match="step_size must be finite, got '0.1'"):
        RunConfig(step_size="0.1")                   # a string, not a number
    with pytest.raises(ValueError, match=r"weights must be finite, got \[1, 10{400}\]"):
        RunConfig(weights=[1, 10 ** 400])            # past the double range
    with pytest.raises(ValueError, match="noise must be finite, got True"):
        RunConfig(noise=True)                        # a boolean, not a number


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


def _count_starts(monkeypatch) -> list:
    """Every process the executor's default context starts from now on."""
    started = []
    process = multiprocessing.get_context().Process
    start = process.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(process, "start", counted)
    return started


def test_only_empirical_baselines_of_a_joint_run_start_a_worker(monkeypatch):
    """One worker trains an MLP run's baselines; exact baselines and the
    single-task method start none.  No worker outlives its run."""
    started = _count_starts(monkeypatch)
    counts = []
    for argv in (["--method", "unitary", *MLP], ["--method", "stl", *MLP],
                 ["--method", "unitary", *QUAD, "--total-iters", "20"]):
        before = len(started)
        assert main(["run", *argv]) == 0
        counts.append(len(started) - before)
        assert multiprocessing.active_children() == []
    assert counts == [1, 0, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_mlp_run_stops_its_baseline_worker(tmp_path, capsys):
    """The run diverges while its worker still trains the baselines: exit 3
    with the divergence message, and the worker is gone."""
    flags = ["--method", "unitary", "--problem", "mlp", "--k", "3", "--step-size", "5",
             "--total-iters", "100"]
    problem = cli.build_problem(RunConfig(problem="mlp", k=3, step_size=5.0))
    with pytest.raises(DivergenceError) as diverged:
        run_fixed_scalarization(problem, uniform_weights(3), 100)
    start = time.monotonic()
    trace = tmp_path / "t.jsonl"
    rc = main(["run", *flags, "--baseline-iters", "1000000", "--trace", str(trace)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {diverged.value}\n"
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []
    assert not trace.exists()


def test_a_dead_baseline_worker_is_a_named_error(tmp_path, monkeypatch, capsys):
    """A baseline worker that exits without sending its results ends the run
    with exit 2 and a named error; the trace, written before the wait, stays."""
    monkeypatch.setattr(cli, "run_stl_baselines", lambda problem, iters: os._exit(1))
    trace, summary = tmp_path / "t.jsonl", tmp_path / "s.json"
    rc = main(["run", "--method", "unitary", *MLP, "--trace", str(trace),
               "--summary", str(summary)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: the baseline worker ended without sending its results (")
    assert multiprocessing.active_children() == []
    assert len(read_trace(trace)) == 40
    assert not summary.exists()


def test_an_mlp_run_that_cannot_start_its_worker_exits_2():
    code, err = _main_in_subprocess(["run", "--method", "unitary", *MLP],
                                    prelude=FAIL_START.format(n=1))
    assert code == 2
    assert err == "error: [Errno 11] Resource temporarily unavailable\n"


def test_spawned_workers_give_the_same_outputs(tmp_path):
    """An MLP run's summary and a --jobs 2 sweep, with workers started by
    ``spawn``, are byte-identical to the default start method's."""
    run = ["run", "--method", "autoscale", *MLP, "--window-size", "4",
           "--aggregation-size", "2", "--run-id", "r"]
    sweep = ["sweep", *QUAD, "--total-iters", "60", "--n", "5", "--write-traces"]
    for name in ("default", "spawn"):
        (tmp_path / name).mkdir()
    assert main([*run, "--summary", str(tmp_path / "default" / "r.json"),
                 "--trace", str(tmp_path / "default" / "r.jsonl")]) == 0
    assert main([*sweep, "--jobs", "1", "--out-dir", str(tmp_path / "default")]) == 0
    code, err = _main_in_subprocess(
        [*run, "--summary", str(tmp_path / "spawn" / "r.json"),
         "--trace", str(tmp_path / "spawn" / "r.jsonl")],
        [*sweep, "--jobs", "2", "--out-dir", str(tmp_path / "spawn")],
        prelude="import multiprocessing\nmultiprocessing.set_start_method('spawn')")
    assert (code, err) == (0, "")
    assert _outputs(tmp_path / "spawn") == _outputs(tmp_path / "default")
    assert len(_outputs(tmp_path / "default")) == 8


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


@pytest.mark.parametrize("key", ["weights", "scales", "offsets"])
def test_config_float_list_string_that_is_no_numbers_exits_2(tmp_path, capsys, key):
    data = {"method": "fixed", "weights": [1.0, 1.0, 1.0], "total_iters": 5, key: "1,x"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: config file {cfg_path}: {key!r} must be comma-separated numbers, "
        "got '1,x'\n")


def test_single_task_quadratic_exits_2(capsys):
    assert main(["run", "--problem", "quadratic", "--k", "1", "--scales", "1"]) == 2
    assert "error: weight vector needs at least 2 tasks" in capsys.readouterr().err


@pytest.mark.parametrize("key, flag, value", [
    ("step_size", "--step-size", "nan"),
    ("conflict_angle_deg", "--conflict-angle", "inf"),
    ("exploration_ratio", "--exploration-ratio", "nan"),
    ("noise", "--noise", "inf"),
    ("weights", "--weights", "1,nan"),
    ("scales", "--scales", "inf,1"),
    ("offsets", "--offsets", "1,nan"),
], ids=["step_size", "conflict_angle_deg", "exploration_ratio", "noise", "weights",
        "scales", "offsets"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_non_finite_setting_exits_2_before_training(tmp_path, capsys, monkeypatch,
                                                      form, key, flag, value):
    def no_training(cfg):
        raise AssertionError("a problem was built")
    monkeypatch.setattr(cli, "build_problem", no_training)
    data = {"method": "fixed", "problem": "quadratic", "k": 2, "weights": [1.0, 1.0],
            "total_iters": 5}
    parsed = [float(v) for v in value.split(",")]
    if form == "config":
        data[key] = parsed if key in ("weights", "scales", "offsets") else parsed[0]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")  # NaN, Infinity
    flags = [flag, value] if form == "flag" else []
    assert main(["run", "--config", str(cfg_path), *flags]) == 2
    assert f"error: {key} must be finite" in capsys.readouterr().err


_INT_SETTINGS = ("total_iters", "window_size", "aggregation_size", "snapshot_stride",
                 "baseline_iters", "k", "dim", "input_dim", "width", "n_samples")
_INT_FLAGS = dict(zip(_INT_SETTINGS, (
    "--total-iters", "--window-size", "--aggregation-size", "--stride", "--baseline-iters",
    "--k", "--dim", "--input-dim", "--width", "--n-samples")))


@pytest.mark.parametrize("key, form, value", [
    *((key, "config", value) for key in _INT_SETTINGS for value in ("7", 30.5, True, 0)),
    *((key, "flag", "0") for key in _INT_SETTINGS),
    ("seed", "config", True),
    ("seed", "config", 1e20),
])
def test_malformed_integer_setting_exits_2_before_training(tmp_path, capsys, monkeypatch,
                                                           key, form, value):
    def no_training(cfg):
        raise AssertionError("a problem was built")
    monkeypatch.setattr(cli, "build_problem", no_training)
    data = {"method": "fixed", "problem": "quadratic", "k": 2, "weights": [1.0, 1.0],
            "total_iters": 5}
    if form == "config":
        data[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    flags = [_INT_FLAGS[key], value] if form == "flag" else []
    assert main(["run", "--config", str(cfg_path), *flags]) == 2
    least = "" if key == "seed" else " >= 1"
    assert f"error: {key} must be an integer{least}, got" in capsys.readouterr().err


def _option_table(command: str) -> list:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings, a.dest, a.choices, a.type)
            for a in sub.choices[command]._actions]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_config_flags_mirror_the_run_config_fields(command):
    floats = cli._parse_float_list
    expected = [
        (["--config"], "config", None, None),
        (["--method"], "method", ("autoscale", "unitary", "fixed", "rlw", "stl"), None),
        (["--problem"], "problem", ("quadratic", "mlp", "reference"), None),
        (["--total-iters"], "total_iters", None, int),
        (["--seed"], "seed", None, int),
        (["--cost"], "cost_kind", ["equal-grad-norm", "equal-loss", "low-cond"], None),
        (["--exploration-ratio"], "exploration_ratio", None, float),
        (["--window-size"], "window_size", None, int),
        (["--aggregation-size"], "aggregation_size", None, int),
        (["--stride"], "snapshot_stride", None, int),
        (["--weights"], "weights", None, floats),
        (["--run-id"], "run_id", None, None),
        (["--baseline-iters"], "baseline_iters", None, int),
        (["--k"], "k", None, int),
        (["--dim"], "dim", None, int),
        (["--scales"], "scales", None, floats),
        (["--conflict-angle"], "conflict_angle_deg", None, float),
        (["--offsets"], "offsets", None, floats),
        (["--step-size"], "step_size", None, float),
        (["--input-dim"], "input_dim", None, int),
        (["--width"], "width", None, int),
        (["--n-samples"], "n_samples", None, int),
        (["--noise"], "noise", None, float),
    ]
    table = _option_table(command)
    assert table[0][1] == "help"
    assert table[1:1 + len(expected)] == expected
    assert [row[1] for row in expected[1:]] == [f.name for f in fields(RunConfig)]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_window_objective_past_the_float_range_is_divergence(capfd):
    """Every recorded value stays finite while the losses pass 1e191, but the
    window's quadratic form overflows: exit 3 naming the window, not a
    LAPACK failure."""
    rc = main(["run", "--method", "autoscale", "--problem", "mlp", "--k", "4",
               "--cost", "equal-loss", "--seed", "3", "--stride", "2",
               "--total-iters", "2500"])
    out, err = capfd.readouterr()
    assert rc == 3
    assert re.search(r"error: training diverged in window 4 \(iterations 200 to 249\): "
                     r"non-finite window objective; largest task loss \d\.\d+e\+191\n$", err)
    assert "DLASCL" not in out + err


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


@pytest.mark.parametrize("scales", ["0,0,0", "1,-1,2"])
def test_run_rejects_scales_that_are_not_positive(tmp_path, capsys, scales):
    rc = main(["run", "--method", "unitary", "--problem", "quadratic", "--k", "3",
               "--scales", scales, "--total-iters", "5", "--trace", str(tmp_path / "t.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err == "error: scales must be strictly positive\n"
    assert not (tmp_path / "t.jsonl").exists()


def test_run_config_file_with_zero_scales_exits_2(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"method": "unitary", "problem": "quadratic",
                                  "scales": [0, 0, 0], "total_iters": 5}), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: scales must be strictly positive\n"


@pytest.mark.parametrize("run_id", ["../escape", "a/b", "..", ".", "a\\b", "nul\0"])
def test_run_id_must_be_one_plain_file_name(tmp_path, capsys, run_id):
    with pytest.raises(ValueError, match="^run_id must be one plain file-name component, "
                                         f"got {re.escape(repr(run_id))}$"):
        RunConfig(method="unitary", run_id=run_id)
    trace = tmp_path / "t.jsonl"
    rc = main(["run", "--method", "unitary", *QUAD, "--total-iters", "5",
               "--run-id", run_id, "--trace", str(trace)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: run_id must be one plain file-name")
    assert not trace.exists()
    for fine in ("run-1", "sweep-000", "a.b", "..a", "é"):
        assert RunConfig(method="unitary", run_id=fine).resolved_run_id() == fine


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------

def _sweep(tmp_path, name, jobs="1", n="4", *flags):
    out_dir = tmp_path / name
    rc = main(["sweep", *QUAD, "--total-iters", "60", "--n", n,
               "--out-dir", str(out_dir), "--jobs", jobs, *flags])
    assert rc == 0
    return out_dir / "sweep_summary.csv"


def _outputs(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


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


def test_sweep_is_deterministic_and_job_count_invariant(tmp_path, monkeypatch):
    first = _sweep(tmp_path, "s1").read_bytes()
    second = _sweep(tmp_path, "s2").read_bytes()
    parallel = _sweep(tmp_path, "s3", jobs="2").read_bytes()
    assert first == second
    assert first == parallel
    # Five members: an uneven split over two workers, one worker per member,
    # and lockstep batches of two; summary and traces are byte-identical.
    want = _outputs(_sweep(tmp_path, "u1", "1", "5", "--write-traces").parent)
    assert len(want) == 6
    for jobs in ("2", "5000"):
        assert _outputs(_sweep(tmp_path, f"u{jobs}", jobs, "5", "--write-traces").parent) == want
    monkeypatch.setattr(cli, "_SWEEP_BATCH", 2)
    for jobs in ("1", "2"):
        assert _outputs(_sweep(tmp_path, f"b{jobs}", jobs, "5", "--write-traces").parent) == want


def test_sweep_starts_no_more_workers_than_members(tmp_path, monkeypatch):
    """--jobs J over N members starts min(J, N) worker processes, and none
    when that is one: the members then run in this process."""
    started = _count_starts(monkeypatch)
    counts = []
    for jobs, n in (("5000", "3"), ("2", "3"), ("1", "3")):
        before = len(started)
        assert main(["sweep", *QUAD, "--total-iters", "5", "--n", n,
                     "--out-dir", str(tmp_path / jobs), "--jobs", jobs]) == 0
        counts.append(len(started) - before)
    assert counts == [3, 2, 0]
    assert not any(worker.is_alive() for worker in started)


def test_a_dead_sweep_worker_is_a_named_error(tmp_path, monkeypatch, capsys):
    """A worker that exits without sending its batch's results ends the sweep
    with exit 2 and a named error, and no summary is written."""
    summary = cli._summary

    def dying(cfg, baselines, final_losses, run):
        if cfg.run_id == "sweep-002":
            os._exit(1)
        return summary(cfg, baselines, final_losses, run)

    monkeypatch.setattr(cli, "_summary", dying)
    out_dir = tmp_path / "sw"
    rc = main(["sweep", *QUAD, "--total-iters", "5", "--n", "4",
               "--out-dir", str(out_dir), "--jobs", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: a sweep worker ended without sending its results (")
    assert not (out_dir / "sweep_summary.csv").exists()


def test_a_sweep_that_cannot_start_a_worker_exits_2(tmp_path):
    """The second worker fails to start: the first one is stopped, the sweep
    exits 2 at once and writes no summary."""
    out_dir = tmp_path / "sw"
    code, err = _main_in_subprocess(
        ["sweep", *QUAD, "--total-iters", "50", "--n", "20", "--jobs", "2",
         "--out-dir", str(out_dir)], prelude=FAIL_START.format(n=2))
    assert code == 2
    assert err == "error: [Errno 11] Resource temporarily unavailable\n"
    assert not (out_dir / "sweep_summary.csv").exists()


def test_an_mlp_sweep_trains_its_baselines_once(tmp_path, monkeypatch):
    """The members share one set of baselines, computed before the batches;
    the outputs are the same at --jobs 1 and 2."""
    calls = []
    train = cli.run_stl_baselines

    def counted(problem, total_iters):
        calls.append(total_iters)
        return train(problem, total_iters)

    monkeypatch.setattr(cli, "run_stl_baselines", counted)
    argv = ["sweep", *MLP, "--n", "4", "--write-traces"]
    assert main([*argv, "--jobs", "1", "--out-dir", str(tmp_path / "1")]) == 0
    assert calls == [40]
    assert main([*argv, "--jobs", "2", "--out-dir", str(tmp_path / "2")]) == 0
    assert calls == [40, 40]
    assert _outputs(tmp_path / "1") == _outputs(tmp_path / "2")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_diverging_sweep_member_exits_3_with_the_first_member_error(tmp_path, capsys, jobs):
    """Members 0, 2 and 3 diverge, member 2 first in iterations; members 0-2
    share a batch, and with two workers member 3 runs in the other one."""
    flags = ["--problem", "quadratic", "--k", "3", "--dim", "4", "--scales", "1,2,3",
             "--step-size", "0.4", "--total-iters", "600", "--seed", "6"]
    out_dir = tmp_path / "sw"
    rc = main(["sweep", *flags, "--n", "6", "--out-dir", str(out_dir), "--jobs", jobs])
    assert rc == 3
    err = capsys.readouterr().err
    weights = sample_weight_sets(6, 3, seed=6)
    member = RunConfig(method="fixed", problem="quadratic", k=3, dim=4, scales=(1, 2, 3),
                       step_size=0.4, total_iters=600, seed=6, weights=weights[0].as_tuple())
    with pytest.raises(DivergenceError) as first:
        execute_run(member)
    assert "iteration 524" in str(first.value)
    assert err == f"error: {first.value}\n"
    assert not (out_dir / "sweep_summary.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_a_job_count_below_one(tmp_path, capsys, jobs):
    out_dir = tmp_path / "sw"
    rc = main(["sweep", *QUAD, "--total-iters", "5", "--n", "2",
               "--out-dir", str(out_dir), "--jobs", jobs])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --jobs must be an integer >= 1, got {jobs}\n"
    assert not out_dir.exists()


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


def test_analyze_rejects_traces_that_share_a_run_id(tmp_path, capsys):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", "--method", "unitary", *QUAD, "--total-iters", "10",
                 "--run-id", "run", "--trace", str(first)]) == 0
    assert main(["run", "--method", "unitary", "--problem", "mlp", "--k", "2",
                 "--total-iters", "12", "--baseline-iters", "3",
                 "--run-id", "run", "--trace", str(second)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "an"
    rc = main(["analyze", "--traces", str(first), str(second), "--out-dir", str(out_dir)])
    assert rc == 2
    assert (f"error: traces {first} and {second} share run id 'run'"
            in capsys.readouterr().err)
    assert list(out_dir.iterdir()) == []


_UNITARY_A = ["--method", "unitary", "--run-id", "a"]
_AUTOSCALE_A = ["--method", "autoscale", "--window-size", "2", "--aggregation-size", "1",
                "--run-id", "a"]


@pytest.mark.parametrize("first, second, field", [
    (_UNITARY_A, ["--method", "rlw", "--run-id", "b"], "run_id"),
    (_UNITARY_A, ["--method", "fixed", "--weights", "1,1", "--run-id", "a"], "method"),
    (_AUTOSCALE_A + ["--cost", "equal-loss"], _AUTOSCALE_A + ["--cost", "low-cond"],
     "cost_kind"),
    (_UNITARY_A, _UNITARY_A, "iter"),
], ids=["run-id", "method", "cost-kind", "iter"])
def test_analyze_rejects_a_trace_that_holds_more_than_one_run(tmp_path, capsys, first,
                                                             second, field):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for argv, path in zip((first, second), paths):
        assert main(["run", *argv, *QUAD, "--total-iters", "10", "--trace", str(path)]) == 0
    both = tmp_path / "c.jsonl"
    both.write_bytes(paths[0].read_bytes() + paths[1].read_bytes())
    capsys.readouterr()
    out_dir = tmp_path / "an"
    rc = main(["analyze", "--traces", str(both), "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: trace {both} holds more than one run: field {field!r} "
        + ("does not strictly increase\n" if field == "iter" else "changes\n"))
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-last"])
@pytest.mark.parametrize("fault", ["two-runs", "malformed-line"])
def test_analyze_writes_nothing_when_any_trace_is_bad(tmp_path, capsys, bad_first, fault):
    good, bad = tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    for path, run_id in ((good, "b"), (bad, "c")):
        assert main(["run", "--method", "unitary", *QUAD, "--total-iters", "10",
                     "--run-id", run_id, "--trace", str(path)]) == 0
    text = bad.read_text(encoding="utf-8")
    if fault == "two-runs":
        bad.write_text(text + text, encoding="utf-8")
        message = (f"error: trace {bad} holds more than one run: field 'iter' does not "
                   "strictly increase\n")
    else:
        lines = text.splitlines()
        lines[7] = '{"weights": "oops"}'
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = "error: line 8: missing field(s): " + _NOT_WEIGHTS + "\n"
    capsys.readouterr()
    out_dir = tmp_path / "an"
    traces = [bad, good] if bad_first else [good, bad]
    rc = main(["analyze", "--traces", *map(str, traces), "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == message
    assert list(out_dir.iterdir()) == []


def test_analyze_reports_a_deeply_nested_line_with_exit_2(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text("[" * 200_000 + "\n", encoding="utf-8")
    rc = main(["analyze", "--traces", str(trace), "--out-dir", str(tmp_path / "an")])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 1: invalid JSON (nested too deeply)\n"


def test_analyze_summary_without_delta_m_exits_2(tmp_path, capsys):
    summary = tmp_path / "sweep_summary.csv"
    summary.write_text("run_id,mean_cond\nsweep-000,1.5\n", encoding="utf-8")
    rc = main(["analyze", "--summary", str(summary), "--out-dir", str(tmp_path / "an")])
    assert rc == 2
    assert (f"error: summary file {summary} has no 'delta_m' column"
            in capsys.readouterr().err)


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


_NOT_WEIGHTS = ("run_id, method, cost_kind, seed, config_hash, iter, losses, grad_norms, "
                "gram_upper, gms_mean, gcs_mean, cond_number, ilr, ilr_std, ldr, rl, "
                "rl_std, degenerate_flags")


@pytest.mark.parametrize("field, raw, message", [
    (None, '{"weights": "oops"}', f"missing field(s): {_NOT_WEIGHTS}"),
    ("cond_number", "NaN", "field 'cond_number' must be finite and within the double range"),
    ("ilr_std", "1e999", "field 'ilr_std' must be finite and within the double range"),
    ("gram_upper", "[" + "9" * 400 + "]",
     "field 'gram_upper' must be finite and within the double range"),
    ("weights", "[1.0,true]", "field 'weights' must be an array of numbers"),
    ("zebra", "1", "unknown field(s): zebra"),
], ids=["missing", "nan", "inf", "huge-int", "true-in-floats", "unknown-field"])
def test_analyze_names_a_malformed_line_deep_in_a_trace(tmp_path, capsys, field, raw,
                                                         message):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--method", "unitary", *QUAD, "--total-iters", "200",
                 "--trace", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    if field is None:
        lines[129] = raw
    elif field == "zebra":
        lines[129] = lines[129][:-1] + f',"{field}":{raw}}}'
    else:
        lines[129] = re.sub(f'"{field}":(\\[[^]]*\\]|[^,]*)', f'"{field}":{raw}', lines[129])
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["analyze", "--traces", str(trace), "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: line 130: {message}\n"


@pytest.mark.parametrize("text, where", [
    ("run_id,delta_m,mean_cond\na,1.5,2\nb,abc,3\n", "row 2: column 'delta_m' "
     "must be a number, got 'abc'"),
    ("run_id,delta_m,mean_cond\na,1.5,2\nb,2.5,x\n", "row 2: column 'mean_cond' "
     "must be a number, got 'x'"),
    ("run_id,delta_m,mean_cond\na\n", "row 1: column 'delta_m' must be a number, got None"),
], ids=["delta_m", "metric", "short-row"])
def test_analyze_summary_cell_that_is_no_number_exits_2(tmp_path, capsys, text, where):
    summary = tmp_path / "sweep_summary.csv"
    summary.write_text(text, encoding="utf-8")
    rc = main(["analyze", "--summary", str(summary), "--out-dir", str(tmp_path / "an")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: summary file {summary}, {where}\n"


def test_analyze_smooth_is_a_trailing_mean(tmp_path):
    gms = (0.5, None, None, None, 0.25, 0.75, 1.0)
    lines = [TraceLine("s", "fixed", "", 0, "0" * 16, i, (1.0, 1.0), (1.0, 1.0),
                       (1.0, 1.0), (1.0, 0.0, 1.0), g, None, i + 1.0, (1.0, 1.0),
                       0.0, (1.0, 1.0), (0.5, 0.5), 0.0, ())
             for i, g in enumerate(gms)]
    trace = tmp_path / "s.jsonl"
    write_trace_lines(trace, lines)
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


@pytest.mark.parametrize("smooth", ["0", "-3"])
def test_analyze_rejects_a_smoothing_window_below_one(tmp_path, capsys, smooth):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--method", "unitary", *QUAD, "--total-iters", "5",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "an"
    rc = main(["analyze", "--traces", str(trace), "--smooth", smooth,
               "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --smooth must be an integer >= 1, got {smooth}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("run_id", ["../escape", "a/b", "..", "a\\b"])
def test_analyze_rejects_a_run_id_that_is_no_plain_file_name(tmp_path, capsys, run_id):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    for path, name in ((good, "good"), (bad, "placeholder")):
        assert main(["run", "--method", "unitary", *QUAD, "--total-iters", "5",
                     "--run-id", name, "--trace", str(path)]) == 0
    # Only a hand-edited trace can carry such an id: RunConfig refuses it.
    bad.write_text(bad.read_text(encoding="utf-8").replace(
        '"run_id":"placeholder"', '"run_id":' + json.dumps(run_id)), encoding="utf-8")
    capsys.readouterr()
    out_dir = tmp_path / "an" / "out"
    rc = main(["analyze", "--traces", str(good), str(bad), "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: trace {bad}: run id {run_id!r} is not one plain file-name component\n")
    assert list(out_dir.iterdir()) == []
    assert sorted(p.name for p in (tmp_path / "an").iterdir()) == ["out"]


_SUMMARY_HEADER = "run_id,delta_m,mean_gms,mean_gcs,mean_cond,mean_ilr_std,mean_rl_std\n"


@pytest.mark.parametrize("cond, why", [
    (("2.0", "2.0"), "spearman correlation undefined for constant input"),
    (("2.0", "nan"), "observations must be finite"),
    (("inf", "2.0"), "observations must be finite"),
])
def test_analyze_summary_writes_na_for_an_undefined_correlation(tmp_path, capsys, cond, why):
    summary = tmp_path / "sweep_summary.csv"
    summary.write_text(_SUMMARY_HEADER + f"a,1.0,0.5,0.1,{cond[0]},0.1,0.3\n"
                       f"b,2.0,0.6,0.2,{cond[1]},0.2,0.1\n", encoding="utf-8")
    rc = main(["analyze", "--summary", str(summary), "--out-dir", str(tmp_path / "an")])
    assert rc == 0
    out, err = capsys.readouterr()
    assert err == (f"analyze: warning: summary file {summary}: no correlation for "
                   f"'mean_cond' ({why}); writing n/a\n")
    assert "  mean_cond: n/a" in out.splitlines()
    assert _read_csv(tmp_path / "an" / "correlations.csv") == [
        ["metric", "spearman_rho_vs_delta_m"], ["mean_gms", "1.0"], ["mean_gcs", "1.0"],
        ["mean_cond", ""], ["mean_ilr_std", "1.0"], ["mean_rl_std", "-1.0"]]


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


@pytest.mark.parametrize("overrides, names", [
    ({"baselines": [10 ** 400, 2.0]}, "'baselines' must be an array of finite numbers"),
    ({"baselines": [None, 2.0]}, "'baselines' must be an array of finite numbers"),
    ({"baselines": [True, 2.0]}, "'baselines' must be an array of finite numbers"),
    ({"higher_is_better": ["false", False]},
     "'higher_is_better' must be an array of booleans, one per baseline (2)"),
    ({"higher_is_better": [False]},
     "'higher_is_better' must be an array of booleans, one per baseline (2)"),
    ({"baselines": [1.0]},
     "'higher_is_better' must be an array of booleans, one per baseline (1)"),
    ({"baselines": [1.0], "higher_is_better": [False]},
     "method 'balanced' must be an array of finite numbers, one per baseline (1)"),
    ({"methods": {"balanced": [math.nan, 1.8]}},
     "method 'balanced' must be an array of finite numbers, one per baseline (2)"),
    ({"methods": {"balanced": [1.1, "1.8"]}},
     "method 'balanced' must be an array of finite numbers, one per baseline (2)"),
], ids=["huge-int-baseline", "null-baseline", "bool-baseline", "string-orientation",
        "short-orientation", "short-baselines", "short-baselines-and-orientation",
        "nan-score", "string-score"])
def test_eval_rejects_malformed_scores_with_exit_2(tmp_path, capsys, overrides, names):
    rc = main(["eval", "--scores", str(_score_file(tmp_path, **overrides))])
    assert rc == 2
    assert f"error: score file {names}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", '"scores"', "[1.0, 2.0]", "null"],
                         ids=["number", "string", "array", "null"])
def test_eval_rejects_a_score_file_that_is_not_an_object(tmp_path, capsys, text):
    path = tmp_path / "scores.json"
    path.write_text(text, encoding="utf-8")
    assert main(["eval", "--scores", str(path)]) == 2
    assert "error: score file must hold a JSON object" in capsys.readouterr().err
