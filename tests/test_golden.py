"""Golden digests: byte-level pins of trace and summary output.

Each case runs one ``autoscale run`` command in-process and compares the
SHA-256 of the trace (JSONL) and of the summary (JSON) it writes against a
digest recorded before any change to the numerical path.  The matrix covers
every window-cost kind on the reference problem, stride > 1, fixed and
random-loss weighting, the MLP family at K=3 and K=8, single-task baselines
(``stl``, which writes a summary and no trace), and a K=6 quadratic
problem (from K=4 on, the order of the floating-point sums that build the
quadratic form shows in the last bits of the chosen weights; the 28 task
pairs of K=8 take numpy's pairwise summation path in the pair means).  A refactor
that claims "same outputs" must leave every digest unchanged; a change
that moves results on purpose re-pins them here and says why.

The analyze cases pin the CSVs ``autoscale analyze`` writes: one sweep's
trajectory, aggregate and correlation tables, and one ``--smooth 3`` run.
The ``mlp`` sweep case pins a sweep's summary and every member's trace on
the MLP family, whose members descend in lockstep on (R, D) parameters.

Digests were recorded with numpy 2.4.6 (OpenBLAS 0.3.31), Python 3.11, x86-64.
Another numpy or BLAS build may round differently and produce other digests.
"""
import hashlib

import pytest

from autoscale import cli

_AUTOSCALE = ("--method", "autoscale", "--problem", "reference",
              "--exploration-ratio", "0.4", "--aggregation-size", "2")

CASES = {
    "ref-equal-grad-norm": (
        *_AUTOSCALE, "--cost", "equal-grad-norm", "--total-iters", "500",
        "--window-size", "50", "--seed", "3"),
    "ref-equal-loss": (
        *_AUTOSCALE, "--cost", "equal-loss", "--total-iters", "500",
        "--window-size", "50", "--seed", "4"),
    "ref-low-cond": (
        *_AUTOSCALE, "--cost", "low-cond", "--total-iters", "125",
        "--window-size", "25", "--seed", "5"),
    "ref-low-cond-stride2": (
        *_AUTOSCALE, "--cost", "low-cond", "--total-iters", "250",
        "--window-size", "50", "--stride", "2", "--seed", "6"),
    "ref-fixed": (
        "--method", "fixed", "--problem", "reference", "--weights", "0.5,1.0,1.5",
        "--total-iters", "300", "--seed", "7"),
    "ref-rlw": (
        "--method", "rlw", "--problem", "reference", "--total-iters", "300",
        "--seed", "8"),
    "mlp-k3": (
        "--method", "autoscale", "--problem", "mlp", "--k", "3",
        "--cost", "equal-grad-norm", "--total-iters", "300",
        "--exploration-ratio", "0.5", "--window-size", "50",
        "--aggregation-size", "2", "--baseline-iters", "100", "--seed", "9"),
    "mlp-k8": (
        "--method", "autoscale", "--problem", "mlp", "--k", "8",
        "--cost", "equal-grad-norm", "--total-iters", "200",
        "--exploration-ratio", "0.5", "--window-size", "50",
        "--aggregation-size", "2", "--baseline-iters", "20",
        "--step-size", "0.05", "--seed", "11"),
    "mlp-k3-stl": (
        "--method", "stl", "--problem", "mlp", "--k", "3", "--total-iters", "50",
        "--seed", "12"),
    "quadratic-k6": (
        "--method", "autoscale", "--problem", "quadratic", "--k", "6",
        "--scales", "1,2.5,4,0.5,3,1.7", "--conflict-angle", "70",
        "--cost", "equal-loss", "--total-iters", "400",
        "--exploration-ratio", "0.5", "--window-size", "50",
        "--aggregation-size", "3", "--seed", "10"),
}

#: case -> (trace sha256, summary sha256); None where the run writes no trace
DIGESTS = {
    "mlp-k3": (
        "4f1eaea64ff68cc470aedff3012ffb219c6052be9f2ff81fbccde7f175499564",
        "b92c8136a0d393340fef91378d800666fe402ac433733eb9ec283aaa71141f8e"),
    "mlp-k8": (
        "f865bd216c8d09d7494b80e375032bbd0d0a7eea7af4a43313a71b6155bf63de",
        "3cdf04ded43bbc04bf8f4a57d605beea9d12f3c5a77e16db06361f0d04f460b4"),
    "mlp-k3-stl": (
        None,
        "5c198ab554e451887652b055f28bb6a8a40da5c6792278027381ab3523e2b0fb"),
    "quadratic-k6": (
        "c9312a37a01b1f1e1fd672e24fcf8409b94e1e5878955ef401bff67f0117bc4f",
        "b89b4afa6d790d7c34e662286bb6a02bb7251dede7abc76ae979f333011ab1a7"),
    "ref-equal-grad-norm": (
        "ed6933b697576ad6685a91b5cba6205e887de4ecc082d890ecd3a15b52361a50",
        "1aca1c327b8d413a6c7ac15cc9264bb6b9cda7b9b8fc1bafe93cfd538a03e522"),
    "ref-equal-loss": (
        "adde73c257a95d9bb5011cddc9eada78f229763deb4e369460c3463f4a85aabc",
        "68163a5d94ca95011b1d9676ebc8f36b9ec6cd1c38bf4dc8354c400f2948d3e8"),
    "ref-fixed": (
        "efc422acb4b874dae63e3ae8a63c51a4ce9ffcfab1eb124ba76793e522822f11",
        "2d343037ba9aceb6936966db5ba6bc41de4c3b6de5cf4637d8fa899f44a681ee"),
    "ref-low-cond": (
        "7e0755e740e24d014960cad65c06353ea84d955591d0599b6e09ad5389d14c16",
        "7cc9a852c9ec7523cc72012cf4c76387cc6cfda8d11a9de1b03831e47ee46192"),
    "ref-low-cond-stride2": (
        "45b6e4cc836595c75a26f6a187b14fcdca9233b890e4a7384e2a4104cd220b33",
        "7d820f0b084c0c27ea15b5aa8fbc24e73a8d1ebebc5b8e56757fa9273b8a1129"),
    "ref-rlw": (
        "4eda12ac5b8afc6c8ad83b264397952976b78bd4e499ccf7ae7de2119736fc13",
        "14003433be15153e353c77c2ccd82f7790a6e04ee7a5bcd8a1508072cdd2e610"),
}


def run_case(name, out_dir):
    """Run one case into ``out_dir``; returns (trace digest, summary digest),
    with None for a trace the run did not write."""
    trace = out_dir / f"{name}.jsonl"
    summary = out_dir / f"{name}.json"
    argv = ["run", *CASES[name], "--run-id", name,
            "--trace", str(trace), "--summary", str(summary)]
    assert cli.main(argv) == 0
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
                 for path in (trace, summary))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]


#: analyze case -> output file -> sha256
ANALYZE_DIGESTS = {
    "smooth3": {
        "aggregates.csv":
            "7550eefef734860508f7cc8547574c747c581229e61fce25da970ce886c7d936",
        "ref-low-cond_trajectory.csv":
            "c1c004fc40279a0919a284103af1a9a2ba86f51d99afb385faede412ee9c96de",
    },
    "sweep": {
        "aggregates.csv":
            "84b3c06aa9f36831e2e52785bbd21106a7ce6a0f8d08bbbb105ca1b72a904e39",
        "correlations.csv":
            "b05139fdb9869d3e375eae5179e9f818c667ba7a871d75d459ecafd700b418ab",
        "sweep-000_trajectory.csv":
            "f62e8eac1a5412064b9ac60c61f5051e8a9d871a62c5ea98984c1d69a7dee182",
        "sweep-001_trajectory.csv":
            "ba13f23cb6cc8a81907cf758930bbea9374d5cf59c79cedd7801f641f11ce949",
        "sweep-002_trajectory.csv":
            "ac6a914ed4d0afac30cd42a4be31ce60557d732674b816693f6072fb0d788d4b",
        "sweep-003_trajectory.csv":
            "ffdd9b232bd6618ff7064716f9fa5d446c32516b09685edef10d6cc9f230c7fb",
    },
}


def analyze_case(name, tmp_path):
    """Write the case's traces, run ``analyze`` on them and return the
    digest of every CSV it wrote."""
    out = tmp_path / "analysis"
    if name == "sweep":
        sweep = tmp_path / "sweep"
        assert cli.main(["sweep", "--problem", "reference", "--total-iters", "200",
                         "--n", "4", "--seed", "13", "--write-traces",
                         "--out-dir", str(sweep)]) == 0
        argv = ["--traces", *sorted(map(str, sweep.glob("*.jsonl"))),
                "--summary", str(sweep / "sweep_summary.csv")]
    else:
        run_case("ref-low-cond", tmp_path)
        argv = ["--traces", str(tmp_path / "ref-low-cond.jsonl"), "--smooth", "3"]
    assert cli.main(["analyze", *argv, "--out-dir", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", ["smooth3", "sweep"])
def test_analyze_digest(name, tmp_path):
    assert analyze_case(name, tmp_path) == ANALYZE_DIGESTS[name]


MLP_SWEEP_ARGS = ("--problem", "mlp", "--k", "3", "--n", "4", "--total-iters", "100",
                  "--baseline-iters", "50", "--seed", "1", "--jobs", "1", "--write-traces")
#: the mlp sweep's output file -> sha256
MLP_SWEEP_DIGESTS = {
    "sweep-000.jsonl": "1187d28d438031317fa465580659aa5ee084bd5e53d6f9c52808862dddd20881",
    "sweep-001.jsonl": "d67b66dc694af69629b6791a08c700bda0ab96c00fc0a0f8152d45aa47c585f8",
    "sweep-002.jsonl": "7b86e3ebef38de1cd379102d90b97cd8eac0aebe430852b1164cb2ea248e2dcd",
    "sweep-003.jsonl": "4350a0bcb7286c68f8012324df5ca912565cdc9b13d9cf8a7d8e3c935ce1499b",
    "sweep_summary.csv": "34c4683c467bacbf5afd9f7322b5ef113f5aa8fc6ef4207d1ab71437cd600a4c",
}


def test_mlp_sweep_digest(tmp_path):
    assert cli.main(["sweep", *MLP_SWEEP_ARGS, "--out-dir", str(tmp_path)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())} == MLP_SWEEP_DIGESTS
