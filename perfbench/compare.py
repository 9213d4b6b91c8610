"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py`` appends to its ``--record`` file
(``.perfbench/results.jsonl`` by default).  For every workload and metric
measured on both sides this prints each side's median and quartiles, and
the share of seed-matched pairs NEW wins (ties count for neither).  For an
end-to-end metric it also prints whether NEW's median stays within the
metric's bound from BENCHMARK.json: ``ok`` or ``REGRESSED``, or
``unresolved`` whenever BASE's own quartile spread is wider than the bound and
NEW does not beat every BASE run, since no bound can be judged then.  ``gain`` marks a metric where NEW wins at least nine tenths of
at least ten pairs and the medians differ by more than BASE's quartile
distance.  Per-layer counts that must repeat exactly are ``same`` when every
seed-matched pair is equal, else ``differs``.  Exits 1 if any end-to-end
metric regressed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

from spans import EXACT_METRICS

#: Fewest seed-matched pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load(path: str) -> dict:
    """(workload, trace) -> seed -> list of metric dicts, in file order."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                values = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
                values["_failed"] = rec["result"]["failed"]
                values["_delta_m_pct"] = rec.get("delta_m_pct")
                runs[(rec["workload"], rec["trace"])][rec["seed"]].append(values)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(base_runs: dict, new_runs: dict, name: str, higher: bool,
                   bound: float | None) -> dict:
    """Statistics and verdict for one metric on one workload."""
    base = [r[name] for runs in base_runs.values() for r in runs]
    new = [r[name] for runs in new_runs.values() for r in runs]
    pairs = [(b[name], n[name]) for seed in base_runs if seed in new_runs
             for b, n in zip(base_runs[seed], new_runs[seed])]
    better = (lambda b, n: n > b) if higher else (lambda b, n: n < b)
    won = sum(better(b, n) for b, n in pairs)
    bq, nq = quartiles(base), quartiles(new)
    out = {"base": bq, "new": nq, "pairs": len(pairs),
           "won": won / len(pairs) if pairs else 0.0}
    base_spread = bq[2] - bq[0]
    out["gain"] = (len(pairs) >= MIN_PAIRS and out["won"] >= 0.9
                   and abs(nq[1] - bq[1]) > base_spread)
    if bound is not None:
        worse = (bq[1] - nq[1]) if higher else (nq[1] - bq[1])
        all_better = all(better(b, n) for b in base for n in new)
        if base_spread > bound * abs(bq[1]) and not all_better:
            out["verdict"] = "unresolved"
        elif worse <= bound * abs(bq[1]):
            out["verdict"] = "ok"
        else:
            out["verdict"] = "REGRESSED"
    elif name in EXACT_METRICS:
        out["verdict"] = "same" if pairs and all(b == n for b, n in pairs) else "differs"
    return out


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        failed = (sum(r["_failed"] for rs in base[key].values() for r in rs),
                  sum(r["_failed"] for rs in new[key].values() for r in rs))
        print(f"== {workload} (trace {trace}); failed commands base={failed[0]} new={failed[1]}")
        changed = sorted(seed for seed in set(base[key]) & set(new[key])
                         if base[key][seed][0]["_delta_m_pct"] != new[key][seed][0]["_delta_m_pct"])
        if changed:
            print(f"   delta_m_pct differs at seeds {changed}: results changed")
        print(f"   {'metric':42} {'base q1/median/q3':>34} {'new q1/median/q3':>34}"
              f" {'pairs':>5} {'won':>5}  verdict")
        for name, m in metrics.items():
            if not all(name in r for rs in list(base[key].values()) + list(new[key].values())
                       for r in rs):
                continue
            c = compare_metric(base[key], new[key], name, m["better"] == "higher",
                               m.get("bound"))
            verdict = c.get("verdict", "") + (" gain" if c["gain"] else "")
            regressed |= c.get("verdict") == "REGRESSED"
            print(f"   {name:42} {'/'.join(f'{v:.4g}' for v in c['base']):>34}"
                  f" {'/'.join(f'{v:.4g}' for v in c['new']):>34}"
                  f" {c['pairs']:>5} {c['won']:>5.2f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
