"""Steadiness check for the benchmark itself.

From the repository root:

    python3 perfbench/steady.py --runs 10                     # every workload
    python3 perfbench/steady.py --runs 5 --workloads train_predict

For each workload, runs ``run.py --trace 0`` once per seed (0, 1, ...) and
reports, for every end-to-end metric of BENCHMARK.json, the median and the
spread: the distance between the first and third quartile as a share of the
median.  A spread under a third of the metric's bound is steady; one over the
bound fails.  With ``--sets 2`` the seeds are run twice and each metric's
second median must not be worse than the first by more than its bound.  Then
two traced runs at seed 0 must agree exactly on the counters that depend only
on the inputs, and every run at seed 0 must give the same output sha256.
Exit status 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
COUNTERS = ("similarity.unique_docs", "similarity.doc_pairs", "similarity.stmt_lookups",
            "transforms.statement_similarity.calls", "sle.outer_iters",
            "evaluation.retrain_attempts", "estimator.zero_rho_rows")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(l)["report"] for l in lines if l.startswith('{"report"'))
    return json.loads(lines[-1]), report


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = list(range(args.runs))
    ok = True
    for workload in args.workloads.split(","):
        sets, digests = [], set()
        for _ in range(args.sets):
            values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in seeds:
                result, report = run_once(workload, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: FAILED checks {report['checks']['failures']}")
                    ok = False
                if seed == seeds[0]:
                    digests.add(report["sha256"])
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            sets.append(values)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med, sp = spread(sets[0][name])
            verdict = ("steady" if sp < bound / 3 else "wide" if sp <= bound else "FAIL")
            ok &= verdict != "FAIL"
            line = (f"{workload:14s} {name:16s} median {med:.6g} {m['unit']:6s} "
                    f"spread {sp:.4f} bound {bound} -> {verdict}")
            if args.sets == 2:
                drift = worse_by(med, spread(sets[1][name])[0], m["better"])
                line += f"; second set worse by {drift:+.4f}"
                if drift > bound:
                    line += " FAIL"
                    ok = False
            print(line, flush=True)
        counters = []
        for _ in range(2):
            result, report = run_once(workload, seeds[0], seconds, 1)
            counters.append({c: result["metrics"][c]["value"] for c in COUNTERS})
            digests.add(report["sha256"])
        same = counters[0] == counters[1]
        print(f"{workload:14s} counters {counters[0]} -> {'repeat' if same else 'DIFFER'}")
        ok &= same
        print(f"{workload:14s} sha256 at seed {seeds[0]}: "
              f"{sorted(digests)} -> {'repeat' if len(digests) == 1 else 'DIFFER'}")
        ok &= len(digests) == 1
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
