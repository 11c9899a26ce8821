"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload cv_text --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, seed 0
    python3 perfbench/run.py --workload train_predict --toy --trace 1

The program under test is imported from ``src/``; nothing is installed.
BLAS is pinned to one thread and each workload is a closed loop with one
client, so the figures measure the program and not the scheduler.

One set-up is the import of numpy and slemap in a fresh interpreter plus
building the inputs (generate the corpus, CSV round trip through
``slemap.dataset``).  A run sets up ``SETUP_REPS`` times before the first
timed pass and again after every untraced pass, so that the set-ups sample
the host's speed across the whole run and not only at its start.
``setup_s`` is the median set-up plus a tiny eigensolve that lets OpenBLAS
allocate its buffers before timing.  Lazy initialisation inside the program
is left in the first timed pass, since every CLI invocation pays for it.  With
``--trace 0`` timed passes repeat while another one fits in ``--seconds``
(at least the workload's ``min_passes``) and times are medians over passes.
With ``--trace 1`` one untraced pass is followed by one traced pass, and the
difference of their wall times is the tracing overhead.

Output: one line per end-to-end metric, a ``{"report": ...}`` JSON line
(environment, all metrics, counters, output sha256, failed checks) and, as
the last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
metrics that BENCHMARK.json declares: ``end_to_end`` for ``--trace 0``,
``per_layer`` for ``--trace 1``.  Exit codes: 0 the run finished (see
``correct``), 2 the program or BENCHMARK.json is missing, 3 the benchmark
cannot measure this program (a traced name is gone, a metric is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import MissingLayer, Tracer

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The str hash seed sets dict and set layouts and so when the cyclic collector
# frees large arrays: sweep_dims peaks at 258 or 278 MB depending on it.  A
# fixed seed makes peak memory repeat from run to run.
HASH_SEED = "0"
SETUP_REPS = 5
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cv_text", "sweep_dims", "train_predict")


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement of this program."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes: each workload in seconds, for the smoke tests")
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_warmup() -> None:
    """Let OpenBLAS allocate its buffers, which the first eigensolve of a
    process would otherwise pay for (about 0.25 s at 1600 rows)."""
    import numpy as np
    a = np.random.default_rng(0).random((64, 64))
    np.linalg.eigh(a + a.T)
    a @ a


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "toy": args.toy}


def declared_metrics(trace: int) -> dict[str, str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise FileNotFoundError(f"{path} is missing")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def select(computed: dict[str, tuple[float, str]], declared: dict[str, str],
           failed: bool) -> dict:
    """The declared metrics; after a failed pass, those that were measured."""
    out = {}
    for name, unit in declared.items():
        if name not in computed:
            if failed:
                continue
            raise BenchError(f"metric {name} was not produced")
        value, got_unit = computed[name]
        if got_unit != unit:
            raise BenchError(f"metric {name} has unit {got_unit}, BENCHMARK.json says {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def import_seconds(src: Path) -> float:
    """Time a fresh interpreter takes to import numpy and slemap."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import workloads; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(src), str(HERE)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def run_workload(args, work_dir: Path) -> tuple[dict, dict]:
    from workloads import WORKLOADS, Checks

    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, args.toy, work_dir)
    checks = Checks()
    import_reps, data_reps, input_digests = [], [], set()

    def set_up():
        for _ in range(SETUP_REPS):
            import_reps.append(import_seconds(ROOT / "src"))
            start = time.perf_counter()
            input_digests.add(wl.setup())
            data_reps.append(time.perf_counter() - start)

    set_up()
    start = time.perf_counter()
    blas_warmup()
    warmup_s = time.perf_counter() - start

    results, traced, tracer, digests = [], None, None, []

    def finish(res):
        """Check and fingerprint a pass, then drop its similarity matrices so
        that peak memory is the program's, not the benchmark's."""
        wl.check(res, checks)
        digests.append(wl.digest(res))
        res.matrices.clear()
        return res

    try:
        if args.trace:
            results.append(finish(wl.run()))
            set_up()
            tracer = Tracer()
            with tracer:
                traced = wl.run()
            tracer.require_called(wl.layers)
            finish(traced)
        else:
            start = time.perf_counter()
            while True:
                results.append(finish(wl.run()))
                set_up()
                elapsed = time.perf_counter() - start
                if (len(results) >= wl.min_passes
                        and elapsed + results[-1].wall_s > args.seconds):
                    break
    except MissingLayer:
        raise
    except Exception:   # the program failed: count it, report what was measured
        traceback.print_exc()
        checks.op("timed pass", ["raised; traceback on stderr"])

    checks.op("inputs repeat", [] if len(input_digests) == 1
              else ["set-up produced different inputs"])
    checks.op("outputs repeat across passes",
              [] if len(set(digests)) <= 1 else ["passes produced different outputs"])

    setup_s = statistics.median([i + d for i, d in zip(import_reps, data_reps)]) + warmup_s
    e2e: dict[str, tuple[float, str]] = {"setup_s": (setup_s, "s")}
    if results:
        e2e.update(wl.metrics(results))
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    e2e["failed_ratio"] = (checks.failed / checks.attempted, "ratio")
    layer: dict[str, tuple[float, str]] = {}
    if tracer is not None and traced is not None and results:
        layer = tracer.metrics()
        layer["traced_wall_s"] = (traced.wall_s, "s")
        layer["unattributed_s"] = (traced.wall_s - tracer.top_s, "s")
        layer["tracing_overhead_s"] = (traced.wall_s - results[0].wall_s, "s")

    report = {
        "env": environment(args),
        "pass_wall_s": [r.wall_s for r in results],
        "traced_passes": int(traced is not None),
        "setup": {"import_s": import_reps, "data_s": data_reps, "warmup_s": warmup_s},
        "sha256": digests[0] if digests else None,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
    }
    return report, e2e if not args.trace else layer


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:   # must precede the first numpy import
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "slemap" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src / 'slemap'})",
              file=sys.stderr)
        return 2
    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(src))
    import workloads  # noqa: F401  (numpy and the whole slemap package)

    work_root = ROOT / ".bench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        report, computed = run_workload(args, work_dir)
        metrics = select(computed, declared, report["checks"]["failed"] > 0)
    except (BenchError, MissingLayer) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    for name, m in report["end_to_end"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"report": report}))
    checks = report["checks"]
    print(json.dumps({"correct": checks["failed"] == 0, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
