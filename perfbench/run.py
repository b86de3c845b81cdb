"""zenogate benchmark: one seeded workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run from the repository root.  The workload runs in a fresh interpreter
(perfbench/worker.py) with BLAS limited to one thread: a warm-up pass that
is left out of the timings, then one pass after another until S seconds
have passed since the warm-up began.  Set-up time
is the median of several further fresh interpreters that only import
zenogate and generate and validate the workload's scenarios.  Every run's
results are checked against the accuracy gates in workloads.py.

The bounded pass cost, cpu_norm, is the pass's process CPU time in units of
a fixed numpy kernel timed every 50 ms during the pass (worker.py).  On a
virtual machine whose cores are shared with other guests, CPU time swung by
up to a factor of 1.7 within seconds as the host's load changed; the ratio
divides out a change of speed that slows the kernel and the pass alike.
The program is single-threaded and does no I/O while timed.  CPU and wall
seconds are printed and stored beside it.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced.  With --trace 1 the worker interleaves traced and
untraced passes and the metrics are the per-layer metrics of BENCHMARK.json,
per pass, plus the tracing overhead.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it name every metric with its unit, the environment fingerprint and
any gate failure.  Full results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = {"full": 5, "tiny": 1}
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every workload for the smoke test")
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_VARIABLES})
    # Keep peak RSS independent of whether the host can grant huge pages to
    # numpy's large arrays at that moment.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {mode} worker")
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zenogate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _fingerprint(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: BLAS_THREADS for name in BLAS_VARIABLES},
        "numpy_madvise_hugepage": "0",
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, [w["name"] for w in manifest["workloads"]])
    if not (ROOT / "src" / "zenogate" / "__init__.py").is_file():
        print(f"error: no zenogate sources under {ROOT / 'src'}; run from a zenogate checkout",
              file=sys.stderr)
        return 2
    try:
        setups = [_worker(args, "setup", deadline) for _ in range(SETUP_REPEATS[args.size])]
        result = _worker(args, "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = result["pass_s"]
    result["setup_s"] = [s["setup_s"] for s in setups]
    result["setup_wall_s"] = [s["setup_wall_s"] for s in setups]
    result["fingerprint"] = _fingerprint(args)
    end_to_end = {
        "setup_s": statistics.median(result["setup_s"]),
        "setup_wall_s": statistics.median(result["setup_wall_s"]),
        "wall_s": statistics.median(passes),
        "cpu_s": statistics.median(result["pass_cpu_s"]),
        "cpu_norm": statistics.median(result["pass_cpu_norm"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "gate_dist_max": result["gate_dist_max"],
        "slope_err": result["slope_err"],
    }
    section = "per_layer" if args.trace else "end_to_end"
    values = result["layers"] if args.trace else end_to_end
    metrics = {}
    for spec in manifest[section]:
        value = values.get(spec["name"])
        if value is None:
            print(f"error: metric {spec['name']} was not measured", file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    for line in result["contents"]:
        print(f"  task  {line}")
    print(f"  setup_s        {end_to_end['setup_s']:.4f} s  (CPU, median of {len(setups)} fresh interpreters;"
          f" wall {end_to_end['setup_wall_s']:.4f} s)")
    print(f"  cpu_norm       {end_to_end['cpu_norm']:.2f} 1  (CPU per yardstick sample, median of {len(passes)} untraced passes)")
    print(f"  cpu_s          {end_to_end['cpu_s']:.4f} s  (CPU, median of the same passes)")
    print(f"  wall_s         {end_to_end['wall_s']:.4f} s  (wall, median of the same {len(passes)} passes)")
    print(f"  peak_rss_mb    {end_to_end['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac      {failed / attempted:.4g} 1  ({failed} of {attempted} gated results failed)")
    print(f"  gate_dist_max  {result['gate_dist_max']:.6g} 1")
    angle = result["angle_err_max"]
    print(f"  angle_err_max  {'n/a rad (no run predicts an angle)' if angle is None else f'{angle:.6g} rad'}")
    print(f"  slope_err      {result['slope_err']:.6g} 1")
    if args.trace:
        for spec in manifest["per_layer"]:
            print(f"  {spec['name']:<50} {values[spec['name']]:.6g} {spec['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED  {failure}")
    print(f"  fingerprint {json.dumps(result['fingerprint'], sort_keys=True)}")

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**result, "metrics": metrics}, indent=1, sort_keys=True) + "\n")
    print(f"  results {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
