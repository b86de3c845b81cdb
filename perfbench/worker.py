"""One workload in a fresh interpreter; started by run.py, prints one JSON line.

    worker.py setup   --workload W --seed S [--size tiny]
        CPU and wall time from interpreter start to zenogate imported and
        every scenario of the workload generated and validated.
    worker.py measure --workload W --seed S --seconds T --trace 0|1 [--size tiny]
        untraced passes for T seconds (with --trace 1, traced passes
        interleaved with untraced ones), gate verdicts, peak RSS and the
        per-function trace statistics.  The T seconds begin with a warm-up
        pass, run without the yardstick and left out of the timings; peak
        RSS is read after it, so it depends neither on how many passes fit
        in the run nor on where the yardstick's own allocations land in the
        C heap.

During every pass a profiling timer interrupts the work every 50 ms of CPU
time to time a tiny fixed numpy kernel, the yardstick.  The pass's own CPU
time divided by the harmonic mean of the pass's yardstick times is
`cpu_norm`.  It divides out a change in the host's speed that slows both
alike: on a shared virtual machine that speed switched between states about
1.6x apart, each lasting from seconds to minutes, so the speed is sampled
all through the pass rather than next to it.  The samples fall at equal
steps of CPU time, and a slow stretch of the pass holds more of them than
its share of the work; the harmonic mean weights each sample by the work
done in its step, so a pass that straddles two speeds is divided by the
average cost of its work.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import numpy as np  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    return parser.parse_args(argv)


class Yardstick:
    """Samples the host's speed while a pass runs, as the CPU time of a fixed kernel.

    The process CPU clock only advances by scheduler ticks while a CPU timer
    is armed, so the kernel is timed with this thread's clock; BLAS runs on
    this thread.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((64, 3, 3)) + 1j * rng.standard_normal((64, 3, 3))
        self.stack = z + z.conj().transpose(0, 2, 1)
        self.samples = []
        for _ in range(20):  # warm caches and numpy's dispatch before the first timed pass
            self._time_kernel()

    def _time_kernel(self) -> float:
        start = time.thread_time()
        w, v = np.linalg.eigh(self.stack)
        np.einsum("kij,kj,klj->kil", v, np.exp(-1j * w), v.conj())
        m = x = self.stack[0]
        for _ in range(150):
            x = 0.1 * (m @ x)
        return time.thread_time() - start

    def _sample(self, signum, frame):
        self.samples.append(self._time_kernel())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append(self._time_kernel())

    def normalise(self, pass_cpu_s: float) -> float:
        """Pass CPU time, less the samples' own, in units of the samples' harmonic mean."""
        return (pass_cpu_s - sum(self.samples)) / statistics.harmonic_mean(self.samples)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outcome_summary(outcomes) -> dict:
    failures = [f for o in outcomes for f in o.failures]
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": len(failures),
        "failures": sorted(set(failures))[:20],
        "gate_dist_max": max((d for o in outcomes for d in o.distances), default=None),
        "angle_err_max": max((e for o in outcomes for e in o.angle_errors), default=None),
        "slope_err": max((e for o in outcomes for e in o.slope_errors), default=None),
    }


def _layer_values(recorder, traced_times) -> dict:
    """Per-pass statistics of every traced function, keyed `<function>.<stat>`."""
    from tracer import WORK

    passes = len(traced_times)
    busy = sum(traced_times)
    values = {}
    for name, s in recorder.function_stats().items():
        values[f"{name}.calls"] = s["calls"] / passes
        values[f"{name}.errors"] = s["errors"] / passes
        values[f"{name}.total_s"] = s["total_s"] / passes
        values[f"{name}.self_s"] = s["self_s"] / passes
        values[f"{name}.total_frac"] = s["total_s"] / busy
        values[f"{name}.self_frac"] = s["self_s"] / busy
        if name in WORK:
            work = WORK[name][1]
            values[f"{name}.{work}"] = s["work"] / passes
            values[f"{name}.{work}_per_s"] = s["work"] / s["total_s"] if s["total_s"] > 0 else 0.0
            if work == "matrices":
                values[f"{name}.bytes_computed"] = s["bytes"] / passes
    steps = values["adiabatic.propagate_exact.steps"] * passes
    factors = recorder.work_under("linalg.expm_hermitian_stack", "adiabatic.propagate_exact")
    values["adiabatic.propagate_exact.factors_per_step"] = factors / steps if steps else 0.0
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    import zenogate

    source = ROOT / "src" / "zenogate"
    if Path(zenogate.__file__).resolve().parent != source.resolve():
        print(f"zenogate imported from {zenogate.__file__}, not from {source}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.Workload(args.workload, args.seed, tiny=args.size == "tiny")
    workload.validate()
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.process_time(), "setup_wall_s": time.perf_counter() - START}))
        return 0

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
    untraced, traced, untraced_cpu, traced_cpu = [], [], [], []
    untraced_norm, traced_norm = [], []
    plain_outcomes, traced_outcomes = [], []
    began = time.perf_counter()
    plain_outcomes.append(workload.run_pass())
    peak_rss_mb = _max_rss_mb()
    yardstick = Yardstick()
    yard = []
    while True:
        with_trace = recorder is not None and len(traced) < len(untraced)
        if with_trace:
            recorder.install()
        try:
            with yardstick:
                t0, c0 = time.perf_counter(), time.process_time()
                outcome = workload.run_pass(recorder if with_trace else None)
                elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if with_trace:
                recorder.uninstall()
        yard.append(statistics.median(yardstick.samples))
        (traced if with_trace else untraced).append(elapsed)
        (traced_cpu if with_trace else untraced_cpu).append(cpu)
        (traced_norm if with_trace else untraced_norm).append(yardstick.normalise(cpu))
        (traced_outcomes if with_trace else plain_outcomes).append(outcome)
        if time.perf_counter() - began >= args.seconds and (recorder is None or traced):
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "contents": workload.contents(),
        "pass_s": untraced,
        "pass_cpu_s": untraced_cpu,
        "pass_cpu_norm": untraced_norm,
        "yardstick_median_s": yard,
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_mb_at_exit": _max_rss_mb(),
        **_outcome_summary(plain_outcomes + traced_outcomes),
        "untraced": _outcome_summary(plain_outcomes),
    }
    if recorder is not None:
        result["traced"] = _outcome_summary(traced_outcomes)
        result["traced_pass_s"] = traced
        result["traced_pass_cpu_s"] = traced_cpu
        result["functions"] = recorder.function_stats()
        result["layers"] = _layer_values(recorder, traced)
        result["layers"]["trace.pass_s"] = statistics.median(traced)
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(traced_norm) / statistics.median(untraced_norm) - 1.0
        )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["span_count"] = len(recorder.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
