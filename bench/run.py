"""weekfit benchmark: one closed-loop client, one workload per invocation.

    python3 bench/run.py --workload fit-cells --seed 1 --seconds 30 --trace 0

Run from the repository root.  Inputs are made from ``--seed`` before
timing; one warm-up operation is not counted; operations then run one after
another until ``--seconds`` have passed.  Every operation's outputs are
checked, and an operation that raises, runs past its time bound or fails a
check counts as failed.  Every time is divided by the host's slowness,
measured with a fixed reference of the same kind of work just before and
after it (see ``hostspeed.py``).

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` each input runs twice, with spans
off and on in alternating order (the difference is the tracing overhead),
a fixed probe then calls every layer, and the result holds the per-layer
metrics; the spans are written to ``.bench_out/``.  ``--smoke`` shrinks
every input so the whole path runs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import spans
from common import ROOT, BLAS_THREADS, import_weekfit, median, pin_environment, run_python, time_bound

SETUP_CODE = "import weekfit; weekfit.bundled_model('guangzhou'); weekfit.bundled_model('milan')"
SETUP_SAMPLES = 9
SHOWN_FAILURES = 5
SMOKE_ITEMS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-cells", "ingest-score", "cli-year"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, two operations")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment(args) -> dict:
    import numpy
    from hostspeed import USUAL_S

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS, "reference_usual_s": USUAL_S,
    }


def measure_setup(workdir, samples: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter until weekfit is imported and both fixtures are loaded.

    Returns the times scaled by the start-up slowness measured before and
    after each, and the scale factors.
    """
    import hostspeed

    times, scales = [], []
    before = None
    for _ in range(samples + 1):  # the first run also writes bytecode caches
        status, _, seconds = run_python(["-c", SETUP_CODE], workdir, 60.0)
        if status != 0:
            raise SystemExit(f"benchmark: importing weekfit failed with status {status}")
        after = hostspeed.startup(workdir)
        if before is not None:
            scales.append(2.0 / (before + after))
            times.append(seconds * scales[-1])
        before = after
    return times, scales


class Loop:
    """Closed loop over one workload: counts attempts, failures and tracing pairs."""

    def __init__(self, workload, null):
        self.workload = workload
        self.null = null
        self.attempted = 0
        self.failed = 0
        self.overheads: list[float] = []

    def execute(self, item, tracer, counted: bool = True, observe: bool = True):
        """One operation; returns its seconds, or None if any part failed."""
        w = self.workload
        slowness = w.slowness if observe else None
        try:
            before = slowness() if slowness else 1.0
            with time_bound(w.bound_s), tracer.span("bench.op"):
                started = time.perf_counter()
                out = w.run(item, tracer)
                elapsed = time.perf_counter() - started
            after = slowness() if slowness else 1.0
            scale = 2.0 / (before + after)
            failed = w.check(item, out)
        except Exception as exc:  # any failure of the program counts against it
            failed = w.ops_per_item
            self.report_failure(exc)
        if counted:
            self.attempted += w.ops_per_item
            self.failed += failed
        if failed:
            return None
        if observe:
            w.observe(item, out, elapsed * scale, scale)
        return elapsed

    def report_failure(self, exc: Exception) -> None:
        if self.failed < SHOWN_FAILURES:
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            print(f"failed: {self.workload.name}: {detail}", file=sys.stderr)

    def drive(self, seconds: float, tracer, limit: int | None) -> None:
        items = self.workload.items()
        self.execute(next(items), self.null, counted=False, observe=False)  # warm-up
        deadline = time.perf_counter() + seconds
        n = 0
        while True:
            item = next(items)
            if tracer is None:
                self.execute(item, self.null)
            else:
                tracer.op = n
                traced_first = n % 2 == 1
                if traced_first:
                    traced = self.execute(item, tracer, observe=False)
                plain = self.execute(item, self.null)
                if not traced_first:
                    traced = self.execute(item, tracer, observe=False)
                if plain and traced:
                    self.overheads.append(traced / plain - 1.0)
            n += 1
            if time.perf_counter() >= deadline or (limit is not None and n >= limit):
                return


def print_layer_table(tracer, overheads) -> None:
    print("layer        spans     total_s      self_s   share")
    for layer, count, total, own, share in spans.layer_table(tracer.spans):
        print(f"{layer:<10} {count:>7} {total:>11.4f} {own:>11.4f} {share:>7.1%}")
    if overheads:
        print(f"tracing overhead: {median(overheads):+.2%} per operation "
              f"(median of {len(overheads)} traced/untraced pairs on the same input)")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def benchmark(args, workdir) -> dict:
    import layer_probe
    import workloads

    print(f"env {json.dumps(environment(args))}")
    if not args.trace:
        setup, setup_scales = measure_setup(workdir, 1 if args.smoke else SETUP_SAMPLES)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    loop = Loop(workload, spans.NullTracer())
    tracer = spans.Tracer() if args.trace else None
    loop.drive(args.seconds, tracer, SMOKE_ITEMS if args.smoke else None)
    if not workload.times:
        raise SystemExit(f"benchmark: no {args.workload} operation succeeded")

    if args.trace:
        probe = spans.Tracer()
        probed = layer_probe.run_probe(probe, workload, workdir, args.smoke)
        metrics = layer_probe.layer_metrics(workload, tracer, probe, probed)
        print_layer_table(tracer, loop.overheads)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", [tracer, probe])
    else:
        metrics, named = workload.report()
        metrics["setup_s"] = (median(setup), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(workload.rss_of_children), "MB")
        fail_frac = loop.failed / loop.attempted
        named = [
            ("setup_s", median(setup), "s", f"n={len(setup)}"),
            ("setup_raw_s", median([t / k for t, k in zip(setup, setup_scales)]), "s",
             f"unscaled, n={len(setup)}"),
            ("fail_frac", fail_frac, "ratio", f"{loop.failed} of {loop.attempted} operations"),
            ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", ""),
        ] + named
        for name, value, unit, note in named:
            print(f"{name:<22} {value:>14.6g} {unit:<6} {note}")

    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import_weekfit()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
