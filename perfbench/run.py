"""Outside-in benchmark for mmpwalk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run from the repository root.  One workload runs per process, single
threaded, from one client in a closed loop: the next operation starts when
the previous one has returned.  The process sets up the workload three
times and reports the median set-up time, then runs a fixed number of
operations: ``--seconds`` over the workload's ``ROUND_S`` (the operation
time of one round of its stream on the machine the benchmark was written
on), rounded up, whole rounds.  The count depends only on ``--seconds``,
never on how fast the program runs, so two versions of the program run the
same operations and their tails are the same inputs.  After each chunk
of operations the clock stops while the chunk's outputs are checked and
digested, so the client keeps no outputs and its memory does not grow with
the number of operations run.  The last line of standard output is one JSON object.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
runs the first ``TRACE_OPS`` operations of the stream untraced, replays them
with the tracer installed, and reports the per-layer metrics and the tracing
overhead (traced minus untraced time of the same operations).  A fixed
operation count, sized to take about ``--seconds`` for both passes on the
machine the benchmark was written on, makes every per-layer count exact and
comparable between two versions of the program.  The line before the
result holds machine information, the tail percentile and its sample
count, the failed ratio, the census of the workload's inputs and the raw
wall-clock metrics.
Full results, and the spans of a traced run, are written under
``perfbench/out/``.

The exit code is 0 when every output is correct, 1 when an output is wrong
or a predicted bypass does not hold, and 2 when the package cannot be found.
"""

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from array import array
from fractions import Fraction
from time import perf_counter, thread_time

from common import import_mmpwalk

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3

# Ops, set-ups and the import are timed in the CPU time of the client's
# thread, which is the only thread mmpwalk runs in.  CPU time leaves out
# the milliseconds the process spends preempted: on a shared host those
# pauses, not the program, set the slowest 0.02% of LP queries.  CPU time
# still follows the host's speed, which other tenants on the same cores move
# by up to 2x, within a second as well as within a minute: far more than
# any bound.  So while an op runs, a CPU-time interval timer interrupts it
# every SAMPLE_EVERY_S and the handler times a fixed loop of stdlib
# ``Fraction`` additions (``speed_sample``), which runs no mmpwalk code: a
# change to mmpwalk cannot speed it up or slow it down.  The loop does the
# kind of work mmpwalk spends its time on (interpreted calls, small-object
# allocation, integer gcd), so it slows down with the host as mmpwalk does.
# Ops are scaled in windows of at least WINDOW_S of op time and
# WINDOW_SAMPLES samples (one window per op of several seconds): each op's
# CPU time, less the handler's, times REFERENCE_SAMPLE_S over the harmonic
# mean of the window's samples.  The samples fall uniformly in CPU time,
# so the harmonic mean weighs each stretch of the window by its length.
# Sampling inside the ops, rather than between them, follows changes of
# speed within a long op: ten ``check`` calls of one document, timed over
# a minute, spread (quartile distance over median) by 0.20 in raw CPU time,
# 0.18 scaled by a loop timed before and after each call, and 0.07 scaled
# by samples inside it.  Reported times are seconds at the host speed at
# which the loop takes REFERENCE_SAMPLE_S (about its median on the 2-vCPU
# Xeon VM it was set on).  The raw wall-clock metrics and the sample
# timings are printed in the info line.
SAMPLE_EVERY_S = 0.01
SAMPLE_LOOPS = 40
REFERENCE_SAMPLE_S = 0.00015
WINDOW_S = 0.05
WINDOW_SAMPLES = 3

# layers each workload is predicted to bypass: the traced run asserts zero
BYPASS = {
    "decompose": ("simplex.solve_min.calls",),
    "orders": ("cones._dd.calls", "orders.enum.nodes", "veronese.lattice.box_points"),
    "levels": ("veronese.lattice.box_points",),
    "check": (),
}


def machine_info():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def digest(outputs):
    text = "\n".join("" if o is None else o for o in outputs)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stream(workload, count):
    """The first ``count`` ops of the workload's stream, regenerated."""
    return list(itertools.islice((op for chunk in workload.chunks() for op in chunk), count))


def speed_sample():
    """CPU time of a fixed loop of stdlib ``Fraction`` additions."""
    start = thread_time()
    total = Fraction(0)
    for i in range(1, SAMPLE_LOOPS):
        total += Fraction(1, i % 97 + 1)
    return thread_time() - start


class Sampler:
    """Samples the host's speed while timed work runs.

    Used as a context manager around a timed phase; ``start`` and ``stop``
    bracket each piece of timed work.  The handler samples only inside a
    piece, and ``stop`` leaves the handler's time (``spent``) out of the
    piece's CPU time.  Times are the thread's CPU time: while a CPU-time
    timer is armed, Linux may count the process's CPU time in whole timer
    ticks (4 ms).  The collector is off while sampling: the loop's objects
    are freed by reference counting, and a collection of the program's
    objects inside a sample would read as a slow host.
    """

    def __init__(self):
        self.samples = array("d")
        self.spent = 0.0  # handler time, in the last piece after ``stop``
        self._active = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame):
        if not self._active:
            return
        start = thread_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(speed_sample())
        finally:
            if enabled:
                gc.enable()
        self.spent += thread_time() - start

    def start(self):
        self.spent = 0.0
        self._start = thread_time()
        self._active = True

    def stop(self):
        """CPU time of the piece since ``start``, less the handler's."""
        self._active = False
        return thread_time() - self._start - self.spent


class Clock:
    """Scales the CPU times of timed pieces to the reference host speed."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.scaled = array("d")
        self.total = 0.0  # sum of self.scaled
        self.factor = None  # of the last window
        self._first = 0  # the window's first sample
        self._pending = []
        self._pending_sum = 0.0

    def add(self, cpu):
        self._pending.append(cpu)
        self._pending_sum += cpu
        if (self._pending_sum >= WINDOW_S
                and len(self.sampler.samples) - self._first >= WINDOW_SAMPLES):
            self.settle()

    def settle(self):
        if not self._pending:
            return
        samples = self.sampler.samples[self._first:]
        if samples:
            self.factor = REFERENCE_SAMPLE_S / statistics.harmonic_mean(samples)
        elif self.factor is None:  # too little work to sample: sample it now
            self.factor = REFERENCE_SAMPLE_S / statistics.harmonic_mean(
                [speed_sample() for _ in range(WINDOW_SAMPLES)])
        self._first = len(self.sampler.samples)
        self.scaled.extend(cpu * self.factor for cpu in self._pending)
        self.total += self._pending_sum * self.factor
        self._pending = []
        self._pending_sum = 0.0


class Pass:
    """What one closed-loop pass over a workload's stream leaves behind."""

    def __init__(self, sampler):
        self.latencies = array("d")  # wall clock, less the sampler's time
        self.clock = Clock(sampler)  # CPU time at the reference host speed
        self.failed = {}  # op index -> message
        self.digests = []  # one per complete chunk
        self.sizes = []  # ops per complete chunk
        self.outputs = []  # only when asked to keep them

    @property
    def ops(self):
        return len(self.latencies)


def run_count(workload, seconds):
    """Operations in a run of ``seconds``: whole rounds of nominal length
    ``ROUND_S``, so the count never depends on the measured speed."""
    return math.ceil(seconds / workload.ROUND_S) * workload.ROUND_OPS


def run_pass(workload, count, tracer=None, keep_outputs=False):
    """Run the first ``count`` operations of the workload's stream.

    Outputs are checked between chunks when they are not kept; kept outputs
    are checked afterwards by ``check_outputs``, so that the two passes of a
    traced run do exactly the same work and the tracer counts only the
    operations.
    """
    with Sampler() as sampler:
        return _run_pass(workload, sampler, count, tracer, keep_outputs)


def _run_pass(workload, sampler, count, tracer, keep_outputs):
    result = Pass(sampler)
    done = False
    for chunk in workload.chunks():
        outputs = []
        for op in chunk:
            if tracer is not None:
                tracer.op = result.ops
            start = perf_counter()
            sampler.start()
            try:
                output = op.fn(*op.args)
            except Exception as exc:  # an op that raises is a failed op
                output = None
                result.failed[result.ops] = f"{type(exc).__name__}: {exc}"
            cpu = sampler.stop()
            result.latencies.append(perf_counter() - start - sampler.spent)
            result.clock.add(cpu)
            outputs.append(output)
            done = result.ops == count
            if done:
                break
        if not keep_outputs:
            first = result.ops - len(outputs)
            for i, message in workload.verify(chunk[:len(outputs)], outputs).items():
                result.failed.setdefault(first + i, message)
        if len(outputs) == len(chunk):
            result.digests.append(digest(outputs))
            result.sizes.append(len(chunk))
        if keep_outputs:
            result.outputs.extend(outputs)
        if done:
            result.clock.settle()
            return result


def check_outputs(workload, result):
    """Check the kept outputs of a pass, chunk by chunk."""
    start = 0
    for chunk in workload.chunks():
        outputs = result.outputs[start:start + len(chunk)]
        for i, message in workload.verify(chunk[:len(outputs)], outputs).items():
            result.failed.setdefault(start + i, message)
        start += len(outputs)
        if start == result.ops:
            return


def reference_failures(result, expected):
    """Op index -> message for each op of a chunk whose digest differs from
    the reference, and the number of chunks compared."""
    failed = {}
    start = 0
    for i, (got, want, size) in enumerate(zip(result.digests, expected, result.sizes)):
        if got != want:
            for j in range(start, start + size):
                failed[j] = f"chunk {i} digest {got} != reference {want}"
        start += size
    return failed, min(len(result.digests), len(expected))


def latency_metrics(latencies):
    ordered = sorted(latencies)
    n = len(ordered)
    # the highest percentile that still has at least 10 samples beyond it
    tail_index = max(n - 11, 0)
    return {
        "ops_per_s": n / sum(ordered),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[tail_index] * 1e3,
    }, {"op_tail_percentile": 100 * (tail_index + 1) / n, "op_tail_samples": n,
        "op_tail_beyond": n - tail_index - 1}


def setup_workload(cls, seed):
    """Set the workload up ``SETUP_REPEATS`` times.  Returns the last copy
    and the scaled time of each set-up.

    Set-up reports each unit of its work through ``tick``, so a set-up of a
    second or more is timed in pieces and scaled in windows, as ops are.
    """
    times = []
    workload = None
    with Sampler() as sampler:
        clock = Clock(sampler)
        for _ in range(SETUP_REPEATS):
            workload = None  # drop the previous copy, so peak memory holds one
            first = len(clock.scaled)

            def tick():
                clock.add(sampler.stop())
                sampler.start()

            sampler.start()
            workload = cls(seed)
            workload.setup(tick)
            clock.add(sampler.stop())
            clock.settle()
            times.append(sum(clock.scaled[first:]))
    return workload, times


def timed_import():
    """Import the package and the workloads; returns the scaled import time."""
    with Sampler() as sampler:
        clock = Clock(sampler)
        sampler.start()
        import_mmpwalk()
        import workloads  # noqa: F401
        clock.add(sampler.stop())
        clock.settle()
    return clock.total


def run(args):
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loadavg_start": loadavg(), **machine_info()}
    import_s = timed_import()
    import workloads
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    workload, setup_times = setup_workload(workloads.WORKLOADS[args.workload], args.seed)
    info["import_s"] = import_s
    info["setup_times_s"] = setup_times

    problems = []
    if args.trace:
        from tracer import PRIVATE_COUNTS, Tracer

        result = run_pass(workload, count=workload.TRACE_OPS, keep_outputs=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, count=result.ops, tracer=tracer, keep_outputs=True)
        finally:
            tracer.uninstall()
        for i, message in traced.failed.items():
            result.failed.setdefault(i, message)
        if traced.outputs != result.outputs:
            problems.append("traced and untraced runs gave different outputs")
        check_outputs(workload, result)
    else:
        result = run_pass(workload, run_count(workload, args.seconds))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = result.failed
    if args.seed == DEFAULT_SEED:
        wrong, info["reference_chunks_checked"] = reference_failures(
            result, reference["digests"][args.workload])
        for i, message in wrong.items():
            failed.setdefault(i, message)
    attempted = result.ops
    info["failed_ratio"] = len(failed) / attempted
    info["failures"] = [f"op {i}: {m}" for i, m in sorted(failed.items())[:20]]
    ops = stream(workload, attempted)
    census = info["census"] = workload.census(ops)
    if args.trace:
        layers = tracer.layer_metrics()
        untraced = result.clock.total
        layers["trace.untraced_s"] = (untraced, "s")
        layers["trace.overhead_s"] = (traced.clock.total - untraced, "s")
        info["raw_trace_overhead_s"] = sum(traced.latencies) - sum(result.latencies)
        layers["trace.ops"] = (attempted, "count")
        grid_cells = tracer.counts["veronese.grid.cells"]
        if grid_cells:
            census["census.nonsimplicial_share"] = (
                tracer.counts["veronese.grid.nonsimplicial_cells"] / grid_cells)
        for name in BYPASS[args.workload]:
            if layers[name][0] != 0:
                problems.append(f"bypass: {name} = {layers[name][0]}, predicted 0")
        if hasattr(workload, "verify_trace"):
            problems.extend(workload.verify_trace(ops, tracer, reference))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        info["private_counts"] = list(PRIVATE_COUNTS)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        values, tail = latency_metrics(result.clock.scaled)
        info.update(tail)
        if hasattr(workload, "input_key"):
            slowest = info["op_max_ms_by_input"] = {}
            for op, scaled in zip(ops, result.clock.scaled):
                key = workload.input_key(op)
                slowest[key] = max(slowest.get(key, 0.0), scaled * 1e3)
        values["setup_s"] = import_s + statistics.median(setup_times)
        values["peak_rss_mb"] = rss_mb
        info["raw"], _ = latency_metrics(result.latencies)
        samples = sorted(result.clock.sampler.samples)
        info["speed_samples_s"] = {"samples": len(samples), "median": statistics.median(samples),
                                   "min": samples[0], "max": samples[-1]}
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    info["peak_rss_mb"] = rss_mb
    info["problems"] = problems
    info["loadavg_end"] = loadavg()
    correct = not failed and not problems
    output = {"correct": correct, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": output}, fh, indent=1, sort_keys=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(output, sort_keys=True))
    return 0 if correct else 1


def write_reference():
    """Digest the first chunks of every workload's stream at the default seed."""
    import_mmpwalk()
    import workloads

    reference = {"seed": DEFAULT_SEED, "digests": {}}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        workload.setup()
        count = sum(len(c) for c in itertools.islice(workload.chunks(), cls.REFERENCE_CHUNKS))
        result = run_pass(workload, count=count)
        if result.failed:
            print(f"{name}: {len(result.failed)} ops fail their checks, first: "
                  f"{sorted(result.failed.items())[0]}", file=sys.stderr)
            return 1
        reference["digests"][name] = result.digests
        if hasattr(workload, "grid_counts"):
            reference[f"{name}_grid"] = workload.grid_counts()
        print(f"{name}: {len(result.digests)} chunks, {result.ops} ops", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["decompose", "orders", "levels", "check"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
