#!/usr/bin/env python3
"""Benchmark of the GriddLeS FM IO stack: four workloads, end-to-end and
per-layer metrics, one traced run per workload.

Contract form (one workload, last stdout line is the JSON result):

    python3 perfbench/run.py --workload open_storm --seed 7 --trace 0

Every workload, untraced runs plus a traced run, as a readable report:

    python3 perfbench/run.py --all --seed 7 [--seconds S]

--seconds defaults to run_seconds in BENCHMARK.json.

The program is built from this checkout's src/ into $CARGO_TARGET_DIR
(default .bench_build). Each run is one deployment in its own child
process (fm_bench), which streams its records (perfbench/workloads.h)
so a crash loses none; README.md in this directory documents the
metrics, workloads and traces.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_replay", "buffer_stream", "staged_fanout", "open_storm")
# Set-up time is the median of the measured run's set-up and those of
# set-up-only children started back to back after it, for at least
# SETUP_WINDOW_S and at least SETUPS_MIN set-ups in all: spread over
# seconds, they ride out the host's short swings in CPU speed.
SETUP_WINDOW_S = 2.0
SETUPS_MIN = 9
UNTRACED_RUNS = 3        # untraced runs per workload in the --all report
CHILD_GRACE_S = 30       # a child still running this long past its
                         # measuring time is killed (a timeout)
SETUP_TIMEOUT_S = 20     # likewise for a set-up-only child
TRACE_OUT = "trace.json"
# FM-workload children run pinned to one CPU (the last this process may
# use).
# The vCPUs of a shared host are descheduled in bursts by other tenants;
# a thread handoff to a descheduled vCPU stalls for milliseconds, so on
# several CPUs the wall time of handoff-heavy workloads swings 2x with
# the neighbours' load. On one CPU every handoff stays on one run queue
# and wall time tracks the CPU the stack spends. README.md discusses
# what this hides.
CHILD_CPU = max(os.sched_getaffinity(0))
# paper_replay's wall time is model time. On one CPU the stack's own cost
# leaks into the model timeline (the scaled clock turns host delays into
# model seconds) and its spread grows; on every CPU the leak is small.
# Its set-up-only children are pinned all the same: set-up has no model
# time, and unpinned its set-ups spread about twice as wide.
UNPINNED = {"paper_replay"}

# Layers of the benchmark's pb.<layer>.* spans, for trace self time.
SPAN_LAYERS = ("core", "gns", "net", "gridbuffer", "remote", "vfs",
               "workflow")


def fail(message: str, code: int = 2) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


# ---- build -----------------------------------------------------------------

def build() -> str:
    """Builds fm_bench from this checkout; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src: nothing to benchmark")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = os.path.join(build_dir, "fm_bench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return binary


# ---- one child run ---------------------------------------------------------

class Run:
    """Records of one fm_bench child, parsed as they stream in."""

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.setup_s = None      # process start -> first timed operation
        self.planned = {}        # body -> planned operations
        self.bodies = {}         # body -> (wall_s, cpu_s, verified_bytes)
        self.ops = []            # (body, latency_s, ok)
        self.peak_rss_mb = None
        self.metrics = {}        # M records (traced runs)
        self.mismatch = False    # an output differed from its input
        self.done = False
        self.exit = None         # exit code, or -signal
        self.timed_out = False

    def feed(self, line: str) -> None:
        parts = line.split()
        if not parts:
            return
        kind = parts[0]
        if kind == "O":
            self.ops.append((int(parts[1]), int(parts[2]) * 1e-9,
                             parts[4] == "1"))
            self.mismatch |= parts[4] == "2"
        elif kind == "X":
            self.mismatch = True
        elif kind == "R":
            self.setup_s = float(parts[1])
        elif kind == "B":
            self.planned[int(parts[1])] = int(parts[2])
        elif kind == "E":
            self.bodies[int(parts[1])] = (float(parts[2]), float(parts[3]),
                                          int(parts[4]))
        elif kind == "P":
            self.peak_rss_mb = float(parts[1])
        elif kind == "M":
            self.metrics[parts[1]] = float(parts[2])
        elif kind == "D":
            self.done = True

    @property
    def ok_ops(self) -> int:
        return sum(1 for op in self.ops if op[2])

    @property
    def clean(self) -> bool:
        return self.done and self.exit == 0

    @property
    def broken(self) -> bool:
        """Ended badly before its set-up, or before its first body."""
        return not self.clean and (self.setup_s is None or
                                   not (self.setup_only or self.bodies))

    @property
    def attempted(self) -> int:
        # A broken run attempted at least the operation it never reached.
        return max(sum(self.planned.values()), 1 if self.broken else 0)

    @property
    def failed(self) -> int:
        # Planned operations of every body started, minus those verified:
        # failures, mismatches, and whatever a crash or timeout left
        # unfinished.
        return self.attempted - self.ok_ops


def no_core_dump() -> None:
    # A child that aborts (open_storm's does, see README.md) leaves no core
    # of its heap behind, in the checkout or wherever the system puts them.
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def run_child(binary: str, workload: str, seed: int, seconds: float,
              trace: bool = False, setup_only: bool = False) -> tuple:
    """Runs one deployment in a child process; returns (Run, work_dir)."""
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = os.path.join(work_root, f"{workload}-{os.getpid()}-"
                                   f"{time.monotonic_ns()}")
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--work", work]
    if workload not in UNPINNED or setup_only:
        cmd += ["--cpu", str(CHILD_CPU)]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(work, TRACE_OUT)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, TMPDIR=work)
    run = Run(setup_only)
    with open(os.path.join(work, "stderr.log"), "w") as err:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                 env=env, text=True, bufsize=1,
                                 preexec_fn=no_core_dump)

        def reader():
            for line in child.stdout:
                run.feed(line)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            run.exit = child.wait(timeout=SETUP_TIMEOUT_S if setup_only
                                  else seconds + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            run.timed_out = True
            child.kill()
            run.exit = child.wait()
        thread.join()
    if not run.clean:
        why = "timed out" if run.timed_out else f"exit status {run.exit}"
        print(f"run.py: {workload} child {why}", file=sys.stderr)
        with open(os.path.join(work, "stderr.log")) as log:
            for line in log.readlines()[-5:]:
                print(f"  | {line.rstrip()}", file=sys.stderr)
    return run, work


def discard(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)


# ---- metrics -----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def tail_quantile(n: int) -> float:
    """Highest percentile (capped at p99) with at least 10 samples beyond
    it; never below the median."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n)) if n else 0.99


def quantile(sorted_values, q: float):
    if not sorted_values:
        return None
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * (len(sorted_values) - 1) + 0.5))]


def end_to_end(run: Run, setups) -> dict:
    """The end-to-end metrics of one untraced run (medians over its
    timed bodies), plus the bookkeeping the report prints."""
    bodies = [run.bodies[k] for k in sorted(run.bodies)]
    ok_per_body = {}
    for body, _, ok in run.ops:
        if ok:
            ok_per_body[body] = ok_per_body.get(body, 0) + 1
    latencies = sorted(lat for _, lat, ok in run.ops if ok)
    tail = tail_quantile(len(latencies))
    ms = lambda seconds: None if seconds is None else seconds * 1e3
    return {
        "setup_s": median(setups),
        "wall_s": median([wall for wall, _, _ in bodies]),
        "cpu_s": median([cpu for _, cpu, _ in bodies]),
        "mb_per_s": median([b / 1e6 / wall for wall, _, b in bodies]),
        "ops_per_s": median([ok_per_body.get(k, 0) / run.bodies[k][0]
                             for k in sorted(run.bodies)]),
        "op_p50_ms": ms(quantile(latencies, 0.5)),
        "op_p99_ms": ms(quantile(latencies, tail)),
        "peak_rss_mb": run.peak_rss_mb,
        "_bodies": len(bodies),
        "_ops": len(latencies),
        "_tail_q": tail,
        "_setups": len(setups),
    }


def self_times(trace_path: str) -> dict:
    """Per-layer self time of the benchmark's spans (pb.<layer>.*) in a
    Chrome trace: a span's duration minus what its direct child spans on
    the same thread cover. Parsed line by line (one event per line) to
    keep memory flat on large traces."""
    per_tid = {}
    with open(trace_path) as trace:
        for line in trace:
            if '"name":"pb.' not in line:
                continue
            line = line.strip()
            start = line.find('{"name"')
            line = line[start:].rstrip(",")
            if line.endswith("]}"):
                line = line[:-2]
            try:
                event = json.loads(line)
            except ValueError:  # the last line of a run that died
                continue
            layer = event["name"].split(".")[1]
            per_tid.setdefault(event["tid"], []).append(
                (float(event["ts"]), float(event["dur"]), layer))
    self_us = {layer: 0.0 for layer in SPAN_LAYERS}

    def finish(entry):  # [end, layer, child_us, dur]
        self_us[entry[1]] = (self_us.get(entry[1], 0.0)
                             + max(0.0, entry[3] - entry[2]))

    for events in per_tid.values():
        events.sort(key=lambda e: (e[0], -e[1]))
        stack = []
        for ts, dur, layer in events:
            while stack and stack[-1][0] <= ts:
                finish(stack.pop())
            if stack:
                stack[-1][2] += dur
            stack.append([ts + dur, layer, 0.0, dur])
        while stack:
            finish(stack.pop())
    return {f"trace.self_s.{layer}": us * 1e-6
            for layer, us in self_us.items()}


# ---- one invocation ----------------------------------------------------------

class Outcome:
    """Accounting shared by every child of one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatch = False
        self.probe_failed = False  # the retained-stack probe's self-check
        self.notes = []

    def add(self, run: Run, label: str) -> None:
        self.attempted += run.attempted
        self.failed += run.failed
        self.mismatch |= run.mismatch
        if not run.clean:
            why = ("timed out" if run.timed_out
                   else f"exit status {run.exit}")
            self.notes.append(
                f"{label}: {why} after {run.ok_ops}/{run.attempted} "
                f"operations verified")


def measure(binary: str, workload: str, seed: int, seconds: float,
            outcome: Outcome) -> dict:
    """One untraced measurement: one full run, then set-up-only children
    (right after the run, so every set-up meets a busy, not an idle, CPU);
    returns its end-to-end metrics.

    The children's scratch directories are deleted only at the end:
    deleting thousands of files stalls the file system's journal for a
    while, and on an ext4 disk open_storm set-ups (which create 352
    files) took 3-5x longer meanwhile."""
    full, work = run_child(binary, workload, seed, seconds)
    works = [work]
    outcome.add(full, workload)
    setups = [] if full.setup_s is None else [full.setup_s]
    until = time.monotonic() + SETUP_WINDOW_S
    while len(setups) < SETUPS_MIN or time.monotonic() < until:
        run, work = run_child(binary, workload, seed, seconds,
                              setup_only=True)
        works.append(work)
        outcome.add(run, f"{workload} (set-up only)")
        if run.setup_s is None:
            break  # one failure is enough; do not spend the time limit
        setups.append(run.setup_s)
    for work in works:
        discard(work)
    return end_to_end(full, setups)


def measure_traced(binary: str, workload: str, seed: int, seconds: float,
                   outcome: Outcome) -> tuple:
    """The traced run, an untraced run of the same length for the tracing
    overhead, and the retained-stack probe's self-check. Returns the
    per-layer metrics and the trace file (kept) of the traced run."""
    half = seconds / 2
    plain, work = run_child(binary, workload, seed, half)
    discard(work)
    outcome.add(plain, f"{workload} (untraced reference)")
    traced, work = run_child(binary, workload, seed, half, trace=True)
    outcome.add(traced, f"{workload} (traced)")
    layers = dict(traced.metrics)
    trace_path = os.path.join(work, TRACE_OUT)
    if os.path.isfile(trace_path):
        layers.update(self_times(trace_path))
    plain_wall = end_to_end(plain, [])["wall_s"]
    traced_wall = end_to_end(traced, [])["wall_s"]
    if plain_wall and traced_wall:
        layers["trace.overhead"] = traced_wall / plain_wall
    probe, probe_work = run_child(binary, "probe_selfcheck", seed, 1.0)
    discard(probe_work)
    layers.update(probe.metrics)
    connections = probe.metrics.get("selfcheck.connections", 0)
    serving = probe.metrics.get("selfcheck.retained_stacks.serving", -1)
    stopped = probe.metrics.get("selfcheck.retained_stacks.stopped", -1)
    # One stack per open connection while serving (a few more for malloc
    # arenas), and none beyond glibc's small stack cache once the clients
    # have closed and the server has stopped and joined its workers. A
    # failure says the probe is wrong, not the program's outputs.
    if not (probe.clean and connections > 0
            and connections <= serving <= connections * 1.1 + 8
            and 0 <= stopped <= 16):
        outcome.probe_failed = True
        outcome.notes.append(
            f"net.retained_stacks self-check FAILED: {serving} serving, "
            f"{stopped} stopped for {connections} connections")
    return layers, work


def load_config() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def result_line(outcome: Outcome, values: dict, specs,
                gated: bool) -> str:
    """The contract's result. A gated (end-to-end) metric that could not
    be measured ends the command with exit 2: a stand-in value would
    read as the best possible one."""
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"])
        if value is None:
            if gated:
                for note in outcome.notes:
                    print(f"run.py: {note}", file=sys.stderr)
                fail(f"{spec['name']} could not be measured: no run "
                     f"completed the work it needs")
            outcome.notes.append(f"metric {spec['name']} not measured")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps({"correct": not outcome.mismatch,
                       "attempted": max(1, outcome.attempted),
                       "failed": outcome.failed, "metrics": metrics})


def contract(args, config: dict) -> int:
    binary = build()
    outcome = Outcome()
    if args.trace:
        values, work = measure_traced(binary, args.workload, args.seed,
                                      args.seconds, outcome)
        discard(work)
        specs = config["per_layer"]
    else:
        values = measure(binary, args.workload, args.seed, args.seconds,
                         outcome)
        specs = config["end_to_end"]
    line = result_line(outcome, values, specs, gated=not args.trace)
    for note in outcome.notes:
        print(f"run.py: {note}", file=sys.stderr)
    print(line)
    return 1 if outcome.mismatch else 0


# ---- the full report -----------------------------------------------------------

def report(args, config: dict) -> int:
    binary = build()
    # The report keeps each workload's trace; drop those of earlier reports.
    shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    units = {m["name"]: m["unit"] for m in config["per_layer"]}
    any_mismatch = probe_failed = False
    for workload in WORKLOADS:
        outcome = Outcome()
        runs = [measure(binary, workload, args.seed, args.seconds, outcome)
                for _ in range(UNTRACED_RUNS)]
        layers, work = measure_traced(binary, workload, args.seed,
                                      args.seconds, outcome)
        any_mismatch |= outcome.mismatch
        probe_failed |= outcome.probe_failed
        frac = outcome.failed / max(1, outcome.attempted)
        print(f"\n=== {workload}  (seed {args.seed}, {args.seconds:g} s "
              f"per run, {UNTRACED_RUNS} untraced runs)")
        print(f"  outputs {'VERIFIED' if not outcome.mismatch else 'MISMATCH'}"
              f"; failed_frac {frac:.6f} "
              f"({outcome.failed} of {outcome.attempted} operations)")
        for note in outcome.notes:
            print(f"  ! {note}")
        print("  end-to-end (median over runs; each run's value is the "
              "median over its timed bodies):")
        # op_p99_ms is reported but not gated: see README.md.
        specs = config["end_to_end"] + [{"name": "op_p99_ms", "unit": "ms"}]
        for spec in specs:
            name, unit = spec["name"], spec["unit"]
            values = [r[name] for r in runs if r[name] is not None]
            extra = ""
            if name == "setup_s":
                extra = f", {runs[0]['_setups']} set-ups in the first run"
            elif name in ("wall_s", "cpu_s", "mb_per_s", "ops_per_s"):
                extra = f", {sum(r['_bodies'] for r in runs)} bodies"
            elif name == "op_p99_ms":
                extra = (f", reported at p{100 * runs[0]['_tail_q']:.4g} "
                         f"of {runs[0]['_ops']} ops")
            elif name == "op_p50_ms":
                extra = f", {sum(r['_ops'] for r in runs)} ops"
            value = median(values)
            shown = "not measured" if value is None else f"{value:.6g}"
            print(f"    {name:<14} {shown:>14} {unit:<5} "
                  f"(n={len(values)} runs{extra})")
        print(f"  per-layer (traced run of {args.seconds / 2:g} s; trace "
              f"{os.path.relpath(os.path.join(work, TRACE_OUT), ROOT)}):")
        for name in sorted(layers):
            print(f"    {name:<34} {layers[name]:>14.6g} "
                  f"{units.get(name, '')}")
    if probe_failed:
        print("\nnet.retained_stacks self-check FAILED: its readings are "
              "not to be trusted (see the notes above)")
    return 1 if any_mismatch else 3 if probe_failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print the report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        fail("perfbench sources are missing")
    config = load_config()
    if args.seconds is None:
        args.seconds = float(config["run_seconds"])
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")
    if args.all:
        return report(args, config)
    if not args.workload:
        fail("give --workload NAME or --all")
    return contract(args, config)


if __name__ == "__main__":
    sys.exit(main())
