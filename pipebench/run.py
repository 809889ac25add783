#!/usr/bin/env python3
"""Pipeline benchmark: `dcheck verify | synthesize | monitor` end to end,
split by layer.  See pipebench/README.md for the workloads, the metrics
and what each layer metric is predicted to move.

    python3 pipebench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The program is built from source
first (dune).  With --trace 0 the shipped `dcheck` binary runs as a user
runs it: one subprocess at a time, closed loop, --workers 1, and every
output is held to the hand-written answer in pipebench/expected.json.
With --trace 1 every input runs once through the CLI and once through
the in-process traced twin (pipebench/tracer), whose spans give the
per-layer numbers; the two must print the same verdicts.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = "pipebench"
WORK = ".pipebench"
DCHECK = "_build/default/bin/dcheck.exe"
TRACER = "_build/default/pipebench/tracer/tracer.exe"

# Harness time limit for one invocation; an invocation over it is killed
# and counts as failed.
INVOCATION_LIMIT_S = 120.0
# Set-up is repeated at least SETUP_MIN_REPS times, and until the reps
# add up to SETUP_MIN_S, and its median is reported: a few ms of set-up
# needs many reps before its median is steady.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 0.3
# Inputs whose median so far is under SMALL_S run SMALL_EXTRA more times
# after each pass.  Those samples count toward the input's median and are
# checked like any other, but they are not part of the pass's wall time:
# with only two or three passes per run, one slow spawn would otherwise
# move a few-ms input's median, and the geomean with it.
SMALL_S = 0.1
SMALL_EXTRA = 4
# monitor-replay: runs recorded per program, steps per run.
MONITOR_RUNS = 3000
MONITOR_STEPS = 200

CORPUS = ["barrier", "byz4", "leader", "memory", "memory_intolerant",
          "reset7", "ring5", "tmr", "token_ring"]


@dataclass
class Invocation:
    id: str            # key into expected.json
    kind: str          # dcheck subcommand: verify | synthesize | monitor
    args: list         # FILE first, then options
    probe: bool = False  # traced run also times synthesis's full p[]F build


@dataclass
class Workload:
    invocations: list
    # One dcheck argv of the same subcommand, big enough (0.5 s or more)
    # that set-up time is compute and not process-spawn noise.
    warmup: list
    streams: list = field(default_factory=list)  # monitor: programs to record


def dc(name):
    return "examples/dc/%s.dc" % name


WORKLOADS = {
    "verify-corpus": Workload(
        [Invocation("verify:" + n, "verify", [dc(n)]) for n in CORPUS],
        ["verify", dc("byz4")]),
    "verify-reset10": Workload(
        [Invocation("verify:reset10:fail-safe", "verify",
                    ["examples/dc/big/reset10.dc", "--tolerance", "fail-safe"])],
        ["verify", dc("byz4")]),
    "synth-corpus": Workload(
        [Invocation("synthesize:%s:masking" % n, "synthesize", [dc(n)],
                    probe=True)
         for n in ["byz4", "reset7", "tmr", "memory_intolerant"]]
        + [Invocation("synthesize:ring5:nonmasking", "synthesize",
                      [dc("ring5"), "--tolerance", "nonmasking"])],
        ["synthesize", dc("ring5"), "--tolerance", "nonmasking"]),
    "monitor-replay": Workload(
        [Invocation("monitor:ring5", "monitor",
                    [dc("ring5"), "--stream", WORK + "/ring5.stream"]),
         Invocation("monitor:memory", "monitor",
                    [dc("memory"), "--stream", WORK + "/memory.stream"])],
        ["monitor", dc("memory"), "--stream", WORK + "/warmup.stream"],
        streams=["ring5", "memory"]),
}

END_TO_END = [("wall_s", "s"), ("input_geomean_ms", "ms"),
              ("max_rss_mb", "MB"), ("verdict_ok_frac", "ratio"),
              ("setup_s", "s")]

PER_LAYER = [
    ("core.init_states_s", "s"),
    ("core.init_states.enumerated", "count"),
    ("core.init_states.yield", "ratio"),
    ("core.init_states.share", "ratio"),
    ("semantics.span_build_s", "s"),
    ("semantics.span_states", "count"),
    ("semantics.span_edges", "count"),
    ("semantics.span_states_per_s", "1/s"),
    ("semantics.span_edges_per_s", "1/s"),
    ("semantics.builds", "count"),
    ("semantics.full_build_s", "s"),
    ("semantics.full_states_per_s", "1/s"),
    ("semantics.full_edges_per_s", "1/s"),
    ("synthesis.add_s", "s"),
    ("synthesis.builds", "count"),
    ("synthesis.states_visited", "count"),
    ("synthesis.repair_iterations", "count"),
    ("synthesis.recovery_states", "count"),
    ("core.refines_base_s", "s"),
    ("spec.safety_s", "s"),
    ("semantics.p_span_build_s", "s"),
    ("semantics.converge_s", "s"),
    ("core.recover_s", "s"),
    ("core.liveness_s", "s"),
    ("semantics.pred_cache.hit_rate", "ratio"),
    ("lang.elaborate_s", "s"),
    ("core.report_s", "s"),
    ("unattributed_s", "s"),
    ("sim.stream_parse_s", "s"),
    ("sim.syndrome_compile_s", "s"),
    ("sim.syndrome_eval_s", "s"),
    ("sim.syndrome.hit_rate", "ratio"),
    ("sim.safety_scan_s", "s"),
    ("sim.states", "count"),
    ("core.init_states.peak_rss_mb", "MB"),
    ("semantics.span_build.peak_rss_mb", "MB"),
    ("semantics.full_build.peak_rss_mb", "MB"),
    ("synthesis.add.peak_rss_mb", "MB"),
    ("trace_overhead_pct", "%"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --------------------------------------------------------------------------
# Build and set-up
# --------------------------------------------------------------------------

def build():
    """Build dcheck and the traced twin from the checkout's sources."""
    for path in ("dune-project", "bin/dcheck.ml", "lib",
                 "examples/dc/big/reset10.dc", BENCH_DIR + "/tracer/dune"):
        if not os.path.exists(path):
            raise BenchError("not a detcor source checkout: %s is missing"
                             % path)
    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./" + DCHECK.split("/", 2)[2],
         "./" + TRACER.split("/", 2)[2]],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout.decode()[-4000:])


def load_expected():
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        expected = json.load(f)
    for w in WORKLOADS.values():
        for inv in w.invocations:
            if inv.id not in expected:
                raise BenchError("no expected answer for " + inv.id)
    return expected


def invoke(argv, tag):
    """Run one child, returning (Child, stdout text)."""
    out = os.path.join(WORK, tag + ".out")
    err = os.path.join(WORK, tag + ".err")
    child = harness.run_child(argv, out, err, INVOCATION_LIMIT_S)
    with open(out, errors="replace") as f:
        return child, f.read()


def record_stream(program, runs, seed, path):
    """Record a seeded fault-injection stream; return the violations
    dcheck simulate counted while recording it."""
    child, text = invoke(
        [DCHECK, "simulate", dc(program), "--runs", str(runs),
         "--steps", str(MONITOR_STEPS), "--seed", str(seed),
         "--record", path], "record")
    m = re.search(r"^safety violations: (\d+)/(\d+)$", text, re.M)
    if child.code != 0 or not m:
        raise BenchError("recording %s failed (exit %d)" % (program, child.code))
    return int(m.group(1))


def set_up(workload, seed):
    """Everything before timing: the expected answers, the seeded monitor
    streams and their reference counts, and one warm-up invocation.
    Returns (expected, contexts by invocation id)."""
    expected = load_expected()
    contexts = {}
    rng = random.Random(seed)
    for program in workload.streams:
        path = "%s/%s.stream" % (WORK, program)
        violations = record_stream(program, MONITOR_RUNS,
                                   rng.randrange(1, 1 << 30), path)
        runs, states = harness.count_stream(path)
        contexts["monitor:" + program] = {
            "runs": runs, "states": states, "violations": violations}
    if workload.streams:
        record_stream("memory", 10, rng.randrange(1, 1 << 30),
                      WORK + "/warmup.stream")
    child, _ = invoke([DCHECK] + workload.warmup, "warmup")
    if child.code not in (0, 1):
        raise BenchError("warm-up %s exited %d" % (workload.warmup, child.code))
    return expected, contexts


# --------------------------------------------------------------------------
# Untraced: end-to-end metrics
# --------------------------------------------------------------------------

def measure(workload, seed, seconds):
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        expected, contexts = set_up(workload, seed)
        setup_times.append(time.perf_counter() - t0)

    order_rng = random.Random(seed)
    per_input = {inv.id: [] for inv in workload.invocations}
    pass_walls = []
    attempted = failed = ok = 0
    max_rss = 0.0
    reported = set()
    deadline = time.perf_counter() + seconds

    def sample(inv):
        nonlocal attempted, failed, ok, max_rss
        child, text = invoke([DCHECK, inv.kind] + inv.args, "cli")
        reached, good, reasons = harness.judge(
            inv.kind, expected[inv.id], child.code, text, contexts.get(inv.id))
        attempted += 1
        failed += not reached
        ok += good
        if not good and inv.id not in reported:
            reported.add(inv.id)
            print("WRONG %s: %s" % (inv.id, "; ".join(reasons)),
                  file=sys.stderr)
        per_input[inv.id].append(child.wall_s)
        max_rss = max(max_rss, child.maxrss_mb)
        return child.wall_s

    while True:
        order = list(workload.invocations)
        order_rng.shuffle(order)
        pass_walls.append(sum(sample(inv) for inv in order))
        for _ in range(SMALL_EXTRA):
            for inv in order:
                if harness.median(per_input[inv.id]) < SMALL_S:
                    sample(inv)
        if time.perf_counter() >= deadline:
            break

    metrics = {
        "wall_s": harness.median(pass_walls),
        "input_geomean_ms": harness.geomean(
            harness.median(ts) * 1000.0 for ts in per_input.values()),
        "max_rss_mb": max_rss,
        "verdict_ok_frac": ok / attempted,
        "setup_s": harness.median(setup_times),
    }
    print("set-ups: %d  passes: %d  invocations: %d  failed_frac: %.4f"
          % (len(setup_times), len(pass_walls), attempted, failed / attempted))
    print("pass walls: " + " ".join("%.3f" % w for w in pass_walls))
    for inv_id, ts in per_input.items():
        print("input %-36s n=%d median %.1f ms p90 %.1f ms"
              % (inv_id, len(ts), harness.median(ts) * 1e3,
                 harness.percentile(ts, 90) * 1e3))
    return ok == attempted, attempted, failed, metrics, END_TO_END


# --------------------------------------------------------------------------
# Traced: per-layer metrics
# --------------------------------------------------------------------------

def span_seconds(traces, name):
    total = 0.0
    for t in traces:
        total += sum(s["end_s"] - s["start_s"] for s in t["spans"]
                     if s["name"] == name)
        total += t["loops"].get(name, {}).get("s", 0.0)
    return total


def counted(traces, name):
    return sum(t["counts"].get(name, 0) for t in traces)


def peak(traces, name):
    return max([s["peak_rss_mb"] for t in traces for s in t["spans"]
                if s["name"] == name and s["peak_rss_mb"] is not None],
               default=0.0)


def ratio(a, b):
    return a / b if b else 0.0


def attributed(trace):
    """Seconds of a trace covered by its layer spans and loops."""
    return (sum(s["end_s"] - s["start_s"] for s in trace["spans"])
            + sum(v["s"] for v in trace["loops"].values()))


def layer_metrics(twins, probes, cli_walls, twin_walls):
    """Per-layer metrics from the traced twins' traces and the full-build
    probes; the overhead is measured against the untraced CLI walls."""
    verify = [t for t in twins if t["kind"] == "verify"]
    synth = [t for t in twins if t["kind"] == "synthesize"]
    s = lambda name: span_seconds(twins, name)  # noqa: E731
    span_build = s("semantics.span_build")
    full_build = span_seconds(probes, "semantics.full_build")
    hits = counted(verify, "engine.pred_cache.hits")
    misses = counted(verify, "engine.pred_cache.misses")
    syn_hits = counted(twins, "sim.syndrome.hits")
    syn_misses = counted(twins, "sim.syndrome.misses")
    layer_sum = sum(attributed(t) for t in twins)
    return {
        "core.init_states_s": s("core.init_states"),
        "core.init_states.enumerated": counted(twins, "core.init_states.enumerated"),
        "core.init_states.yield": ratio(
            counted(twins, "core.init_states.invariant"),
            counted(twins, "core.init_states.enumerated")),
        "core.init_states.share": ratio(s("core.init_states"), layer_sum),
        "semantics.span_build_s": span_build,
        "semantics.span_states": counted(twins, "semantics.span_states"),
        "semantics.span_edges": counted(twins, "semantics.span_edges"),
        "semantics.span_states_per_s": ratio(
            counted(twins, "semantics.span_states"), span_build),
        "semantics.span_edges_per_s": ratio(
            counted(twins, "semantics.span_edges"), span_build),
        "semantics.builds": counted(verify, "engine.builds"),
        "semantics.full_build_s": full_build,
        "semantics.full_states_per_s": ratio(
            counted(probes, "semantics.full_states"), full_build),
        "semantics.full_edges_per_s": ratio(
            counted(probes, "semantics.full_edges"), full_build),
        "synthesis.add_s": s("synthesis.add"),
        "synthesis.builds": counted(synth, "engine.builds"),
        "synthesis.states_visited": counted(synth, "engine.states_visited"),
        "synthesis.repair_iterations": counted(synth, "synthesis.repair_iterations"),
        "synthesis.recovery_states": counted(synth, "synthesis.recovery_states"),
        "core.refines_base_s": s("core.refines_base"),
        "spec.safety_s": s("spec.safety"),
        "semantics.p_span_build_s": s("semantics.p_span_build"),
        "semantics.converge_s": s("semantics.converge"),
        "core.recover_s": s("core.recover"),
        "core.liveness_s": s("core.liveness"),
        "semantics.pred_cache.hit_rate": ratio(hits, hits + misses),
        "lang.elaborate_s": s("lang.elaborate"),
        "core.report_s": s("core.report"),
        # The twin's own spawn-to-exit wall, so that run-to-run noise
        # between two processes does not land here.
        "unattributed_s": sum(twin_walls) - layer_sum,
        "sim.stream_parse_s": s("sim.stream_parse"),
        "sim.syndrome_compile_s": s("sim.syndrome_compile"),
        "sim.syndrome_eval_s": s("sim.syndrome_eval"),
        "sim.syndrome.hit_rate": ratio(syn_hits, syn_hits + syn_misses),
        "sim.safety_scan_s": s("sim.safety_scan"),
        "sim.states": counted(twins, "sim.states"),
        "core.init_states.peak_rss_mb": peak(twins, "core.init_states"),
        "semantics.span_build.peak_rss_mb": peak(twins, "semantics.span_build"),
        "semantics.full_build.peak_rss_mb": peak(probes, "semantics.full_build"),
        "synthesis.add.peak_rss_mb": peak(twins, "synthesis.add"),
        "trace_overhead_pct": 100.0 * ratio(
            sum(twin_walls) - sum(cli_walls), sum(cli_walls)),
    }


def run_twin(args, tag):
    """Run the traced twin; return (Child, stdout, trace or None when the
    twin wrote no trace)."""
    path = os.path.join(WORK, tag + ".trace.json")
    if os.path.exists(path):
        os.remove(path)
    child, text = invoke([TRACER] + args + ["--out", path], tag)
    if not os.path.exists(path):
        return child, text, None
    with open(path) as f:
        return child, text, json.load(f)


def traced(workload, seed):
    expected, contexts = set_up(workload, seed)
    order = list(workload.invocations)
    random.Random(seed).shuffle(order)
    attempted = failed = 0
    correct = True
    twins, probes, cli_walls, twin_walls = [], [], [], []
    for inv in order:
        child, text = invoke([DCHECK, inv.kind] + inv.args, "cli")
        reached, good, reasons = harness.judge(
            inv.kind, expected[inv.id], child.code, text, contexts.get(inv.id))
        attempted += 1
        failed += not reached
        if not good:
            correct = False
            print("WRONG %s: %s" % (inv.id, "; ".join(reasons)), file=sys.stderr)
        cli_walls.append(child.wall_s)

        tchild, ttext, trace = run_twin(
            [inv.kind] + inv.args + ["--id", inv.id], "twin")
        attempted += 1
        same = (trace is not None and tchild.code == child.code and
                (ttext == text if inv.kind != "monitor" else
                 harness.monitor_summary(ttext) == harness.monitor_summary(text)))
        if (trace is None or tchild.code < 0
                or tchild.code in harness.NO_VERDICT_CODES):
            failed += 1
        if not same:
            correct = False
            print("TRACED != UNTRACED %s (exit %d vs %d)"
                  % (inv.id, tchild.code, child.code), file=sys.stderr)
            continue
        trace["kind"] = inv.kind
        twins.append(trace)
        twin_walls.append(tchild.wall_s)

        if inv.probe:
            pchild, _, probe = run_twin(["full", inv.args[0], "--id", inv.id],
                                        "probe")
            attempted += 1
            if pchild.code != 0 or probe is None:
                failed += 1
                correct = False
            else:
                probes.append(probe)

    for t in twins:
        print("trace %-34s layers %.4f s of %.4f s in process"
              % (t["id"], attributed(t), t["wall_s"]))
    metrics = layer_metrics(twins, probes, cli_walls, twin_walls)
    return correct, attempted, failed, metrics, PER_LAYER


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        workload = WORKLOADS[args.workload]
        if args.trace:
            result = traced(workload, args.seed)
        else:
            result = measure(workload, args.seed, args.seconds)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print("pipebench: %s" % e, file=sys.stderr)
        return 2
    correct, attempted, failed, values, names = result
    metrics = {}
    for name, unit in names:
        print("metric %-36s %14.6g %s" % (name, values[name], unit))
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
