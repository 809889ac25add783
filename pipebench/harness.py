"""Pure helpers of the pipeline benchmark: statistics, child processes with
their own rusage, parsers of `dcheck` output, and the expected-answer
comparator.  `run.py` drives them; `test_harness.py` tests them."""

import math
import os
import re
import signal
import time
from dataclasses import dataclass


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    n = len(xs)
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def geomean(values):
    """Geometric mean of positive values."""
    xs = list(values)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(values, q):
    """The q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be within 0..100")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

@dataclass
class Child:
    code: int          # exit code; -N when killed by signal N
    wall_s: float      # spawn to exit
    maxrss_mb: float   # the child's own peak RSS, from wait4's rusage


def run_child(argv, out_path, err_path, limit_s):
    """Spawn argv with stdout/stderr to files, wait for it with wait4 and
    return its exit status, wall time and its own peak RSS.  A child still
    running after limit_s seconds is killed (exit code -9)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)

    def on_alarm(_signum, _frame):
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    # Linux reports ru_maxrss in KiB.
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_maxrss / 1024.0)


# --------------------------------------------------------------------------
# Parsers of dcheck output
# --------------------------------------------------------------------------

REPORT_HEAD = re.compile(
    r"^(\S+): (fail-safe|nonmasking|masking) tolerance "
    r"\(invariant (\d+) states, span (\d+) states\)$")
REPORT_VERDICT = re.compile(r"^=> VERDICT: (holds|FAILS|UNKNOWN.*)$")


def parse_reports(text):
    """Every tolerance report in text, in order, as dicts with keys
    subject, cls, invariant, span, verdict.  A report missing its verdict
    line is dropped."""
    reports = []
    current = None
    for line in text.splitlines():
        m = REPORT_HEAD.match(line)
        if m:
            current = {"subject": m.group(1), "cls": m.group(2),
                       "invariant": int(m.group(3)), "span": int(m.group(4))}
            continue
        m = REPORT_VERDICT.match(line)
        if m and current is not None:
            current["verdict"] = m.group(1)
            reports.append(current)
            current = None
    return reports


def parse_synthesis(text):
    """The synthesized program's name, its recovery-state count (0 when no
    corrector was added) and its verification report, or None."""
    m = re.search(r"^synthesized (\S+)$", text, re.M)
    if not m:
        return None
    reports = parse_reports(text)
    if len(reports) != 1:
        return None
    rec = re.search(r"^  corrector added: recovery from (\d+) states$",
                    text, re.M)
    return {"program": m.group(1),
            "recovery_states": int(rec.group(1)) if rec else 0,
            "report": reports[0]}


def parse_monitor(text):
    """Summary counts of a `dcheck monitor` replay, or None."""
    m = re.search(r"^runs: (\d+)  states: (\d+)  faults: (\d+)$", text, re.M)
    v = re.search(r"^safety violations: (\d+)/(\d+)$", text, re.M)
    if not m or not v:
        return None
    return {"runs": int(m.group(1)), "states": int(m.group(2)),
            "faults": int(m.group(3)), "violations": int(v.group(1))}


def monitor_summary(text):
    """The summary lines the traced monitor twin must reproduce."""
    return [line for line in text.splitlines()
            if line.startswith(("runs: ", "safety violations: "))]


def count_stream(path):
    """(runs, states) of a recorded detcor stream: one state per `init`,
    `step` or `fault` record."""
    runs = states = 0
    with open(path) as f:
        for line in f:
            word = line.split(" ", 1)[0].rstrip("\n")
            if word == "run":
                runs += 1
            elif word in ("init", "step", "fault"):
                states += 1
    return runs, states


# --------------------------------------------------------------------------
# Expected-answer comparator
# --------------------------------------------------------------------------

# Exit codes that mean "no verdict": parse/usage error, exhausted budget,
# and the crash code.  A negative code is a signal.
NO_VERDICT_CODES = {2, 3, 125}


def judge(kind, expected, code, stdout, context=None):
    """Hold one invocation's exit code and stdout to its expected answer.

    Returns (reached, ok, reasons): reached is False when the invocation
    produced no verdict at all (crash, signal, time limit, exit 2/3/125
    or unparseable output); ok is True when it reached a verdict equal to
    the expected answer.  context carries the facts a monitor answer is
    stated relative to (runs, states and violations of the recording)."""
    if code < 0 or code in NO_VERDICT_CODES:
        return False, False, ["no verdict: exit %d" % code]
    reasons = []
    if kind == "verify":
        reports = parse_reports(stdout)
        if not reports:
            return False, False, ["no report in output"]
        got = {r["cls"]: r["verdict"] for r in reports}
        if got != expected["classes"]:
            reasons.append("verdicts %r != %r" % (got, expected["classes"]))
        for r in reports:
            for key in ("invariant", "span"):
                if r[key] != expected[key]:
                    reasons.append("%s %s %d != %d" % (
                        r["cls"], key, r[key], expected[key]))
        if code != expected["exit"]:
            reasons.append("exit %d != %d" % (code, expected["exit"]))
    elif kind == "synthesize":
        s = parse_synthesis(stdout)
        if s is None:
            return False, False, ["no synthesis result in output"]
        rep = s["report"]
        if rep["cls"] != expected["class"]:
            reasons.append("class %s != %s" % (rep["cls"], expected["class"]))
        if rep["verdict"] != expected["verdict"]:
            reasons.append("verdict %s != %s" % (
                rep["verdict"], expected["verdict"]))
        if rep["invariant"] != expected["invariant"]:
            reasons.append("invariant %d != %d" % (
                rep["invariant"], expected["invariant"]))
        want_rec = expected["recovery_states"]
        if want_rec == "span-minus-invariant":
            want_rec = rep["span"] - rep["invariant"]
        if s["recovery_states"] != want_rec:
            reasons.append("recovery states %d != %d" % (
                s["recovery_states"], want_rec))
        if code != expected["exit"]:
            reasons.append("exit %d != %d" % (code, expected["exit"]))
    elif kind == "monitor":
        m = parse_monitor(stdout)
        if m is None:
            return False, False, ["no monitor summary in output"]
        want_v = expected["violations"]
        if want_v == "as-recorded":
            want_v = context["violations"]
        for key, val in (("runs", context["runs"]),
                         ("states", context["states"]),
                         ("states", expected["states_per_run"] * context["runs"]),
                         ("violations", want_v)):
            if m[key] != val:
                reasons.append("%s %d != %d" % (key, m[key], val))
        want_exit = expected["exit"]
        if want_exit == "1-if-violations":
            want_exit = 1 if want_v > 0 else 0
        if code != want_exit:
            reasons.append("exit %d != %d" % (code, want_exit))
    else:
        raise ValueError("unknown invocation kind %r" % kind)
    return True, not reasons, reasons
