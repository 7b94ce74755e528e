#!/usr/bin/env python3
"""Run one crreflect benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph_reality --seed 1 \
        --seconds 25 --trace 0

Run it from the root of a checkout: the program is imported from `./src`,
never from an installed copy.  With `--trace 0` the last line of standard
output is a JSON object holding the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics of a traced pass.  The line before it is the
full record: provenance, the failures, the tail percentile and, when traced,
the exact operation counts.  `--out FILE` also writes that record to FILE.

A run makes a fixed number of passes over the workload's ops, derived from
`--seconds` and the workload's nominal pass time, so two runs with the same
`--seconds` always time the same executions.  Exit status: 0 when every op
is correct or fails only in a known way (see `workloads.KNOWN_FAILURES`),
1 otherwise, 2 when no program sources are found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))

# Seconds one pass over a workload's ops takes with pure-Python kernels on
# a 2-core x86-64 container; sets the pass count for a given --seconds.
NOMINAL_PASS_S = {
    "graph_reality": 8.7,
    "segre_minimality": 3.8,
    "reflection_resolution": 3.3,
    "manifest_analyze": 2.5,
}
DEFAULT_SEED = 0  # the seed whose op digests are pinned in pins.json
PINS = os.path.join(HERE, "pins.json")
SETUP_SAMPLES = 5  # processes whose setup time is measured
SETUP_SPEED_SAMPLES = 20  # speed samples behind the scale of one setup
MIN_SPEED_SAMPLES = 8  # speed samples behind the scale of one op
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "cpu_s": "s", "wall_s": "s", "ops_per_cpu_s": "1/s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


def _locate_program(root):
    """Put the checkout's sources first on sys.path and import them."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "crreflect", "__init__.py")):
        print("perfbench: no crreflect sources under %s; run from the root "
              "of a checkout" % src, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import crreflect
    if not os.path.abspath(crreflect.__file__).startswith(src + os.sep):
        print("perfbench: crreflect imported from %s, not from %s"
              % (crreflect.__file__, src), file=sys.stderr)
        sys.exit(2)
    return crreflect


def cpu_seconds():
    """User+system CPU of this (single-threaded) process and its finished
    children.  The thread clock stays exact while the speed sampler's
    process-wide CPU timer is armed; the process clock does not."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + kids.ru_utime + kids.ru_stime


# -- statistics ---------------------------------------------------------------


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile): the (n - beyond)-th smallest sample and
    100 * (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError("need more than %d samples, got %d" % (beyond, n))
    return sorted(values)[n - beyond - 1], 100.0 * (n - beyond) / n


def passes_for(seconds, workload):
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


# -- executing ops ------------------------------------------------------------


class Execution:
    """One op execution: CPU and wall seconds net of the speed sampler's
    own time, and the CPU and wall scales to the reference speed (1.0 when
    not sampled)."""

    __slots__ = ("cpu", "wall", "outcome", "kind", "scale")

    def __init__(self, cpu, wall, outcome, kind, scale=(1.0, 1.0)):
        self.cpu = cpu
        self.wall = wall
        self.outcome = outcome
        self.kind = kind  # None, "raise", "exit" or "check"
        self.scale = scale

    @property
    def scaled_cpu(self):
        return self.cpu * self.scale[0]

    @property
    def scaled_wall(self):
        return self.wall * self.scale[1]


def execute(op, workloads):
    c0, w0 = cpu_seconds(), time.perf_counter()
    try:
        out = op.call()
        kind = None if out.problem is None else out.kind
    except Exception as exc:  # any program error is one failed op
        msg = "%s: %s" % (type(exc).__name__, exc)
        out = workloads.Outcome(workloads.digest(msg), msg)
        kind = "raise"
    return Execution(cpu_seconds() - c0, time.perf_counter() - w0, out, kind)


def run_pass(ops, workloads, tracer=None, sampler=None):
    """Execute every op once.  With a sampler, each op's times exclude the
    sampler's handler, and its scale comes from the speed samples taken
    during the op plus the one on each side."""
    result, windows = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        if sampler is None:
            result.append(execute(op, workloads))
            continue
        lo, spent = len(sampler.samples), sampler.spent
        ex = execute(op, workloads)
        ex.cpu -= sampler.spent[0] - spent[0]
        ex.wall -= sampler.spent[1] - spent[1]
        result.append(ex)
        windows.append((lo, len(sampler.samples)))
    for ex, (lo, hi) in zip(result, windows):
        # Widen to the samples on each side, and to at least
        # MIN_SPEED_SAMPLES around a short op: one sample is too noisy.
        lo, hi = max(lo - 1, 0), hi + 1
        if hi - lo < MIN_SPEED_SAMPLES:
            lo = max((lo + hi - MIN_SPEED_SAMPLES) // 2, 0)
            hi = lo + MIN_SPEED_SAMPLES
        ex.scale = sampler.scale(lo, hi)
    return result


def judge(labels, passes, pins, known_kinds):
    """One verdict per op over all its executions.

    An op fails at most once: on its first execution's raise, non-zero exit
    or failed check, or else on executions that disagree, or else on a
    digest that differs from a pin recorded as passing.  A failure is
    "loud" unless it is a known kind and the op was not pinned as passing.
    """
    verdicts = []
    for i, label in enumerate(labels):
        first = passes[0][i]
        kind, detail, known = first.kind, first.outcome.problem, \
            first.outcome.known
        if kind is None and any(p[i].outcome.digest != first.outcome.digest
                                for p in passes[1:]):
            kind, detail, known = "nondeterministic", "digests differ", None
        pin = pins.get(label) if pins is not None else None
        if pin is not None and pin["passed"]:
            if kind is None and first.outcome.digest != pin["digest"]:
                kind, detail = "digest", "digest %s != pinned %s" % (
                    first.outcome.digest, pin["digest"])
            known = None
        if kind is not None and known not in known_kinds:
            known = None
        verdicts.append({"op": label, "kind": kind, "known": known,
                         "detail": detail, "digest": first.outcome.digest,
                         "loud": kind is not None and known is None})
    return verdicts


def load_pins(args):
    """Pinned digests of the workload at the default seed, if any apply."""
    workload, seed = args.workload, args.seed
    if args.pin or seed != DEFAULT_SEED or not os.path.exists(PINS):
        return None
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


# -- metrics ------------------------------------------------------------------


def end_to_end(passes, setup_samples):
    """The end-to-end metrics of the untraced passes; every time is scaled
    to the reference speed (see calibrate.py)."""
    pass_cpu = [sum(e.scaled_cpu for e in p) for p in passes]
    pass_wall = [sum(e.scaled_wall for e in p) for p in passes]
    per_op = [[p[i].scaled_cpu for p in passes] for i in range(len(passes[0]))]
    tail_value, tail_pct = tail([t for op in per_op for t in op])
    cpu_s = statistics.median(pass_cpu)
    values = {
        "setup_s": statistics.median(setup_samples),
        "cpu_s": cpu_s,
        "wall_s": statistics.median(pass_wall),
        "ops_per_cpu_s": len(per_op) / cpu_s,
        "op_p50_ms": statistics.median(map(statistics.median, per_op)) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"op_tail_percentile": tail_pct,
              "op_samples": len(per_op) * len(passes),
              "pass_cpu_s": pass_cpu, "setup_samples_s": setup_samples,
              "pass_cpu_unscaled_s": [sum(e.cpu for e in p) for p in passes],
              "op_cpu_scaled_ms": [[round(t * 1e3, 3) for t in op]
                                   for op in per_op]}
    return values, detail


def _metric_block(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _setup_sample(root, workload, seed):
    """CPU seconds a fresh process needs to import and build the inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(crreflect, root, workload, seed, n_ops, n_passes):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "kernel_backend": crreflect.kernel_backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": _tree_digest(os.path.join(root, "src")),
        "workload": workload, "seed": seed, "ops": n_ops,
        "passes": n_passes,
    }


def _tree_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(path)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, path).encode() + b"\0")
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# -- main ---------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this file")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--pin", action="store_true",
                    help="record this run's op digests in pins.json "
                    "(only with the default seed)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench", "work-%d" % os.getpid())
    sampler = calibrate.SpeedSampler()
    try:
        with sampler:
            crreflect = _locate_program(root)
            import workloads
            os.makedirs(workdir, exist_ok=True)
            ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
            setup_s = cpu_seconds() - sampler.spent[0]
            sampler.top_up(SETUP_SPEED_SAMPLES)
            setup_s *= sampler.scale()[0]
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            if not args.trace:
                setup = [setup_s] + [
                    _setup_sample(root, args.workload, args.seed)
                    for _ in range(SETUP_SAMPLES - 1)]
                record, metrics, correct = untraced(args, ops, workloads,
                                                    setup, sampler)
        if args.trace:
            record, metrics, correct = traced(args, ops, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["provenance"] = provenance(
        crreflect, root, args.workload, args.seed, len(ops),
        record.pop("passes"))
    if args.pin:
        write_pins(args, record)
    failed = sum(v["kind"] is not None for v in record["verdicts"])
    for v in record["verdicts"]:
        if v["kind"] is not None:
            print("%s %s: %s: %s" % ("FAIL" if v["loud"] else "known",
                                     v["op"], v["known"] or v["kind"],
                                     v["detail"]),
                  file=sys.stderr)
    record["failed_ratio"] = failed / len(ops)
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record["result"] = result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def untraced(args, ops, workloads, setup, sampler):
    n_passes = passes_for(args.seconds, args.workload)
    passes = [run_pass(ops, workloads, sampler=sampler)
              for _ in range(n_passes)]
    verdicts = judge([op.label for op in ops], passes,
                     load_pins(args),
                     workloads.KNOWN_FAILURES)
    values, detail = end_to_end(passes, setup)
    record = {"verdicts": verdicts, "end_to_end": values, "detail": detail,
              "passes": n_passes}
    correct = not any(v["loud"] for v in verdicts)
    return record, _metric_block(values, END_TO_END_UNITS), correct


def traced(args, ops, workloads):
    """One untraced pass, then two traced passes: the first gives the layer
    metrics, the second must repeat its exact counts."""
    import tracer as tracing

    labels = [op.label for op in ops]
    plain = run_pass(ops, workloads)
    runs = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            runs.append((tr, run_pass(ops, workloads, tr)))
        finally:
            tr.uninstall()
    problems = []
    if not tracing.originals_restored():
        problems.append("tracer left wrappers installed")
    (tr, first), (tr2, second) = runs
    if [e.outcome.digest for e in first] != [e.outcome.digest for e in plain]:
        problems.append("traced digests differ from untraced ones")
    if tr.exact_counts() != tr2.exact_counts():
        problems.append("layer counts differ between two traced passes")

    verdicts = judge(labels, [plain, first, second],
                     load_pins(args),
                     workloads.KNOWN_FAILURES)
    layers = tr.layer_metrics()
    layers["trace.overhead_ratio"] = (sum(e.cpu for e in first)
                                      / sum(e.cpu for e in plain))
    spans = os.path.join(".perfbench", "spans-%s-%d.tsv.gz"
                         % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    tr.write_spans(spans)
    for p in problems:
        print("FAIL trace: %s" % p, file=sys.stderr)
    record = {"verdicts": verdicts, "layers": layers,
              "exact_counts": tr.exact_counts(), "trace_problems": problems,
              "spans_file": spans, "spans": len(tr.start), "passes": 3}
    correct = not problems and not any(v["loud"] for v in verdicts)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return record, _metric_block(layers, units), correct


def write_pins(args, record):
    if args.seed != DEFAULT_SEED:
        raise SystemExit("pins are recorded for seed %d only" % DEFAULT_SEED)
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    pins[args.workload] = {v["op"]: {"digest": v["digest"],
                                     "passed": v["kind"] is None}
                           for v in record["verdicts"]}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
