"""Benchmark runner: one workload, one seed, one process, no threads.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-q --seed 1 --seconds 30 --trace 0

It builds the seeded inputs, then repeats passes over them (a pass runs
every input once, as one op each) until the next pass would overrun
``--seconds`` and at least MIN_OPS ops have run.  Every op's output is
checked, and every pass must reproduce the first pass's outputs exactly.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import time

T0 = time.perf_counter()  # start of set-up: before any other import

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipeline-q", "pipeline-gfp", "cli-verify")
MIN_OPS = 100  # so that op_s_p90 has at least ten ops beyond it
OP_LIMIT_S = 10.0  # an op still running after this long is stopped and failed
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh interpreters
SETUP_REFERENCES = 7  # reference times after each set-up, for its speed factor
MIN_COVERAGE = 0.9  # share of each traced pass's op time the package's spans must cover

# reference_work() runs every REFERENCE_EVERY_S seconds of a pass.  Op
# times are scaled to the machine speed at which it takes REFERENCE_S: its
# time on an unloaded 2-vCPU x86-64 VM with Python 3.11.7.
REFERENCE_EVERY_S = 0.2
REFERENCE_S = 0.003

# About 5 MB, more than a core's private caches: a reference that fits in
# them slowed down about twice as much as the ops when the machine did.
_REFERENCE_TUPLES = [tuple(range(i % 7, i % 7 + 4)) for i in range(60000)]


def reference_work():
    """Fixed work independent of the package: a walk over a large list and
    a dict build, which slow down with the machine as the ops do."""
    acc = 0
    for t in _REFERENCE_TUPLES[::3]:
        acc += t[1] * t[2] % 7
    table = {i: (i, i * 3 % 11) for i in range(8000)}
    return acc, len(table)


class OpTimeout(BaseException):
    """Raised in an op that exceeded OP_LIMIT_S.

    A BaseException, so no handler inside the package can swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_limited(fn, limit):
    """fn() under a wall-clock limit; raises OpTimeout when it is exceeded."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_package(root):
    """Import groupoidalg from ``root``/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "groupoidalg", "__init__.py")):
        raise SystemExit(f"perfbench: {src}/groupoidalg not found; run from the repository root")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import groupoidalg

    if os.path.dirname(os.path.abspath(groupoidalg.__file__)) != os.path.join(src, "groupoidalg"):
        raise SystemExit(f"perfbench: imported groupoidalg from {groupoidalg.__file__}, not {src}")


# ---------------------------------------------------------------------------
# ops


class Op:
    """One timed unit of work: ``fn()`` returns outputs to check and hash."""

    __slots__ = ("label", "fn", "case")

    def __init__(self, label, fn, case):
        self.label, self.fn, self.case = label, fn, case


def make_ops(workload, seed, workdir):
    """The inputs of one pass, generated from the seed, as ops."""
    import gen
    import workloads as w

    if workload in ("pipeline-q", "pipeline-gfp"):
        schedule = w.PIPELINE_Q if workload == "pipeline-q" else w.PIPELINE_GFP
        cases = gen.generate(schedule, seed, workload)
        return [Op(f"{c['name']}/{w.field_of(c['p'])}/{c['twist']}",
                   (lambda c=c: w.pipeline_op(c)), c) for c in cases]
    cases = gen.generate(w.CLI_FILES, seed, workload, modules=True)
    ops = []
    for i, c in enumerate(cases):
        path = w.problem_path(workdir, i)
        w.write_problem(c, path)
        for command, args in w.cli_commands(c):
            label = f"{command} {' '.join(args)} {c['name']}/{w.field_of(c['p'])}/{c['twist']}"
            ops.append(Op(label, (lambda c=c, p=path, cmd=command, a=args:
                                  w.cli_op(c, p, cmd, a)), c))
    return ops


class Pass:
    """Op times, reference times, output hashes and failures of one pass.

    The machine this runs on can change speed by a third or more for tens
    of seconds at a time, evenly across ops.  ``scaled`` multiplies the
    pass's op times by REFERENCE_S over the pass's median reference time:
    the op times at the speed where the reference takes REFERENCE_S.
    """

    def __init__(self):
        self.times = []
        self.references = []
        self.digests = []
        self.failures = []  # (op index, reason)
        self.covered = []  # traced: (time in the package's spans, time of op.fn) per op

    @property
    def wall(self):
        return sum(self.times)

    @property
    def speed(self):
        return REFERENCE_S / statistics.median(self.references)

    @property
    def scaled(self):
        return [t * self.speed for t in self.times]


def run_pass(ops, tracer=None):
    """Run every op once; time it, check it and hash its outputs."""
    import workloads as w

    out = Pass()
    last_reference = -REFERENCE_EVERY_S
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        reason = None
        result = None
        covered = tracer.top_s if tracer is not None else 0.0
        start = time.perf_counter()
        try:
            result = run_limited(op.fn, OP_LIMIT_S)
        except OpTimeout:
            reason = f"stopped at the {OP_LIMIT_S:g} s limit"
        except w.CheckFailed as exc:
            reason = f"check failed: {exc}"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            reason = f"raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            out.covered.append((tracer.top_s - covered, time.perf_counter() - start))
        # An Inclusion holds reference cycles.  Collecting them here, in the
        # op's time, makes each op pay for its own garbage and keeps it from
        # sitting in memory for a varying time.
        gc.collect()
        out.times.append(time.perf_counter() - start)
        start = time.perf_counter()
        if start - last_reference >= REFERENCE_EVERY_S:
            reference_work()
            last_reference = time.perf_counter()
            out.references.append(last_reference - start)
        if reason is None:
            out.digests.append(hashlib.sha256(repr(result).encode()).hexdigest())
        else:
            out.digests.append(None)
            out.failures.append((i, reason))
    return out


def measure(ops, seconds, tracer=None, min_ops=MIN_OPS):
    """Passes until the next one would overrun ``seconds`` and min_ops ran."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.keep_spans = not passes  # spans of the first pass only
        passes.append(run_pass(ops, tracer))
        elapsed = time.perf_counter() - start
        done = sum(len(p.times) for p in passes)
        if done >= min_ops and elapsed + passes[-1].wall > seconds:
            return passes


# ---------------------------------------------------------------------------
# results


def outcome(ops, passes):
    """(attempted, failed, failure lines, outputs digest or None)."""
    attempted = sum(len(p.times) for p in passes)
    lines = []
    for p in passes:
        for i, reason in p.failures:
            lines.append(f"failed: {ops[i].label}: {reason}")
    first = passes[0].digests
    for n, p in enumerate(passes[1:], start=2):
        for i, (a, b) in enumerate(zip(first, p.digests)):
            if a is not None and b is not None and a != b:
                lines.append(f"failed: {ops[i].label}: pass {n} output differs from pass 1")
    failed = sum(len(p.failures) for p in passes)
    digest = None
    if all(d is not None for d in first):
        digest = hashlib.sha256("".join(first).encode()).hexdigest()
    return attempted, failed, lines, digest


def pass_time(passes):
    """Summed scaled op time of a pass, each op taking its median over the passes."""
    return sum(statistics.median(ts) for ts in zip(*(p.scaled for p in passes)))


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_speed():
    """REFERENCE_S over the median of SETUP_REFERENCES reference times, taken
    right after set-up: the factor that scales set-up time like op times."""
    times = []
    for _ in range(SETUP_REFERENCES):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


def setup_sample(workload, seed):
    """(set-up time, speed) of a fresh interpreter running this file with --setup-only."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return tuple(map(float, proc.stdout.strip().splitlines()[-1].split()))


def known_limit_probe(seed, workdir):
    """Run KNOWN_LIMIT_CASE once under the per-op limit; returns a report line."""
    import gen
    import workloads as w

    slot, (command, args) = w.KNOWN_LIMIT_CASE
    case = gen.generate([slot], seed, "known-limit", modules=True)[0]
    path = os.path.join(workdir, "known_limit.gkd")
    w.write_problem(case, path)
    label = f"{command} {' '.join(args)} on {case['name']}/Q/{case['twist']}"
    start = time.perf_counter()
    try:
        from groupoidalg import cli

        _, code = run_limited(lambda: cli.run(command, path, args), OP_LIMIT_S)
        status = f"finished with exit code {code}"
    except OpTimeout:
        status = f"stopped at the {OP_LIMIT_S:g} s limit (failed)"
    return f"known-limit case: {label}: {status} after {time.perf_counter() - start:.2f} s"


def inclusion_peak_kb(ops):
    """Largest tracemalloc peak of building Inclusion, over the pass's inputs."""
    import workloads as w
    from groupoidalg.isotropy import Inclusion

    peak = 0
    seen = set()
    for op in ops:
        if id(op.case) in seen:
            continue
        seen.add(id(op.case))
        gpd, cocycle = w.build(op.case)
        tracemalloc.start()
        try:
            Inclusion(gpd, cocycle)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1024


def coverage(passes):
    """Lowest share, over the passes, of a pass's op time covered by spans.

    Taken per pass, not per op: the benchmark's own part of an op (the
    timer, the call and the checks) is a fixed 0.1-0.3 ms, a large share
    of the shortest ops.
    """
    return min(sum(c for c, _ in p.covered) / sum(t for _, t in p.covered) for p in passes)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and exit")
    ns = parser.parse_args(argv)
    if ns.workload == "all":
        return run_all(ns)

    root = os.getcwd()
    load_package(root)
    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = make_ops(ns.workload, ns.seed, workdir)
        setup_raw = time.perf_counter() - T0
        # Later collections skip everything set-up made (sympy alone is a
        # large heap), so the collection after each op stays cheap.
        gc.freeze()
        setup = (setup_raw, setup_speed())
        if ns.setup_only:
            print(*map(repr, setup))
            return 0
        lines = [f"workload {ns.workload} seed {ns.seed}: {len(ops)} ops per pass"]
        consistent = True
        if ns.trace:
            metrics, passes, extra, consistent = traced_run(ns, ops, root)
            lines += extra
        else:
            passes = measure(ops, ns.seconds)
            times = [t for p in passes for t in p.scaled]
            setups = [setup] + [setup_sample(ns.workload, ns.seed)
                                for _ in range(SETUP_SAMPLES - 1)]
            metrics = {
                "wall_s": metric(pass_time(passes), "s"),
                "op_s_p50": metric(statistics.median(times), "s"),
                "op_s_p90": metric(percentile(times, 90), "s"),
                "setup_s": metric(statistics.median(raw * speed for raw, speed in setups), "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            lines.append(f"passes {len(passes)}, ops timed {len(times)}, unscaled set-up samples "
                         f"{', '.join(f'{raw:.3f}' for raw, _ in setups)} s; speed against the "
                         f"reference {', '.join(f'{speed:.3f}' for _, speed in setups)}")
            lines.append(f"unscaled op time per pass {', '.join(f'{p.wall:.3f}' for p in passes)} s; "
                         f"speed against the reference {', '.join(f'{p.speed:.3f}' for p in passes)}")
        attempted, failed, failure_lines, digest = outcome(ops, passes)
        if ns.workload == "cli-verify":
            lines.append(known_limit_probe(ns.seed, workdir))
        lines += failure_lines
        lines.append(f"fail_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
        lines.append(f"outputs sha256 {digest}")
        for name, m in metrics.items():
            lines.append(f"{name} {m['value']:.6g} {m['unit']}")
        correct = not failure_lines and digest is not None and consistent
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(ns):
    """Every workload in a fresh process, one after the other."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--trace", str(ns.trace)],
            check=False)
        code = code or proc.returncode
    return code


def traced_run(ns, ops, root):
    """Untraced passes, then traced passes; returns per-layer metrics."""
    import workloads
    from tracer import Tracer

    plain = measure(ops, ns.seconds / 2, min_ops=1)
    tracer = Tracer()
    tracer.install(extra_namespaces=[workloads])
    try:
        traced = measure(ops, ns.seconds / 2, tracer=tracer, min_ops=1)
    finally:
        tracer.uninstall()
    plain_wall = pass_time(plain)
    traced_wall = pass_time(traced)
    metrics = {name: metric(value, unit)
               for name, (value, unit) in tracer.layer_metrics(len(traced)).items()}
    metrics["isotropy.inclusion_peak_kb"] = metric(inclusion_peak_kb(ops), "KB")
    metrics["trace.overhead"] = metric(traced_wall / plain_wall, "ratio")
    # Traced op time is the layers' self time plus the benchmark's own time
    # (its checks, the collection after each op, and the time outside any
    # span).  The layers must account for nearly all of every pass: package
    # work that no span covers would otherwise pass for the benchmark's own.
    total = sum(p.wall for p in traced)
    own = total - tracer.top_s
    worst = coverage(traced)
    consistent = worst >= MIN_COVERAGE
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    spans_path = os.path.join(outdir, f"spans-{ns.workload}.jsonl")  # the last run's only
    tracer.write_spans(spans_path)
    lines = [
        f"untraced passes {len(plain)}, traced passes {len(traced)}, "
        f"traced wall_s {traced_wall:.6g} s, untraced wall_s {plain_wall:.6g} s",
        "unscaled op time per pass, untraced then traced: "
        + ", ".join(f"{p.wall:.3f}" for p in plain + traced) + " s; speed against the reference "
        + ", ".join(f"{p.speed:.3f}" for p in plain + traced),
        f"traced op time {total:.6f} s = layers' self time {tracer.total_self_s():.6f} s "
        f"+ benchmark's own time {own:.6f} s",
        f"coverage check: the layers' spans cover at least {worst:.2%} of the op time "
        f"(without the collection after each op) of every traced pass, "
        f"required {MIN_COVERAGE:.0%}: "
        + ("ok" if consistent else "FAILED"),
        f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, root)}",
    ]
    return metrics, plain + traced, lines, consistent


if __name__ == "__main__":
    sys.exit(main())
