"""char2forms benchmark: time to verdict per command, one closed-loop client.

    python3 bench/run.py --workload {finite,ratfunc,eta} --seed N --seconds S --trace {0,1}

Run from the repository root.  One client in one process and one thread
sends the next request only after the previous verdict is in.  `finite` and
`ratfunc` call `char2forms.cli.main([command, path])` in-process on generated
documents; `eta` calls the library.  Every output is checked against the
answer fixed by how its input was built (see workloads.py).

`--trace 0` runs rounds of the workload for S seconds of op time and reports
the end-to-end metrics that BENCHMARK.json declares: `setup_s`, `round_ref`
(one round's time to verdict as a multiple of the reference kernel's time,
measured right after each op; see reference.py) and `peak_rss_mb`.  It also
prints the wall-clock `round_ms` and per-command medians.

`--trace 1` runs a fixed, seeded op list once untraced and twice traced (see
tracing.py), checks that the two traced passes give identical counts, checks
the predicted zeros and nonzeros of the layer table, and reports the
per-layer metrics that BENCHMARK.json declares; its spans are written to
`.bench_work/`.  Every run also writes its per-op
records (slot, command, seconds, reference seconds, error) there.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  An op that raises, exits nonzero, prints a wrong verdict
or runs past the per-op limit is failed; a wrong verdict also makes `correct`
false.  The known-defect probes (see workloads.py) are left out of attempted
and failed: their failures are printed on a line of their own and, with
`--trace 1`, as `probe.failed`.  The exit code is nonzero only when the
harness itself breaks.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

OP_LIMIT_S = 60.0       # a stuck op fails instead of stalling the run
OVERRUN_S = 100.0       # no op starts later than this past --seconds
SETUP_SAMPLES = 9       # set-up samples spread evenly over the run, so that
                        # their median spans the machine's slow and fast spells
COMMANDS = ("analyze", "classify", "verify", "decompose", "eta")

# the child of a set-up sample: interpreter start, `import char2forms.cli`,
# and the workload's fields and fixed structures; it prints the clock when
# they are built (perf_counter is CLOCK_MONOTONIC, shared by all processes)
SETUP_CHILD = """\
import sys
src, bench, name, workdir = sys.argv[1:5]
sys.path[:0] = [src, bench]
import char2forms.cli
import workloads
workloads.WORKLOADS[name](workdir)
from time import perf_counter
print(perf_counter())
"""

# The layer table's predicted nonzeros, per workload: at least one count for
# every layer the table says moves there.  A zero means a wrapper stopped
# firing (a rename, a new import alias); the run then reports it as incorrect.
PREDICTED_NONZERO = {
    "finite": [
        "fields.mul.gf2.calls", "fields.mul.gf2k.calls",
        "linalg.Matrix.det.calls", "linalg.Matrix.__mul__.calls",
        "forms.orthogonalize.calls",
        "exterior.hodge.calls", "exterior.pq.calls",
        "kalgebra.build_module.calls",
        "groups.classify.calls", "groups.generate_closure.elements",
        "oracle.enumerate_isometries.full_gl_scan.calls",
        "oracle.enumerate_isometries.backtracking.calls",
        "oracle.IntField.mat_mul.calls", "oracle.IntField.bilinear.calls",
        "oracle.brute_pq_scalar.calls", "oracle.closure_order_matches.calls",
        "cli.parse_document.calls", "cli.output_bytes",
    ],
    "ratfunc": [
        "fields.mul.f2t.calls", "fields.mul.f2tu.calls", "fields.poly_gcd.calls",
        "linalg.Matrix.det.calls", "linalg.Matrix.kernel_basis.calls",
        "forms.orthogonalize.calls", "forms.quadratic_data.calls",
        "exterior.hodge.calls", "exterior.pq.calls",
        "kalgebra.build_module.calls",
        "groups.classify.calls", "groups.sl2_decompose.calls",
        "cli.parse_document.calls", "cli.output_bytes",
    ],
    "eta": [
        "fields.mul.f2t.calls", "fields.mul.f2tu.calls", "fields.poly_gcd.calls",
        "linalg.Matrix.det.calls", "linalg.Matrix.__mul__.calls",
        "exterior.compound_matrix.calls",
        "kalgebra.KModule.k_coordinates.calls",
        "groups.eta.calls", "groups.is_isometry.calls",
        "groups.similitude_multiplier.calls",
    ],
}


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them under `kind`."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class OpTimeout(BaseException):
    """Raised by the per-op alarm; a BaseException so no handler in the
    program under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Outcome:
    slot: str
    command: str
    probe: bool
    seconds: float
    error: str | None          # None when the op passed
    output_bytes: int
    ref_seconds: float | None = None  # reference kernel time right after the op


class Runner:
    """Runs ops, checks outputs and keeps the failure accounting."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.outcomes: list[Outcome] = []
        self.seen: dict = {}
        self.incorrect: list[str] = []

    def run(self, op, tracer=None, op_id: int = 0) -> Outcome:
        limit = max(1.0, min(OP_LIMIT_S, self.deadline - perf_counter()))
        # every op starts from a collected heap, as in a fresh CLI process;
        # otherwise collecting earlier ops' garbage lands in whichever op
        # happens to trigger it
        gc.collect()
        code, out, error = None, "", None
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = perf_counter()
        try:
            if tracer is None:
                code, out = op.run()
            else:
                code, out = tracer.run_op(op_id, f"op.{op.command}", op.run)
        except OpTimeout:
            error = "OpTimeout"
        except Exception as exc:  # the op failed; the run goes on
            error = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start
        if error is None and code not in (0, 1):
            # the error path (exit 2) reports on stderr only: a failed op,
            # not a verdict to check
            error = f"Exit{code}"
        elif error is None:
            problems = op.check(code, out)
            if op.key is not None and self.seen.setdefault(op.key, out) != out:
                problems.append("stdout differs from an earlier run of this document")
            if problems:
                error = "WrongVerdict"
                self.incorrect.extend(f"{op.slot}: {p}" for p in problems)
            elif code != 0:
                error = f"Exit{code}"
        outcome = Outcome(op.slot, op.command, op.probe, seconds, error, len(out.encode()))
        self.outcomes.append(outcome)
        return outcome

    def counted(self) -> list[Outcome]:
        """The ops in attempted/failed: all but the known-defect probes."""
        return [o for o in self.outcomes if not o.probe]

    def failed(self) -> int:
        return sum(o.error is not None for o in self.counted())


def _tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with 10 samples
    beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], (index + 1) / n, n


def _time_of(outcome: Outcome) -> float:
    # a failed op misses any latency limit
    return math.inf if outcome.error is not None else outcome.seconds


def setup_sample(name: str) -> float:
    """Seconds from interpreter start to a built workload, in a fresh process."""
    workdir = WORK / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # the end is the child's own clock reading: waiting for the child's
        # exit would add the interpreter's teardown and the parent's polling
        # (Popen.wait with a timeout sleeps in steps of up to 50 ms)
        start = perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH),
                                name, str(workdir)], check=True, timeout=120,
                               stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        return float(child.stdout.split()[-1]) - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(workload, rng, seconds: float, runner: Runner) -> dict:
    """Closed loop over rounds until `seconds` have passed and one round is
    complete; the partial last round still adds samples to its slots.  The
    set-up samples are taken between ops, evenly spaced over the run, and the
    reference kernel runs right after every timed op (see reference.py)."""
    from reference import speed_sample

    start = perf_counter()
    setup: list[float] = []

    def elapsed() -> float:
        # op time only: the set-up samples do not eat into the measured window
        return perf_counter() - start - sum(setup)

    rounds, expected = 0, None
    while True:
        ops = workload.round(rng)
        expected = expected or [op.slot for op in ops if not op.probe]
        for op in ops:
            if perf_counter() > runner.deadline or (rounds and elapsed() >= seconds):
                break
            if elapsed() >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append(setup_sample(workload.name))
            outcome = runner.run(op)
            if not outcome.probe:
                outcome.ref_seconds = speed_sample(outcome.seconds)
        else:
            rounds += 1
            if elapsed() < seconds:
                continue
        break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload.name))
    timed = runner.counted()
    # the machine's speed during an op: the mean of the kernel samples right
    # before it (after the previous timed op) and right after it
    speed = {id(o): (before.ref_seconds + o.ref_seconds) / 2
             for before, o in zip(timed, timed[1:])}
    speed[id(timed[0])] = timed[0].ref_seconds
    slots: dict[str, list[Outcome]] = {slot: [] for slot in expected}
    for o in timed:
        slots[o.slot].append(o)

    def round_time(time_of) -> float:
        # a slot the run never reached counts as missing its latency limit
        return sum(statistics.fmean(map(time_of, v)) if v else math.inf
                   for v in slots.values())

    print(f"rounds: {rounds} complete, {len(timed)} timed ops in {len(slots)} slots")
    print("setup samples: " + " ".join(f"{x:.3f}" for x in setup) + " s")
    print(f"round_ms: {1000.0 * round_time(_time_of):.3f} ms (wall time, not gated)")
    print(f"reference kernel: {1000.0 * statistics.median(o.ref_seconds for o in timed):.4f} "
          f"ms median")
    for command in COMMANDS:
        values = [_time_of(o) for o in timed if o.command == command]
        if values:
            print(f"{command}_p50_ms: {1000.0 * statistics.median(values):.3f} ms "
                  f"({len(values)} ops)")
    tail, percentile, samples = _tail([_time_of(o) for o in timed])
    print(f"op_tail_ms: {1000.0 * tail:.3f} ms at p{100 * percentile:.1f} of "
          f"{samples} timed ops (10 beyond it)")
    return {"round_ref": round_time(lambda o: _time_of(o) / speed[id(o)]),
            "setup_s": statistics.median(setup)}


def traced_run(workload, rng, seed: int, runner: Runner) -> tuple[dict, list[str]]:
    from tracing import Tracer, median_ms

    ops = [op for _ in range(workload.trace_rounds) for op in workload.round(rng)]
    untraced = [runner.run(op) for op in ops]
    modules = [m for n, m in sys.modules.items()
               if n == "char2forms" or n.startswith("char2forms.")]
    tracers, passes = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.instrument(modules)
        try:
            passes.append([runner.run(op, tracer, i) for i, op in enumerate(ops)])
        finally:
            tracer.restore()
        tracers.append(tracer)
    first = tracers[0]
    harness_problems = []
    counts = [t.exact_counts() for t in tracers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        harness_problems.append(f"traced passes differ in counts: {diff[:10]}")
    harness_problems += predicted_zero_violations(workload.name, counts[0])

    metrics = first.layer_metrics(sum(o.output_bytes for o in passes[0]))
    for command in COMMANDS:
        metrics[f"untraced.{command}.p50_ms"] = median_ms(
            [o.seconds for o in untraced if o.command == command and o.error is None])
    metrics["trace.overhead_ms"] = (median_ms([o.seconds for o in passes[0]])
                                    - median_ms([o.seconds for o in untraced]))
    metrics["trace.span_coverage"] = first.coverage()
    metrics["probe.failed"] = sum(o.probe and o.error is not None for o in untraced)
    harness_problems += [f"predicted nonzero is 0: {name}"
                         for name in PREDICTED_NONZERO[workload.name] if not metrics[name]]
    write_spans(first, f"spans-{workload.name}-seed{seed}.jsonl")
    return metrics, harness_problems


def select(metrics: dict, units: dict) -> dict:
    """The declared metrics, in declaration order; a declared metric the run
    cannot give breaks the harness."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"declared metrics the run does not give: {missing}")
    return {name: metrics[name] for name in units}


def predicted_zero_violations(name: str, counts: dict) -> list[str]:
    """The layer table's predicted zeros: no rational-function field ops on
    `finite`; no oracle work on `ratfunc` and `eta` apart from `direct_g`."""
    if name == "finite":
        zero = [k for k in counts if k.startswith("fields.")
                and (".f2t." in k or ".f2tu." in k)]
    else:
        zero = [k for k in counts if k.startswith(("span.oracle.", "oracle."))
                and k != "span.oracle.direct_g"]
    return [f"predicted zero is {counts[k]}: {k}" for k in zero if counts[k]]


def write_spans(tracer, filename: str) -> None:
    path = WORK / filename
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def write_outcomes(outcomes, name: str, seed: int, trace: int) -> None:
    path = WORK / f"ops-{name}-seed{seed}-trace{trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([{"slot": o.slot, "command": o.command, "probe": o.probe,
                    "seconds": o.seconds, "ref_seconds": o.ref_seconds, "error": o.error}
                   for o in outcomes], handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("finite", "ratfunc", "eta"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "char2forms" / "cli.py").is_file():
        print(f"error: no char2forms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    signal.signal(signal.SIGALRM, _alarm)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](str(workdir))
        rng = random.Random(f"{args.workload}:{args.seed}")
        runner = Runner(deadline=perf_counter() + args.seconds + OVERRUN_S)
        if args.trace:
            units = declared("per_layer")
            metrics, problems = traced_run(workload, rng, args.seed, runner)
        else:
            units = declared("end_to_end")
            metrics = timed_run(workload, rng, args.seconds, runner)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            problems = []
        metrics = select(metrics, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    write_outcomes(runner.outcomes, args.workload, args.seed, args.trace)
    attempted, failed = len(runner.counted()), runner.failed()
    probes = [o for o in runner.outcomes if o.probe]
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"attempted: {attempted}  failed: {failed}  fail_ratio: {failed / attempted:.4f}")
    print(f"known-defect probes (ROADMAP item 1, not counted above): "
          f"{sum(o.error is not None for o in probes)} of {len(probes)} failed")
    for (probe, slot, error), n in sorted(Counter((o.probe, o.slot, o.error)
                                                  for o in runner.outcomes
                                                  if o.error is not None).items()):
        print(f"  {'probe ' if probe else ''}failed {n}x {slot}: {error}")
    for line in runner.incorrect[:20] + problems:
        print(f"  INCORRECT {line}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.incorrect and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
