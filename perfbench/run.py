"""Benchmark for stackbrauer: one workload per run, one client, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload snf-dense --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of the checkout; nothing is installed.
Operations run one after another on one thread.  Each answer is checked by
the oracles in ``oracles.py`` outside the timed region, in a separate
checker process that rebuilds the same operations from the seed, so that
checking neither counts as operation time nor raises the peak memory of
the process that runs the operations.  The loop waits for each verdict
before the next operation starts.  The last line of standard
output is one JSON object: ``correct`` (no answer contradicted an oracle),
``attempted``, ``failed`` (operations whose outcome differs from the oracle's,
including unexpected exceptions and exit codes) and ``metrics``.

``--trace 0`` runs whole passes until ``--seconds`` of operation time and at
least 100 operations have been measured, and reports the end-to-end
metrics.  Their times are scaled to a nominal machine speed by samples of a
fixed reference kernel taken between operations (see :class:`Clock`); the
unscaled total goes to standard error.  ``--trace 1`` runs pass 0 once
untraced and once with spans around every public library function, reports
the per-layer metrics and writes the spans to
``perfbench/out/spans-<workload>.json``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import pickle
import resource
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("snf-dense", "groups", "sectors", "cli")

SETUP_REPEATS = 20    # fresh interpreters per run for setup_s, half before and half after
MIN_OPS = 100         # operations in an end-to-end run, at least: ten lie beyond the p90
REF_EVERY_S = 0.1     # wall time between two samples of the machine's speed, at most
REF_NOMINAL_S = 0.0015 # the reference kernel's time at the nominal machine speed
CLI_TIMEOUT_S = 60.0  # one CLI call
WALL_LIMIT_S = 150.0  # no new operation starts after this much wall time
CHECK_BATCH = 32      # results sent to the checker at once, at most
SMALL_OP_S = 0.005    # results of faster operations may wait for a batch

IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def spawn(argv, env, timeout=CLI_TIMEOUT_S):
    """Run ``argv``; return ``(exit code or None, stdout, stderr, wall s, max RSS KB)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    # wait4 rather than Popen.wait: it also returns the child's own rusage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    code = None if timed_out else proc.returncode
    return code, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), wall, usage.ru_maxrss


def import_samples(env, module: str, repeats: int, warm: bool = False,
                   clock: Clock | None = None) -> list[float]:
    """Times to import ``module``, each measured inside a fresh interpreter.

    With ``warm``, one more import runs first and is not counted: it may
    compile bytecode.  With ``clock``, the times are at the nominal speed.
    """
    values = []
    for i in range(repeats + warm):
        if clock:
            clock.sample()
        start = time.perf_counter()
        code, out, err, _, _ = spawn([sys.executable, "-c", IMPORT_PROBE.format(module)], env)
        if code != 0:
            raise RuntimeError(f"importing {module} failed: {err.decode(errors='replace')}")
        if i or not warm:
            values.append((start, float(out)))
    if clock:
        clock.sample()
        return [clock.scale(start, seconds) for start, seconds in values]
    return [seconds for _, seconds in values]


def import_seconds(env, module: str, repeats: int) -> float:
    """Median time to import ``module``, measured inside fresh interpreters."""
    return statistics.median(import_samples(env, module, repeats, warm=True))


def interpreter_start_seconds(env, repeats: int) -> float:
    return statistics.median(spawn([sys.executable, "-c", "pass"], env)[3]
                             for _ in range(repeats))


def reference_kernel() -> int:
    """A fixed piece of pure-Python work of the library's kind: integer
    elimination on a small matrix and tuple-keyed dictionary updates."""
    n = 16
    a = [[(i * 37 + j * 11) % 101 - 50 for j in range(n)] for i in range(n)]
    a = [row[:i] + [row[i] + 60] + row[i + 1:] for i, row in enumerate(a)]
    prev = 1
    for k in range(n - 1):  # Bareiss: the entries grow to the size of minors
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    counts: dict = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    return a[-1][-1] + len(counts)


class Clock:
    """Samples of the machine's speed, to express times at a nominal speed.

    On a shared host the speed of one core moves by up to a factor of two
    over tens of seconds, and every operation slows down with it.  A sample
    is the wall time of :func:`reference_kernel`.  An operation's time is
    scaled by ``REF_NOMINAL_S`` over the median of the four samples nearest
    to it (two before, two after), so a change in the library moves the
    scaled time and a change in the machine's speed mostly does not.
    """

    def __init__(self):
        reference_kernel()  # warm-up
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.stamps.append((start + end) / 2)
        self.seconds.append(end - start)

    def maybe_sample(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the nominal speed."""
        i = bisect.bisect(self.stamps, start + seconds / 2)
        near = self.seconds[max(0, i - 2):i + 2]
        return seconds * REF_NOMINAL_S / statistics.median(near)


def percentile(values, q: float) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def cli_in_process(args):
    """Run ``stackbrauer.cli.main`` in this process, as the console script would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["stackbrauer.cli"].main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue().encode(), err.getvalue().encode()


def verdict(op, outcome):
    try:
        return op.check(outcome)
    except Exception as exc:  # a crashing check is a failed check, not a crashed run
        return ("wrong", f"check raised {exc!r}"[:300])


def check_worker() -> None:
    """Checker process: read batches from stdin, write verdicts to stdout.

    The first message is ``(workload, seed)``; each later one is a list of
    ``(pass index, position, outcome)``, answered by a list of verdicts.
    """
    from workloads import PASSES

    reader, writer = sys.stdin.buffer, sys.stdout.buffer
    workload, seed = pickle.load(reader)
    ops = {}
    while True:
        try:
            batch = pickle.load(reader)
        except EOFError:
            return
        verdicts = []
        for index, position, outcome in batch:
            if index not in ops:
                ops = {index: PASSES[workload](seed, index)}
            verdicts.append(verdict(ops[index][position], outcome))
        pickle.dump(verdicts, writer)
        writer.flush()


class Checker:
    """A process that checks outcomes while the operation loop waits.

    Results travel pickled through a pipe, written in frames, so that
    sending one adds little to the sender's memory.  A separate process
    (rather than a fork per check) leaves the loop's memory pages alone:
    after a fork, the first write to each page faults.
    """

    def __init__(self, env, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "import run; run.check_worker()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=dict(env, PYTHONPATH=os.pathsep.join([str(Path(__file__).resolve().parent),
                                                      env["PYTHONPATH"]])))
        self.alive = True
        self._send((workload, seed))

    def _send(self, message) -> None:
        pickler = pickle.Pickler(self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.fast = True  # no memo: results are acyclic, and a memo holds every object
        pickler.dump(message)
        self.proc.stdin.flush()

    def check(self, batch) -> list:
        if self.alive:
            try:
                self._send(batch)
                return pickle.load(self.proc.stdout)
            except (OSError, EOFError, pickle.UnpicklingError):
                self.alive = False
        return [("wrong", "the checker process died")] * len(batch)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs operations in a closed loop and records times and verdicts."""

    def __init__(self, env, checker, tracer, in_process_cli: bool, deadline: float,
                 clock: Clock | None = None):
        self.env = env
        self.checker = checker
        self.tracer = tracer
        self.in_process_cli = in_process_cli
        self.deadline = deadline
        self.clock = clock
        self.starts: list[float] = []  # perf_counter when each operation started
        self.times: list[float] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.messages: list[str] = []
        self.child_rss_kb = 0
        self.exit_codes: Counter = Counter()
        self.out_bytes = 0

    def _run_one(self, op):
        if op.cli_args is not None and not self.in_process_cli:
            code, out, err, wall, rss = spawn(
                [sys.executable, "-m", "stackbrauer.cli", *op.cli_args], self.env)
            self.child_rss_kb = max(self.child_rss_kb, rss)
            return ("return", (code, out, err)), wall
        call = op.call if op.call is not None else (lambda tracer: cli_in_process(op.cli_args))
        start = time.perf_counter()
        try:
            if self.tracer.enabled:
                with self.tracer.span("op." + op.kind):
                    value = call(self.tracer)
            else:
                value = call(self.tracer)
            outcome = ("return", value)
        except Exception as exc:
            outcome = ("raise", f"{type(exc).__name__}: {exc}"[:300])
        return outcome, time.perf_counter() - start

    def run_pass(self, index: int, ops, start: int = 0) -> None:
        """Run ``ops``, which sit at ``start``, ``start + 1``, ... of pass ``index``."""
        pending = []
        for position, op in enumerate(ops, start):
            if time.monotonic() > self.deadline:
                break
            self.tracer.op = self.attempted
            self.attempted += 1
            if self.clock:
                self.clock.maybe_sample()
            self.starts.append(time.perf_counter())
            outcome, seconds = self._run_one(op)
            self.times.append(seconds)
            if op.cli_args is not None and outcome[0] == "return":
                self.exit_codes[outcome[1][0]] += 1
                self.out_bytes += len(outcome[1][1])
            pending.append((index, position, outcome))
            del outcome  # the next operation must not run beside this result
            if seconds > SMALL_OP_S or len(pending) >= CHECK_BATCH:
                self._check(ops, start, pending)
                pending = []
        if pending:
            self._check(ops, start, pending)
        if self.clock:
            self.clock.sample()

    def _check(self, ops, start, batch) -> None:
        """Send ``batch`` to the checker and wait for its verdicts."""
        verdicts = self.checker.check(batch)
        for (_, position, _), v in zip(batch, verdicts):
            op = ops[position - start]
            if v is not None:
                kind, message = v
                self.failures[kind] += 1
                if len(self.messages) < 20:
                    self.messages.append(" ".join(f"{op.kind}: {kind}: {message}".split()))


def end_to_end(args, env, deadline, passes) -> tuple[list, dict]:
    from spans import Tracer

    clock = Clock()
    module = "stackbrauer.cli" if args.workload == "cli" else "stackbrauer"
    imports = import_samples(env, module, SETUP_REPEATS // 2, warm=True, clock=clock)
    checker = Checker(env, args.workload, args.seed)
    runner = Runner(env, checker, Tracer(enabled=False), in_process_cli=False,
                    deadline=deadline, clock=clock)
    index = 0
    while len(runner.times) < MIN_OPS or sum(runner.times) < args.seconds:
        if time.monotonic() > deadline:
            break
        runner.run_pass(index, passes(args.seed, index))
        index += 1
    checker.close()
    imports += import_samples(env, module, SETUP_REPEATS - SETUP_REPEATS // 2, clock=clock)
    times = [clock.scale(start, seconds) for start, seconds in zip(runner.starts, runner.times)]
    if args.workload == "cli":
        rss_kb = runner.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_p50_ms": (percentile(times, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(times, 0.9) * 1e3, "ms"),
        "pass_share": (1 - sum(runner.failures.values()) / runner.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(imports), "s"),
    }
    print(f"perfbench: {args.workload}: {index} passes, {len(times)} ops, "
          f"{sum(runner.times):.2f} s measured, {sum(times):.2f} s at the nominal speed; "
          f"reference kernel median {statistics.median(clock.seconds) * 1e3:.3f} ms "
          f"over {len(clock.seconds)} samples", file=sys.stderr)
    return [runner], metrics


def _snf_probe(counters, args, dec):
    bits = max((abs(x).bit_length() for m in (dec.left, dec.right)
                for row in m.row_lists() for x in row), default=0)
    key = "abelian.smith_normal_form."
    counters[key + "transform_bits_max"] = max(counters[key + "transform_bits_max"], bits)
    if dec.left.rows == dec.right.rows and dec.d and all(dec.d):
        # nonsingular square: prod(d) = |det A|
        ratio = bits / prod(dec.d).bit_length()
        counters[key + "bits_over_det"] = max(counters[key + "bits_over_det"], ratio)


def _adder(key, measure):
    def probe(counters, args, result):
        counters[key] += measure(result)
    return probe


PROBES = {
    "abelian.smith_normal_form": _snf_probe,
    "abelian.enumerate_subgroups": _adder("abelian.enumerate_subgroups.subgroups", len),
    "rootdata.brauer_group_of_bg": _adder("rootdata.kernel_order_sum", lambda g: g.order()),
    "covers.enumerate_admissible": _adder("covers.enumerate_admissible.data", len),
}

# Counters the probes fill, with their units.
COUNTED = {
    "abelian.smith_normal_form.transform_bits_max": "bits",
    "abelian.smith_normal_form.bits_over_det": "ratio",
    "abelian.enumerate_subgroups.subgroups": "count",
    "rootdata.kernel_order_sum": "count",
    "covers.enumerate_admissible.data": "count",
}

# Per-function metrics of the traced run: span name -> reported fields.
TRACED = {
    "abelian.smith_normal_form": ("calls", "self_s"),
    "abelian.cokernel": ("calls", "self_s"),
    "abelian.from_cyclic_moduli": ("calls", "self_s"),
    "abelian.generated_subgroup": ("calls", "self_s"),
    "abelian.enumerate_subgroups": ("calls", "self_s"),
    "rootdata.center": ("calls", "self_s"),
    "rootdata.spec_build": ("self_s",),
    "rootdata.brauer_group_of_bg": ("self_s",),
    "covers.enumerate_admissible": ("calls", "self_s"),
    "covers.sector_report": ("calls", "self_s"),
    "covers.decompose_inertia": ("self_s",),
    "brauer.brauer_report": ("calls", "self_s"),
    "brauer.base_brauer_group": ("calls", "self_s"),
    "cli.main": ("self_s",),
}


def per_layer(args, env, deadline, passes) -> tuple[list, dict]:
    import stackbrauer.cli  # noqa: F401 - traced in process
    from spans import LAYERS, Tracer

    # Each operation runs untraced and then traced, so that drift in the
    # machine's speed during the run does not enter the tracing overhead.
    checker = Checker(env, args.workload, args.seed)
    plain = Runner(env, checker, Tracer(enabled=False), in_process_cli=True, deadline=deadline)
    tracer = Tracer()
    traced = Runner(env, checker, tracer, in_process_cli=True, deadline=deadline)
    for position, op in enumerate(passes(args.seed, 0)):
        plain.run_pass(0, [op], position)
        tracer.install(PROBES)
        try:
            traced.run_pass(0, [op], position)
        finally:
            tracer.uninstall()
    checker.close()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.json")

    totals = tracer.totals()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in totals.items()
                                          if k.split(".")[0] == layer), "s")
    metrics["trace.untraced_s"] = (sum(plain.times), "s")
    metrics["trace.overhead_s"] = (sum(traced.times) - sum(plain.times), "s")
    for name, fields in TRACED.items():
        for f in fields:
            metrics[f"{name}.{f}"] = (totals[name][f], "count" if f == "calls" else "s")
    for name, unit in COUNTED.items():
        metrics[name] = (tracer.counters[name], unit)
    subgroups = tracer.counters["abelian.enumerate_subgroups.subgroups"]
    metrics["abelian.enumerate_subgroups.s_per_subgroup"] = (
        totals["abelian.enumerate_subgroups"]["total_s"] / subgroups if subgroups else 0.0, "s")
    reports = totals["covers.sector_report"]["calls"]
    metrics["covers.is_admissible.calls_per_datum"] = (
        totals["covers.is_admissible"]["calls"] / reports if reports else 0.0, "ratio")
    metrics["cli.import_s"] = (import_seconds(env, "stackbrauer.cli", 5), "s")
    metrics["cli.interp_start_s"] = (interpreter_start_seconds(env, 5), "s")
    metrics["cli.out_bytes"] = (traced.out_bytes, "B")
    for code in (0, 1, 2):
        metrics[f"cli.exit_{code}"] = (traced.exit_codes[code], "count")
    print(f"perfbench: {args.workload}: traced {traced.attempted} ops, "
          f"{len(tracer.spans)} spans", file=sys.stderr)
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stackbrauer" / "__init__.py").is_file():
        print(f"perfbench: no stackbrauer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    deadline = time.monotonic() + WALL_LIMIT_S

    import stackbrauer
    if Path(stackbrauer.__file__).resolve().parent != SRC / "stackbrauer":
        print(f"perfbench: imported {stackbrauer.__file__}, not the checkout", file=sys.stderr)
        return 2
    from workloads import PASSES

    measure = per_layer if args.trace else end_to_end
    runners, metrics = measure(args, env, deadline, PASSES[args.workload])
    failures = sum((r.failures for r in runners), Counter())
    for r in runners:
        for line in r.messages:
            print(f"perfbench: failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failures["wrong"] == 0,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
