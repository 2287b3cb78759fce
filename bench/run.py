"""mimocov benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cellular-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the library is imported from ./src.
The workload's deck of ops is generated from the seed and run in whole
passes, one op at a time, until --seconds of timed work have been done.
Every distinct output is checked afterwards, untimed.  The last line of
standard output is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1); the lines before it are a readable
report, and the full record (run context, failure ledger, every metric)
goes to bench/out/.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP threads at the cores this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    try:
        _cap = min(int(os.environ.get(_var, NPROC)), NPROC)
    except ValueError:
        _cap = NPROC
    os.environ[_var] = str(max(1, _cap))

import argparse
import bisect
import collections
import contextlib
import hashlib
import io
import json
import math
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10
# The reference loop's time at the host speed that times are reported at.
REFERENCE_NOMINAL_S = 1.5e-3
REFERENCE_EVERY_S = 0.03
REFERENCE_REPEATS = 3
# A child process of the benchmark's own, timed like the set-up probe, and
# its start-up time at the host speed that child times are reported at.
CHILD_REFERENCE = ["-c", "import numpy; print('ready', flush=True)"]
CHILD_REFERENCE_NOMINAL_S = 0.15


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import mimocov from this checkout's src/, and only from there."""
    if not (SRC / "mimocov" / "__init__.py").is_file():
        _fail(f"no src/mimocov under {ROOT}; run from the root of a mimocov checkout")
    sys.path.insert(0, str(SRC))
    import mimocov

    if Path(mimocov.__file__).resolve().parent != (SRC / "mimocov").resolve():
        _fail(f"imported mimocov from {mimocov.__file__}, not from {SRC}")
    return mimocov


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list) -> subprocess.CompletedProcess:
    """One child process, waited for before the next starts."""
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)


def reference_loop() -> float:
    """Work of the two kinds the library's ops do, in the benchmark's own
    code: a hypergeometric-style series in pure Python, then short numpy
    recursions on small arrays (convolutions and prefix sums, as in the
    series and density layers).  Against light analytic ops, heavy ones
    and Monte Carlo calls alike, the mix tracked the host's speed better
    than either half alone."""
    import numpy as np

    def ratio(k):
        return (2.3 + k) * (0.6 + k) * 0.9 / ((1.7 + k) * (k + 1.0))

    total = term = 1.0
    for k in range(3000):
        term *= ratio(k)
        total += term
    a = np.linspace(0.1, 1.0, 48)
    for _ in range(25):
        b = np.convolve(a, a)[:48] / 3.0
        a = np.cumsum(b) / float(b.sum()) + 0.01 * np.exp(-a)
    return total + float(a[0])


class HostClock:
    """Times of the reference loop, sampled between ops of the timed loop.

    The shared host's speed swings by up to 2x within seconds, and by up
    to 1.6x over minutes; no repetition inside one run averages that out.
    Op times of the in-process workloads are therefore reported at nominal
    host speed: each execution's time is multiplied by REFERENCE_NOMINAL_S
    over the mean of the reference samples just before and just after it.
    The host's speed is correlated over about 0.1-0.3 s, so a sample taken
    within REFERENCE_EVERY_S of timed work tracks the op.  The loop is the
    benchmark's own code, so a change in the library moves scaled times
    exactly as it moves raw ones, while the host's swings cancel.  Child
    processes (set-up probes, CLI commands) are scaled by ChildClock: the
    in-process reference did not track their start-up."""

    def __init__(self):
        self.stamps = []    # perf_counter when each sample ended
        self.samples = []   # reference loop seconds, median of REFERENCE_REPEATS
        self.since = 0.0

    def sample(self):
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        self.stamps.append(time.perf_counter())
        self.since = 0.0

    def count(self, seconds):
        """Add `seconds` of timed work; sample once enough has passed."""
        self.since += seconds
        if self.since >= REFERENCE_EVERY_S:
            self.sample()

    def factor(self, start: float) -> float:
        """Scale for an execution that started at `start`: samples are
        taken only between ops, so the last one before the start and the
        first one after it bracket the execution."""
        i = bisect.bisect_right(self.stamps, start)
        around = self.samples[max(0, i - 1):i + 1]
        return REFERENCE_NOMINAL_S / statistics.fmean(around)


class ChildClock:
    """Start-up times of a reference child, sampled through a run.

    The host switches between regimes, tens of seconds long, in which
    process start-up runs up to 1.4x slower, while in-process work does
    not slow with it.  Child times are therefore multiplied by
    CHILD_REFERENCE_NOMINAL_S over the run's median time of a reference
    child that imports numpy and nothing of the library's.  Single
    samples are too noisy to pair with single children, so one factor,
    from the median, serves the whole run."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(time_to_ready([sys.executable] + CHILD_REFERENCE))

    def count(self, seconds):
        """Sample after every child op."""
        self.sample()

    def factor(self, start: float = 0.0) -> float:
        return CHILD_REFERENCE_NOMINAL_S / statistics.median(self.samples)


mimocov = _import_library()
import workloads  # noqa: E402  (needs the library on sys.path)


# ---------------------------------------------------------------------------
# running ops

def execute(op, in_process_cli: bool = False):
    if op.kind != "cli":
        return workloads.execute(op)
    if in_process_cli:
        from mimocov import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.args["argv"])
        return (code, out.getvalue())
    proc = run_child(["-m", "mimocov"] + op.args["argv"])
    return (proc.returncode, proc.stdout)


def _fingerprint(output) -> bytes:
    return hashlib.blake2b(pickle.dumps(output, protocol=4), digest_size=16).digest()


class Ledger:
    """Every op execution of a run: its time, its outcome, and the distinct
    outputs that still have to be checked."""

    def __init__(self, deck, host=None):
        self.deck = deck
        self.host = host
        self.times = []          # [deck index, seconds, error class or None]
        self.starts = []         # perf_counter at the start of each execution
        self.outputs = {}        # (deck index, fingerprint) -> [output, executions]

    def run_op(self, index, in_process_cli=False, tracer=None, source=None):
        if tracer is not None:
            tracer.op, tracer.source = index, source
        output, error = None, None
        start = time.perf_counter()
        try:
            output = execute(self.deck[index], in_process_cli)
        except mimocov.MimocovError as exc:
            error = type(exc).__name__
        seconds = time.perf_counter() - start
        self.times.append([index, seconds, error])
        self.starts.append(start)
        if self.host is not None:
            self.host.count(seconds)
        if error is None:
            key = (index, _fingerprint(output))
            self.outputs.setdefault(key, [output, []])[1].append(len(self.times) - 1)

    def run_pass(self, in_process_cli=False, tracer=None, source=None):
        for index in range(len(self.deck)):
            self.run_op(index, in_process_cli, tracer, source)

    def timed_seconds(self) -> float:
        return math.fsum(t[1] for t in self.times)

    def check_all(self):
        """Check each distinct output once; mark its executions."""
        import checks

        self.problems = {}
        for (index, _), (output, executions) in self.outputs.items():
            op = self.deck[index]
            if op.kind == "cli" and output[0] in (2, 3):
                # the CLI's exit codes for MimocovError: a refusal, not a wrong output
                problem, error = f"exit code {output[0]}", f"cli-exit-{output[0]}"
            else:
                problem, error = checks.check(op, output), "check"
            if problem is not None:
                self.problems.setdefault(index, problem)
                for i in executions:
                    self.times[i][2] = error

    def failures(self) -> list:
        by_op = collections.OrderedDict()
        for index, _, error in self.times:
            if error is not None:
                entry = by_op.setdefault((index, error), {
                    "op": index, "kind": self.deck[index].kind, "error": error,
                    "message": self.problems.get(index),
                    "inputs": self.deck[index].inputs, "count": 0})
                entry["count"] += 1
        return list(by_op.values())

    def failed_ops(self) -> dict:
        """Deck index -> error class of each op that failed on any pass."""
        failed = {}
        for index, _, error in self.times:
            if error is not None:
                failed.setdefault(index, error)
        return failed

    def unsteady_ops(self) -> list:
        """Deck ops that failed on some passes and not on others."""
        outcomes = collections.defaultdict(set)
        for index, _, error in self.times:
            outcomes[index].add(error is None)
        return [index for index, seen in sorted(outcomes.items()) if len(seen) > 1]

    def wrong_outputs(self) -> int:
        """Executions whose output failed a check (not an attributed error)."""
        return sum(1 for t in self.times if t[2] == "check")


def per_op_times(ledger, host=None) -> list:
    """(seconds, failed, deck index) per deck op: its median time over the
    run's passes, so that one execution caught by a burst on the host does
    not move it; each execution is scaled to nominal host speed if `host`
    is given."""
    runs = collections.defaultdict(list)
    failed = set()
    for (index, seconds, error), start in zip(ledger.times, ledger.starts):
        runs[index].append(seconds * (host.factor(start) if host is not None else 1.0))
        if error is not None:
            failed.add(index)
    return [(statistics.median(runs[i]), i in failed, i) for i in sorted(runs)]


def timing_summary(ops) -> dict:
    """Median and tail op time; failed ops rank slowest."""
    n = len(ops)
    ordered = sorted(ops, key=lambda o: (o[1], o[0]))
    median = ordered[(n - 1) // 2]
    summary = {"op_ms_p50": 1e3 * median[0], "op_ms_p50_on_failed_op": median[1], "deck_ops": n,
               "op_ms_tail": None, "op_ms_tail_percentile": None}
    if n < 2 * TAIL_BEYOND:
        summary["op_ms_tail_note"] = f"absent: {n} distinct ops, fewer than {2 * TAIL_BEYOND}"
        return summary
    tail = ordered[n - TAIL_BEYOND - 1]
    summary["op_ms_tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
    if tail[1]:
        summary["op_ms_tail_note"] = "absent: a failed op holds this rank"
    else:
        summary["op_ms_tail"] = 1e3 * tail[0]
    return summary


def work_rate(workload, deck, ops) -> tuple[str, float]:
    """(name, rate) of checked work per second of deck time: analytic
    results, Monte Carlo trials or CLI commands."""
    seconds = math.fsum(o[0] for o in ops)
    ok = [deck[o[2]] for o in ops if not o[1]]
    if workload == "mc-validate":
        return "trials_per_s", sum(op.args["config"].trials for op in ok) / seconds
    if workload == "cli-cold":
        return "commands_per_s", len(ok) / seconds
    return "evals_per_s", len(ok) / seconds


# ---------------------------------------------------------------------------
# set-up time, context

def time_to_ready(argv: list) -> float:
    """Wall time from starting a child until it prints `ready`.  The child
    is waited for, and killed if it outlives CHILD_TIMEOUT_S."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        _fail(f"child {argv[1:]} exited {code} without reporting ready")
    return elapsed


def setup_seconds(workload: str, seed: int, smoke: bool, clock: ChildClock) -> list:
    """Fresh process to the first timed op: interpreter start, import,
    input generation, bundle validation.  One child at a time, each
    followed by a sample of `clock`."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--setup-probe"] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        samples.append(time_to_ready(argv))
        clock.sample()
    return samples


def run_context(workload, seed, deck, ledger) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "mimocov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "machine": {"nproc": NPROC, "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "platform": platform.platform()},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cli_children": "one at a time",
        "inputs": {"bit_generator": "PCG64 via numpy.random.default_rng([seed, stream])",
                   "simulator_bit_generator": "library's own (Philox at the seed commit)",
                   "git_commit": commit, "source_sha256": digest.hexdigest(),
                   "workload": workload, "seed": seed,
                   "deck_ops": dict(collections.Counter(op.kind for op in deck)),
                   "executed_ops": dict(collections.Counter(deck[t[0]].kind for t in ledger.times))},
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced runs

def cli_probes() -> dict:
    """Interpreter start, import cost and module count, in fresh processes."""
    def wall(code):
        samples = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            proc = run_child(["-c", code])
            samples.append(time.perf_counter() - start)
            if proc.returncode != 0:
                _fail(f"probe {code!r} failed: {proc.stderr.strip()[-200:]}")
        return statistics.median(samples)

    bare = wall("pass")
    imported = wall("import mimocov")
    proc = run_child(["-c", "import json, sys, mimocov; print(json.dumps([len(sys.modules), "
                            "sum(m in sys.modules for m in ('scipy.integrate', 'scipy.linalg'))]))"])
    modules, heavy = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"cli.interpreter_ms": 1e3 * bare, "cli.import_ms": 1e3 * (imported - bare),
            "cli.modules_loaded": modules, "cli.scipy_heavy_loaded": heavy}


def hyp2f1_us(deck) -> float:
    """specfun.hyp2f1 on entry-shaped arguments (n+k, n-d; n+1-d; -x) from
    the deck's bundles, at n = 0, (M-1)/2 and M-1.  Calls that raise are
    timed too."""
    from mimocov import specfun

    bundles = list({id(op.bundle): op.bundle for op in deck if op.bundle is not None}.values())
    bundles = bundles[:: max(1, len(bundles) // 48)]
    total, calls = 0.0, 0
    for b in bundles:
        kappa, delta, m = b.interferer.kappa, 2.0 / b.scenario.alpha, b.signal.shape
        x = b.scenario.threshold * b.interferer.beta / b.signal.scale
        for n in sorted({0, (m - 1) // 2, m - 1}):
            start = time.perf_counter()
            try:
                specfun.hyp2f1(n + kappa, n - delta, n + 1.0 - delta, -x)
            except mimocov.MimocovError:
                pass
            total += time.perf_counter() - start
            calls += 1
    return 1e6 * total / calls


def rng_floor_ns(ops) -> float:
    """The simulator's per-point variates drawn by the benchmark itself:
    a float32 uniform and an interferer gain, from Philox."""
    import numpy as np

    total, points = 0.0, 0
    for op in ops:
        n = int(min(workloads.mc_points(op), 4_000_000))
        kappa, beta = op.bundle.interferer.kappa, op.bundle.interferer.beta
        rng = np.random.Generator(np.random.Philox(key=op.args["config"].seed))
        start = time.perf_counter()
        rng.random(n, dtype=np.float32)
        if kappa == 1.0:
            rng.standard_exponential(n, dtype=np.float32)
        else:
            rng.gamma(kappa, beta, n).astype(np.float32)
        total += time.perf_counter() - start
        points += n
    return 1e9 * total / points


def montecarlo_layer(spans, decks, sources) -> tuple[dict, dict]:
    import tracing

    for source in sources:
        sims = [s for s in spans if s[0] == "montecarlo.simulate" and s[5] == source
                and decks[source][s[4]].kind == "simulate"]
        if not sims:
            continue
        per, points_total = collections.defaultdict(lambda: [0.0, 0.0]), 0.0
        for s in sims:
            op = decks[source][s[4]]
            points = workloads.mc_points(op)
            per[op.args["scenario"]][0] += tracing.duration(s)
            per[op.args["scenario"]][1] += points
            points_total += points
        values = {f"montecarlo.ns_per_point.{name}": 1e9 * t / p for name, (t, p) in per.items()}
        values["montecarlo.points_total"] = points_total
        ops = [decks[source][s[4]] for s in sims]
        values["montecarlo.rng_floor_ns_per_point"] = rng_floor_ns(ops)
        return values, {k: source for k in values}
    return {}, {}


def traced_run(workload, seed, deck, tracer):
    """Each op of the deck untraced and traced, alternating which goes
    first, after a warm-up on the small deck; then one traced pass of each
    other workload's small deck for the layers this one never calls."""
    import tracing

    in_process = workload == "cli-cold"
    Ledger(workloads.build_deck(workload, seed, smoke=True)).run_pass(in_process)
    plain, traced = Ledger(deck), Ledger(deck)
    for index in range(len(deck)):
        for ledger in ((plain, traced) if index % 2 == 0 else (traced, plain)):
            if ledger is plain:
                plain.run_op(index, in_process)
                continue
            with tracer:
                traced.run_op(index, in_process, tracer, workload)
    decks = {workload: deck}
    for other in workloads.WORKLOADS:
        if other == workload:
            continue
        decks[other] = workloads.build_deck(other, seed, smoke=True)
        with tracer:
            Ledger(decks[other]).run_pass(True, tracer, other)
    sources = [workload] + [w for w in workloads.WORKLOADS if w != workload]
    values, used = tracing.layer_metrics(tracer.spans, sources)
    mc_values, mc_used = montecarlo_layer(tracer.spans, decks, sources)
    values.update(mc_values)
    used.update(mc_used)
    values["specfun.hyp2f1_us"] = hyp2f1_us(deck)
    used["specfun.hyp2f1_us"] = workload
    for name, value in cli_probes().items():
        values[name] = value
        used[name] = "fresh processes"
    untraced_s, traced_s = plain.timed_seconds(), traced.timed_seconds()
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    used["trace.overhead_frac"] = workload
    return traced, values, used


# ---------------------------------------------------------------------------
# main

def declared_metrics(key: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small decks, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be non-negative")
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail(f"no BENCHMARK.json under {ROOT}")

    if args.setup_probe:
        workloads.build_deck(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.source = args.workload
        with tracer:  # spans of model.validate while the deck's bundles are built
            deck = workloads.build_deck(args.workload, args.seed, args.smoke)
        ledger, values, used = traced_run(args.workload, args.seed, deck, tracer)
    else:
        deck = workloads.build_deck(args.workload, args.seed, args.smoke)
        host = HostClock() if args.workload != "cli-cold" else ChildClock()
        ledger = Ledger(deck, host)
        host.sample()
        while not ledger.times or ledger.timed_seconds() < args.seconds:
            ledger.run_pass()
        host.sample()
        rss = peak_rss_mb(args.workload)

    ledger.check_all()
    # attempted and failed count deck ops, not executions: how many passes
    # fit in --seconds depends on the host's speed, the deck does not.
    failed_ops = ledger.failed_ops()
    attempted = len({t[0] for t in ledger.times})
    failed = len(failed_ops)
    errors = collections.Counter(failed_ops.values())
    unsteady = ledger.unsteady_ops()
    correct = ledger.wrong_outputs() == 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "context": run_context(args.workload, args.seed, deck, ledger),
              "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
              "failures_by_class": dict(errors), "executions": len(ledger.times),
              "failed_executions": sum(1 for t in ledger.times if t[2] is not None),
              "ops_failing_on_some_passes_only": unsteady, "failure_ledger": ledger.failures()}

    if args.trace:
        declared = declared_metrics("per_layer")
        record.update(per_layer=values, per_layer_source=used)
        tracer.dump(OUT / f"{stem}-spans.jsonl")
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            _fail(f"per-layer metrics not measured: {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        print(f"{args.workload} seed {args.seed}: traced {attempted} ops; per-layer metrics "
              f"(deck each came from):")
        for m in declared:
            print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} "
                  f"[{used[m['name']]}]")
    else:
        setup_clock = ChildClock()
        setup = setup_seconds(args.workload, args.seed, args.smoke, setup_clock)
        setup_scale = setup_clock.factor()
        timed = ledger.timed_seconds()
        ops = per_op_times(ledger, host)
        raw_ops = per_op_times(ledger)
        scale = math.fsum(o[0] for o in ops) / math.fsum(o[0] for o in raw_ops)
        work_name, rate = work_rate(args.workload, deck, ops)
        summary = timing_summary(ops)
        e2e = {"setup_s": setup_scale * statistics.median(setup), "work_per_s": rate,
               "op_ms_p50": summary["op_ms_p50"], "peak_rss_mb": rss}
        unscaled = {"setup_s": statistics.median(setup),
                    "work_per_s": work_rate(args.workload, deck, raw_ops)[1],
                    "op_ms_p50": timing_summary(raw_ops)["op_ms_p50"]}
        record.update(end_to_end=e2e, end_to_end_unscaled=unscaled, setup_samples_s=setup,
                      setup_scale=setup_scale, setup_reference_s=setup_clock.samples,
                      host_scale=scale, reference_nominal_s=REFERENCE_NOMINAL_S,
                      child_reference_nominal_s=CHILD_REFERENCE_NOMINAL_S,
                      timed_s=timed, passes=len(ledger.times) // len(deck), **{work_name: rate},
                      **summary)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in declared_metrics("end_to_end")}
        tail = summary["op_ms_tail"]
        tail_text = (f"{tail:.4g} ms at p{summary['op_ms_tail_percentile']:.1f} of {len(ops)} ops"
                     if tail is not None else summary["op_ms_tail_note"])
        print(f"{args.workload} seed {args.seed}: {attempted} ops in {record['passes']} passes, "
              f"{timed:.3f} s timed; op times scaled by {scale:.4f} overall to nominal host speed")
        print(f"  setup_s      {e2e['setup_s']:.4f} s (median of {len(setup)} fresh processes, "
              f"scaled by {setup_scale:.4f})")
        print(f"  {work_name:<12} {rate:.6g} 1/s (reported as work_per_s)")
        print(f"  op_ms_p50    {summary['op_ms_p50']:.4g} ms")
        print(f"  op_ms_tail   {tail_text}")
        print(f"  failed_frac  {failed / attempted:.4f} ({failed} of {attempted} ops; "
              f"{dict(errors) or 'none'})")
        print(f"  peak_rss_mb  {rss:.1f} MB")
        print(f"  unscaled     setup_s {unscaled['setup_s']:.4f} s, "
              f"work_per_s {unscaled['work_per_s']:.6g} 1/s, "
              f"op_ms_p50 {unscaled['op_ms_p50']:.4g} ms")
    if unsteady:
        print(f"  ops that failed on some passes only: {unsteady}")
    for entry in record["failure_ledger"][:8]:
        print(f"  failed op {entry['op']} {entry['kind']} x{entry['count']}: {entry['error']} "
              f"{json.dumps(entry['inputs'], default=str)[:160]}")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(f"  record: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
