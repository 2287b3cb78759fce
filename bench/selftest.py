"""Self-test of the benchmark: planted faults must trip the output checks,
and a small run of every workload must complete and report every metric.

    python3 -m pytest -q bench/selftest.py

Run from the root of the checkout.  The file is not named test_*.py, so
the library's own test suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from mimocov import cli, model  # noqa: E402

SEED = 3


def _ops(workload, kind, count=3):
    ops = [op for op in workloads.build_deck(workload, SEED, smoke=True) if op.kind == kind]
    return ops[:count]


def _passing(workload, kind):
    """(op, output) pairs that pass their check as produced."""
    pairs = []
    for op in _ops(workload, kind, count=8):
        try:
            output = workloads.execute(op)
        except Exception:  # noqa: BLE001 - known library refusals are not under test here
            continue
        assert checks.check(op, output) is None
        pairs.append((op, output))
    assert pairs
    return pairs


def _cli_output(op):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.args["argv"])
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# planted faults

@pytest.mark.parametrize("workload", ["cellular-sweep", "adhoc-antennas"])
def test_perturbed_coverage_is_caught(workload):
    for op, value in _passing(workload, "coverage"):
        assert checks.check(op, value * (1.0 + 1e-9)) is not None
        assert checks.check(op, 1.5) is not None
        assert checks.check(op, float("nan")) is not None


def test_perturbed_cellular_entries_are_caught():
    from mimocov import analytic

    op = next(op for op in _ops("cellular-sweep", "coverage", count=20)
              if 8 <= op.bundle.signal.shape and op.inputs["tau_db"] < 30.0)
    entries = analytic.cellular_entries(op.bundle, op.bundle.signal.shape).values
    gaps = checks.entry_identity_gaps(op.bundle, entries)
    assert gaps and max(gap for _, gap in gaps) < checks.ENTRY_LOG_TOL
    bent = entries.copy()
    bent[1:] *= 1.0 + 1e-8
    assert max(gap for _, gap in checks.entry_identity_gaps(op.bundle, bent)) > checks.ENTRY_LOG_TOL


def test_perturbed_insights_are_caught():
    for op, values in _passing("adhoc-antennas", "improvement"):
        bent = np.array(values)
        bent[-1] += 1e-9
        assert checks.check(op, bent) is not None
    for op, (head, betas, values, derivs) in _passing("adhoc-antennas", "density"):
        assert checks.check(op, (head * (1 + 1e-9), betas, values, derivs)) is not None
        assert checks.check(op, (head, betas, values, [-d for d in derivs])) is not None
    for op, (mu, bound, monotone) in _passing("adhoc-antennas", "peak_bound"):
        assert checks.check(op, (mu, bound + 1, monotone)) is not None
    for op, rate in _passing("cellular-sweep", "decay_rate"):
        assert checks.check(op, rate * (1.0 + 1e-6)) is not None


def test_biased_monte_carlo_estimate_is_caught():
    op = _ops("mc-validate", "simulate", count=4)[0]
    op = dataclasses.replace(op, args=dict(op.args, config=dataclasses.replace(
        op.args["config"], trials=2000)))
    value, halfwidth, trials = workloads.execute(op)
    assert checks.check(op, (value, halfwidth, trials)) is None
    biased = min(1.0, value + 5.0 * halfwidth) if value < 0.5 else value - 5.0 * halfwidth
    assert checks.check(op, (biased, halfwidth, trials)) is not None


def _bend_last_column_number(stdout):
    """Perturb the p_c (or value) field of the first data row."""
    import csv
    import io

    rows = list(csv.reader(io.StringIO(stdout)))
    column = rows[0].index("p_c" if "p_c" in rows[0] else "value")
    rows[1][column] = format(float(rows[1][column]) * (1.0 + 1e-9), ".12g")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_wrong_cli_output_is_caught():
    for op in workloads.build_deck("cli-cold", SEED):
        code, stdout = _cli_output(op)
        assert checks.check(op, (code, stdout)) is None
        header, _, body = stdout.partition("\n")
        assert checks.check(op, (code, header.replace("value", "val").replace("p_c", "pc")
                                 + "\n" + body)) is not None
        assert checks.check(op, (1, stdout)) is not None
        assert checks.check(op, (code, _bend_last_column_number(stdout))) is not None


# ---------------------------------------------------------------------------
# inputs and whole runs

def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        first = [op.inputs for op in workloads.build_deck(name, SEED)]
        again = [op.inputs for op in workloads.build_deck(name, SEED)]
        other = [op.inputs for op in workloads.build_deck(name, SEED + 1)]
        assert first == again
        assert first != other


def test_counts_are_deck_ops_not_executions():
    import run

    deck = workloads.build_deck("cellular-sweep", SEED, smoke=True)
    once, twice = run.Ledger(deck), run.Ledger(deck)
    once.run_pass()
    twice.run_pass()
    twice.run_pass()
    assert once.failed_ops() and once.failed_ops() == twice.failed_ops()
    assert twice.unsteady_ops() == []


def test_host_scale_uses_the_bracketing_samples():
    import run

    host = run.HostClock()
    host.stamps, host.samples = [1.0, 2.0, 3.0], [1e-3, 2e-3, 4e-3]
    assert host.factor(1.5) == pytest.approx(run.REFERENCE_NOMINAL_S / 1.5e-3)
    assert host.factor(2.5) == pytest.approx(run.REFERENCE_NOMINAL_S / 3e-3)


def _run(cwd, *argv):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=600, check=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "adhoc-antennas", "--seed", str(SEED), "--seconds", "0.1",
                "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_library():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_validate_spans_are_the_model_layer():
    import tracing

    tracer = tracing.Tracer()
    tracer.source = "x"
    with tracer:
        model.bundle_from_params({"kind": "cellular", "alpha": 4.0})
    values, _ = tracing.layer_metrics(tracer.spans, ["x"])
    assert [s[0] for s in tracer.spans] == ["model.bundle_from_params", "model.validate"]
    assert values["model.validate_us"] == pytest.approx(1e6 * tracing.duration(tracer.spans[0]))
    assert model.validate.__name__ == "validate"  # uninstalled again
