"""Command line front end.

Four subcommands cover the workflows the library supports:

* ``coverage``   one scenario, analytic or simulated, one CSV row
* ``sweep``      one parameter axis, one CSV row per grid point
* ``validate``   analytic vs Monte Carlo z-scores over a small grid
* ``insights``   decay rate, density profile, improvement diagnostics

Scenario parameters come from flags, from a ``key = value`` config file
(``--config``), or both; flags win, and a threshold flag (``--tau`` or
``--tau-db``) replaces any threshold from the file.  Each scenario flag
is named by its config key, so flags and file fill one parameter
mapping; each row applies one grid value to it and leaves every refusal
to the library.

A sweep builds every grid point's scenario before it evaluates any, and
on the Monte Carlo path every simulation plan (seed, window, point count);
``validate`` builds the plans and every analytic reference before its
first trial.  So a bad grid point is refused before any work.  A sweep holds at most 10 000
points; an antenna sweep runs over integers 1 <= start <= stop <= 512 and
adds a ``delta_p`` column, the improvement p_c(M) - p_c(M-1).  On the
analytic path one improvement sequence of order stop gives every row:
p_c(M) is the sum of its first M terms and delta_p the M-th (Monte Carlo
rows: the estimates and their successive differences).

A ``validate`` row's z is the estimate's distance from the series, less
a budget of 1e-5 on a default window (nothing for an explicit
``--window``), over the standard error: 0 within that budget, inf past it
with a zero halfwidth.  1e-5 is the far-field bias the bias radius allows;
where the smaller variance radius sets the disc, no bound is proven (see
``montecarlo.SimConfig``).

Results are CSV on stdout (or ``--out``); everything else goes to
stderr.  Exit codes: 0 success, 2 bad usage, invalid parameters, an
unwritable ``--out`` or an unwritable stdout (a closed reader, a closed
descriptor), 3 numerical failure, 4 statistical disagreement in
``validate``.

``run`` is the program entry (``python -m mimocov`` and the ``mimocov``
script): it returns ``main``'s exit code and then freezes the heap, so
that the interpreter's exit-time collection, about 20 ms of a 220 ms
command, skips every NumPy and library object whose memory the OS frees
anyway.  ``main`` is the in-process API and never freezes: a caller that
runs it many times would keep every object alive for good.

Each command imports the library modules it runs, when it runs: an
analytic ``coverage`` or ``sweep`` loads neither ``insights`` nor
``montecarlo``, and a simulated one no ``analytic``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import math
import os
import sys

import numpy as np

from . import model
from .errors import MimocovError, NumericalError, UnsupportedConfigError, ValidationError

_BASE_HEADER = ["kind", "tau_db", "lambda", "alpha", "r0", "noise", "M",
                "theta", "kappa", "beta"]
_POINT_HEADER = _BASE_HEADER + ["method", "p_c", "ci_halfwidth", "trials", "seed"]
_VALIDATE_HEADER = _BASE_HEADER + ["analytic", "mc", "ci_halfwidth", "z", "trials", "seed"]
_Z_LIMIT = 4.0
_AXIS_KEYS = {"tau_db": "tau_db", "lambda": "lambda", "antennas": "m", "r0": "r0"}
_MAX_POINTS = 10_000  # grid points of one sweep


def _num(x) -> str:
    return format(float(x), ".12g")


_WINDOW_HELP = ("simulation disc radius (mc only); default: the smaller of the disc "
                "whose far-field mean provably moves coverage by at most 1e-5 and the "
                "disc that leaves 1e-5 of the far field's variance with at least ~200 "
                "points; explicit radius: plain truncation, no far-field mean")


def _build_parser() -> argparse.ArgumentParser:
    scen = argparse.ArgumentParser(add_help=False)
    grp = scen.add_argument_group("scenario")
    grp.add_argument("--config", metavar="PATH", help="key = value parameter file")
    grp.add_argument("--kind", choices=(model.CELLULAR, model.ADHOC))
    grp.add_argument("--lambda", dest="lambda", type=float, metavar="DENSITY",
                     help="transmitter density (per unit area)")
    grp.add_argument("--alpha", type=float, help="path loss exponent, must exceed 2")
    grp.add_argument("--r0", type=float, help="dipole distance (ad hoc only)")
    grp.add_argument("--noise", type=float, help="noise power (default 0)")
    grp.add_argument("--tau-db", type=float, help="SIR threshold in dB")
    grp.add_argument("--tau", type=float, help="SIR threshold, linear (overrides --tau-db)")
    grp.add_argument("--m", type=int, help="antenna count (default 1)")
    grp.add_argument("--theta", type=float, help="signal gain scale (default 1)")
    grp.add_argument("--kappa", type=float, help="interferer gamma shape (default 1)")
    grp.add_argument("--beta", type=float, help="interferer gamma scale (default 1)")
    run = scen.add_argument_group("run")
    run.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    run.add_argument("--trials", type=int, default=100_000,
                     help="simulation trials (default 100000)")
    run.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    top = argparse.ArgumentParser(
        prog="mimocov",
        description="Coverage probability of multi-antenna Poisson networks.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("coverage", parents=[scen],
                         help="evaluate one scenario")
    cov.add_argument("--method", choices=("analytic", "mc"), default="analytic")
    cov.add_argument("--window", type=float, help=_WINDOW_HELP)

    sw = sub.add_parser("sweep", parents=[scen],
                        help="evaluate along one parameter axis")
    sw.add_argument("--axis", choices=tuple(_AXIS_KEYS), required=True)
    sw.add_argument("--start", type=float, required=True)
    sw.add_argument("--stop", type=float, required=True)
    sw.add_argument("--points", type=int, default=25)
    sw.add_argument("--scale", choices=("linear", "log"), default="linear")
    sw.add_argument("--method", choices=("analytic", "mc"), default="analytic")
    sw.add_argument("--window", type=float, help=_WINDOW_HELP)

    va = sub.add_parser("validate", parents=[scen],
                        help="compare analytic and Monte Carlo values on a grid")
    va.add_argument("--m-list", default="1,2,4,8", metavar="LIST",
                    help="comma separated antenna counts (default 1,2,4,8)")
    va.add_argument("--tau-db-list", default="-5,0,5,10", metavar="LIST",
                    help="comma separated thresholds in dB (default -5,0,5,10)")
    va.add_argument("--window", type=float, help=_WINDOW_HELP)

    ins = sub.add_parser("insights", parents=[scen],
                         help="structural diagnostics of a scenario")
    ins.add_argument("--rc", action="store_true",
                     help="per-antenna outage decay rate (cellular)")
    ins.add_argument("--ratios", type=int, metavar="N",
                     help="improvement ratios up to order N")
    ins.add_argument("--peak-bound", action="store_true",
                     help="bound on the best-improvement index (ad hoc)")
    ins.add_argument("--density-profile", action="store_true",
                     help="coverage-vs-density coefficients (ad hoc)")
    ins.add_argument("--derivative", action="store_true",
                     help="d coverage / d density (ad hoc)")
    ins.add_argument("--at-lambda", type=float, metavar="DENSITY",
                     help="density at which to take the derivative (default: scenario density)")
    return top


def _with(params: dict, update: dict) -> dict:
    """A copy of ``params`` with ``update`` applied; a threshold in the
    update (``tau`` or ``tau_db``) replaces both threshold keys, so a
    threshold from a config file never outranks one set later."""
    out = dict(params)
    if "tau" in update or "tau_db" in update:
        out.pop("tau", None)
        out.pop("tau_db", None)
    out.update(update)
    return out


def _collect_params(args) -> dict:
    params = model.load_config(args.config) if args.config else {}
    return _with(params, {key: getattr(args, key) for key in model._CONFIG_KEYS
                          if getattr(args, key) is not None})


def _scenario_fields(bundle: model.ScenarioBundle) -> list:
    sc = bundle.scenario
    return [
        sc.kind,
        _num(10.0 * math.log10(sc.threshold)),
        _num(sc.lam),
        _num(sc.alpha),
        "" if sc.r0 is None else _num(sc.r0),
        _num(sc.noise),
        str(bundle.signal.shape),
        _num(bundle.signal.scale),
        _num(bundle.interferer.kappa),
        _num(bundle.interferer.beta),
    ]


def _point_row(bundle, est, seed) -> list:
    return _scenario_fields(bundle) + [
        est.method, _num(est.value), _num(est.ci_halfwidth), str(est.trials), str(seed),
    ]


def _sim_config(args, seed):
    from .montecarlo import SimConfig

    return SimConfig(trials=args.trials, seed=seed, window_radius=args.window)


def _planned_configs(args, bundles, seeds) -> list:
    """One simulation config per bundle, each planned, so that a refused
    seed or window stops the command before its first trial."""
    from .montecarlo import _plan

    configs = [_sim_config(args, seed) for seed in seeds]
    for bundle, config in zip(bundles, configs):
        _plan(bundle, config)
    return configs


def _evaluate(bundle, config) -> model.CoverageEstimate:
    """The analytic coverage, or with a simulation config its estimate."""
    if config is None:
        from .analytic import coverage

        return coverage(bundle)
    from .montecarlo import simulate

    return simulate(bundle, config)


def _cmd_coverage(args):
    bundle = model.bundle_from_params(_collect_params(args))
    est = _evaluate(bundle, _sim_config(args, args.seed) if args.method == "mc" else None)
    return _POINT_HEADER, [_point_row(bundle, est, args.seed)], 0


def _axis_values(args) -> list:
    if args.axis == "antennas":
        from .series import MAX_ORDER

        if not 1 <= args.start <= args.stop <= MAX_ORDER:
            raise ValidationError(f"antenna sweep needs 1 <= start <= stop <= {MAX_ORDER}")
        if not (args.start.is_integer() and args.stop.is_integer()):
            raise ValidationError("antenna sweep bounds must be integers")
        return list(range(int(args.start), int(args.stop) + 1))
    if not 1 <= args.points <= _MAX_POINTS:
        raise ValidationError(f"points must be between 1 and {_MAX_POINTS}")
    if args.points == 1:
        return [args.start]
    if args.scale == "log":
        if args.start <= 0.0 or args.stop <= 0.0:
            raise ValidationError("log scale needs positive start and stop")
        return list(np.geomspace(args.start, args.stop, args.points))
    return list(np.linspace(args.start, args.stop, args.points))


def _cmd_sweep(args):
    base = _collect_params(args)
    key = _AXIS_KEYS[args.axis]
    bundles = [model.bundle_from_params(_with(base, {key: v})) for v in _axis_values(args)]
    seeds = range(args.seed, args.seed + len(bundles))
    if args.method == "mc":
        configs = _planned_configs(args, bundles, seeds)
    else:
        configs = [None] * len(bundles)
    if key == "lambda" and bundles[0].scenario.kind == model.CELLULAR:
        print("note: cellular coverage does not depend on the density; "
              "expect a flat sweep", file=sys.stderr)
    if key == "m" and args.method == "analytic":
        # one series of order stop holds every row: p_c(M) sums its first M
        # improvements, and delta_p is the M-th, however far below the last
        # digit of p_c it falls
        from .insights import improvement_sequence

        seq = improvement_sequence(bundles[-1], bundles[-1].signal.shape)
        estimates = [model.CoverageEstimate(seq.coverage_at(b.signal.shape),
                                            model.METHOD_RECURSION) for b in bundles]
        gains = seq.values[-len(bundles):]
    else:
        estimates = [_evaluate(b, config) for b, config in zip(bundles, configs)]
        gains = np.diff([est.value for est in estimates], prepend=0.0)
    rows = [_point_row(b, est, seed) for b, est, seed in zip(bundles, estimates, seeds)]
    if key != "m":
        return _POINT_HEADER, rows, 0
    for row, gain in zip(rows, gains):
        row.append(_num(gain))
    return _POINT_HEADER + ["delta_p"], rows, 0


def _parse_list(text: str, caster, what: str) -> list:
    try:
        return [caster(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"could not parse {what} list {text!r}") from None


def _reference(bundle):
    from .analytic import coverage

    try:
        return coverage(bundle).value
    except UnsupportedConfigError:  # cellular noise: no series, so no reference
        return None


def _cmd_validate(args):
    from .montecarlo import _FAR_BIAS, simulate

    base = _collect_params(args)
    m_values = _parse_list(args.m_list, int, "antenna")
    tau_values = _parse_list(args.tau_db_list, float, "threshold")
    if not m_values or not tau_values:
        raise ValidationError("validate needs at least one antenna count and one threshold")
    grid = [model.bundle_from_params(_with(base, {"m": m, "tau_db": tau_db}))
            for m, tau_db in itertools.product(m_values, tau_values)]
    configs = _planned_configs(args, grid, range(args.seed, args.seed + len(grid)))
    references = [_reference(bundle) for bundle in grid]
    # the bias radius holds a default window's far-field bias to _FAR_BIAS,
    # a smaller variance radius to no proven bound (see SimConfig); a row is
    # judged by how far it exceeds that budget
    budget = _FAR_BIAS if args.window is None else 0.0
    rows = []
    worst = 0.0
    for bundle, cfg, exact in zip(grid, configs, references):
        mc = simulate(bundle, cfg)
        if exact is None:
            exact_field, z_field = "n/a", ""
        else:
            se = mc.ci_halfwidth / 1.96
            excess = max(abs(mc.value - exact) - budget, 0.0)
            z = (math.copysign(excess / se if se > 0.0 else math.inf, mc.value - exact)
                 if excess else 0.0)
            worst = max(worst, abs(z))
            exact_field, z_field = _num(exact), _num(z)
        rows.append(_scenario_fields(bundle) + [
            exact_field, _num(mc.value), _num(mc.ci_halfwidth), z_field,
            str(mc.trials), str(cfg.seed),
        ])
    print(f"validate: {len(rows)} grid points, max |z| = {worst:.3g} "
          f"(limit {_Z_LIMIT:g})", file=sys.stderr)
    code = 0 if worst <= _Z_LIMIT else 4
    return _VALIDATE_HEADER, rows, code


def _cmd_insights(args):
    from .insights import (adhoc_peak_bound, cellular_decay_rate, density_profile,
                           outage_decay_check)

    picked = any((args.rc, args.ratios is not None, args.peak_bound,
                  args.density_profile, args.derivative))
    if not picked:
        raise ValidationError("pick at least one insight: --rc, --ratios, "
                              "--peak-bound, --density-profile, --derivative")
    bundle = model.bundle_from_params(_collect_params(args))
    rows = []
    if args.rc:
        rows.append(["decay_rate", _num(cellular_decay_rate(bundle))])
    if args.ratios is not None:
        diag = outage_decay_check(bundle, order=args.ratios)
        for n, r in enumerate(diag.ratios):
            rows.append([f"improvement_ratio_{n}", _num(r)])
        if diag.truncated:
            print("note: ratios truncated where the coefficients underflowed",
                  file=sys.stderr)
    if args.peak_bound:
        pk = adhoc_peak_bound(bundle)
        rows.append(["peak_mu", _num(pk.mu)])
        rows.append(["peak_index_bound", str(pk.index_bound)])
        rows.append(["peak_monotone", "1" if pk.monotone else "0"])
    if args.density_profile or args.derivative:
        profile = density_profile(bundle)
        if args.density_profile:
            rows.append(["density_head", _num(profile.head)])
            for n, b in enumerate(profile.betas):
                rows.append([f"density_beta_{n}", _num(b)])
        if args.derivative:
            at = args.at_lambda if args.at_lambda is not None else bundle.scenario.lam
            rows.append(["dcoverage_dlambda", _num(profile.derivative_at(at))])
    return ["quantity", "value"], rows, 0


_COMMANDS = {
    "coverage": _cmd_coverage,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "insights": _cmd_insights,
}


def _emit(header, rows, out_path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        _write_stdout(buf.getvalue())


def _write_stdout(text: str) -> None:
    """Write and flush ``text``, so that a closed reader is an ``OSError``
    here and not an ignored exception at interpreter exit."""
    if sys.stdout is None:  # the process started with descriptor 1 closed
        raise OSError("cannot write to stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        raise OSError(f"cannot write to stdout: {exc}") from None


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    interpreter exit does not fail again on what is left in its buffer."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # not backed by a descriptor: nothing to flush at exit
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        header, rows, code = _COMMANDS[args.command](args)
        _emit(header, rows, args.out)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (MimocovError, OSError) as exc:  # OSError: --config, --out or stdout
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> int:
    """The program entry: ``main()``'s exit code, with the heap frozen
    once the output is written (usage errors exit through here too)."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
