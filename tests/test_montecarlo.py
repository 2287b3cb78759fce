import math
import sys
import time
import warnings

import numpy as np
import pytest

from mimocov import InterfererGainSpec, coverage, montecarlo
from mimocov.errors import ConfigurationError, MimocovError, NumericalError, ValidationError
from mimocov.montecarlo import (
    _COUNT_GROUP,
    _FEW_POINTS,
    _MAX_TRIALS,
    _RAW_WORDS,
    SimConfig,
    _anchor,
    _counts,
    _far_field_mean,
    _gain_moments,
    _halves,
    _interferer_draw,
    _loads,
    _open_uniforms,
    _plan,
    _runs,
    _upper_gamma,
    _Workspace,
    auto_window,
    simulate,
)

EXP_SAMPLER_LAW = InterfererGainSpec(
    pdf=lambda g: math.exp(-g) if g >= 0.0 else 0.0,
    sampler=lambda rng, size: -np.log(np.float32(1.0) - rng.random(size, dtype=np.float32)),
)


def _lomax_law(tail):
    """Lomax gains, P(g > x) = (1 + x)^-tail: E[g] is finite for tail > 1,
    E[g^2] for tail > 2."""
    return InterfererGainSpec(
        pdf=lambda g: tail * (1.0 + g) ** -(tail + 1.0) if g >= 0.0 else 0.0,
        sampler=lambda rng, size: (np.float32(1.0) - rng.random(size, dtype=np.float32))
        ** np.float32(-1.0 / tail) - np.float32(1.0),
    )


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 1},
            {"trials": 1000.0},
            {"trials": True},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": True},
            {"seed": 3.0},
            {"window_radius": 0.0},
            {"window_radius": -2.0},
            {"window_radius": math.inf},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValidationError):
            SimConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = SimConfig()
        assert config.trials == 100_000
        assert config.window_radius is None

    def test_numpy_integers_become_ints(self):
        config = SimConfig(trials=np.int64(1000), seed=np.uint32(3))
        assert (config.trials, config.seed) == (1000, 3)
        assert type(config.trials) is int and type(config.seed) is int

    def test_trials_are_capped(self):
        # a SimConfig allocates nothing, so the bound is checked at no cost
        most = _MAX_TRIALS
        assert most == 800_000_000
        assert SimConfig(trials=2).trials == 2
        assert SimConfig(trials=most).trials == most
        for trials in (most + 1, 10**11):
            with pytest.raises(ConfigurationError, match="trials must be at most"):
                SimConfig(trials=trials)


class TestAutoWindow:
    def test_cellular_window_is_bias_limited(self, cellular_bundle):
        # at alpha = 3 the far-field variance requirement, anchor * 1e5^(1/4),
        # dominates the points-per-realization floor
        w = auto_window(cellular_bundle(alpha=3.0, lam=1e-3))
        assert w == pytest.approx(264.1422021185886, rel=1e-12)

    def test_general_law_gets_the_gamma_window(self, cellular_bundle, adhoc_bundle):
        # E[g] and E[g^2] of the exponential pdf come from quadrature, and
        # give the window and far-field mean of its Gamma(1, 1) twin
        config = SimConfig(trials=1000, seed=0)
        for make, alphas in ((cellular_bundle, (2.01, 3.0, 3.5, 4.0)), (adhoc_bundle, (3.0, 4.0))):
            for alpha in alphas:
                via_pdf = _plan(make(alpha=alpha, interferer=EXP_SAMPLER_LAW), config)
                via_gamma = _plan(make(alpha=alpha), config)
                assert via_pdf.radius == pytest.approx(via_gamma.radius, rel=1e-12)
                assert via_pdf.far_mean == pytest.approx(via_gamma.far_mean, rel=1e-12)
                assert auto_window(make(alpha=alpha, interferer=EXP_SAMPLER_LAW)) == via_pdf.radius

    def test_adhoc_window_is_count_limited(self, adhoc_bundle):
        # a short dipole link at high density: the 200-point floor would give
        # sqrt(200 / pi), but the bias bound proves 1.5 link lengths enough
        w = auto_window(adhoc_bundle(r0=0.01, lam=1.0))
        rho = (0.5 * math.pi * 1.0 * 0.01**2 * 2.0 / (3.0 * 1e-5)) ** (1.0 / 6.0)
        assert w == pytest.approx(0.01 * rho, rel=1e-12)
        assert w < math.sqrt(200.0 / math.pi)

    def test_adhoc_window_scales_with_link_distance(self, adhoc_bundle):
        w = auto_window(adhoc_bundle(r0=10.0, lam=0.05))
        assert w == pytest.approx(68.12920690579613, rel=1e-12)

    def test_heavy_tails_are_refused(self, cellular_bundle, monkeypatch):
        # without a finite E[g^2] (tail 1.5) or E[g] (tail 0.8) the far field
        # has no variance or mean to stand in for it; an explicit window
        # still truncates plainly
        bundles = [cellular_bundle(interferer=_lomax_law(tail)) for tail in (1.5, 0.8)]
        for bundle in bundles:
            est = simulate(bundle, SimConfig(trials=1000, seed=0, window_radius=300.0))
            assert 0.0 < est.value < 1.0

        def unseedable(*args, **kwargs):
            raise AssertionError("streams were seeded")

        monkeypatch.setattr(np.random, "SeedSequence", unseedable)
        for bundle in bundles:
            with pytest.raises(ConfigurationError, match=r"E\[g\^2\].*window_radius"):
                simulate(bundle, SimConfig(trials=1000, seed=0))
            with pytest.raises(ConfigurationError, match="window_radius"):
                auto_window(bundle)

    def test_heavier_tails_need_larger_windows(self, cellular_bundle):
        assert auto_window(cellular_bundle(alpha=3.0)) > auto_window(
            cellular_bundle(alpha=4.0)
        )


def _variance_radius(bundle):
    """The far-field variance rule alone: 1e-5 of the link's, at least 200 points."""
    sc = bundle.scenario
    return max(_anchor(bundle) * 1e5 ** (1.0 / (2.0 * sc.alpha - 2.0)),
               math.sqrt(200.0 / (math.pi * sc.lam)))


class TestBiasBound:
    # 1/2 E[s^2] Var I_far = 1e-5 solved by hand for rho = R / anchor, with
    # s = tau (r / anchor)^alpha / theta and E[g^2] = kappa (kappa + 1) beta^2
    def test_adhoc_radius_by_hand(self, adhoc_bundle):
        bundle = adhoc_bundle(m=3, tau=10.0, alpha=3.5, lam=0.05, r0=2.0, theta=2.0,
                              kappa=2.0, beta=0.5)
        var = math.pi * 0.05 * 2.0**2 * 2.0 * 3.0 * 0.5**2 / 2.5
        rho = (0.5 * (10.0 / 2.0) ** 2 * var / 1e-5) ** (1.0 / 5.0)
        assert auto_window(bundle) == pytest.approx(2.0 * rho, rel=1e-12)
        assert 2.0 * rho < _variance_radius(bundle)

    def test_cellular_radius_by_hand(self, cellular_bundle):
        # (r / anchor)^2 is a unit exponential over ln 2, and lam anchor^2 = ln 2 / pi
        bundle = cellular_bundle(m=2, tau=2.0, alpha=4.0, theta=1.5, kappa=3.0, beta=0.8)
        anchor = math.sqrt(math.log(2.0) / (math.pi * 1e-3))
        distance = math.gamma(5.0) / math.log(2.0) ** 4
        var = math.log(2.0) * 3.0 * 4.0 * 0.8**2 / 3.0
        rho = (0.5 * (2.0 / 1.5) ** 2 * distance * var / 1e-5) ** (1.0 / 6.0)
        assert auto_window(bundle) == pytest.approx(anchor * rho, rel=1e-12)
        assert anchor * rho < _variance_radius(bundle)

    def test_cellular_disc_holds_a_point_but_in_1e5(self, cellular_bundle):
        # at -40 dB the bias bound asks for less than the serving point needs
        bundle = cellular_bundle(tau=1e-4)
        radius = auto_window(bundle)
        assert 1e-3 * math.pi * radius**2 == pytest.approx(math.log(1e5), rel=1e-12)

    def test_never_wider_than_the_variance_rule(self, request):
        for kind in ("cellular", "adhoc"):
            make = request.getfixturevalue(f"{kind}_bundle")
            for alpha in (2.05, 2.5, 3.0, 4.0, 6.0):
                for tau in (1e-4, 1e-2, 1.0, 10.0, 1e3, 1e8):
                    for lam in (1e-6, 0.05, 10.0):
                        for kappa in (0.2, 1.0, 5.0):
                            bundle = make(tau=tau, alpha=alpha, lam=lam, kappa=kappa)
                            assert auto_window(bundle) <= _variance_radius(bundle)

    @staticmethod
    def _expected_rayleigh_estimate(alpha, tau, lam, radius, far_mean):
        # what the simulator averages for M = 1 and theta = kappa = beta = 1,
        # distances in anchors: over the serving distance r (the nearest
        # point of the disc, given one), exp(-s F) times the Laplace
        # functional of the points between r and R, s = tau r^alpha; with
        # rho = r e^y the inner integral of rho s / (s + rho^alpha) is r^2
        # times that of tau e^((2 - alpha) y) / (1 + tau e^(-alpha y))
        from scipy import integrate

        def term(y):
            return tau * math.exp((2.0 - alpha) * y) / (1.0 + tau * math.exp(-alpha * y))

        def density(r):
            near = r * r * integrate.quad(term, 0.0, math.log(radius / r), epsrel=1e-12,
                                          limit=200)[0]
            return 2.0 * math.pi * lam * r * math.exp(
                -math.pi * lam * r * r - tau * r**alpha * far_mean - 2.0 * math.pi * lam * near)

        total = integrate.quad(density, 0.0, radius, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
        return total / -math.expm1(-math.pi * lam * radius * radius)

    @pytest.mark.parametrize("alpha, tau_db", [(alpha, tau_db) for alpha in (2.5, 3.0)
                                               for tau_db in (0.0, 10.0, 20.0, 30.0)]
                             + [(4.0, tau_db) for tau_db in (10.0, 20.0, 30.0)])
    def test_exact_single_antenna_bias_where_the_variance_radius_binds(
            self, cellular_bundle, alpha, tau_db):
        # where the variance radius is the smaller, the 1e-5 bias is not
        # proven; the exact Rayleigh expectation of the estimate pins it
        bundle = cellular_bundle(alpha=alpha, tau=10.0 ** (tau_db / 10.0))
        plan = _plan(bundle, SimConfig(trials=1000, seed=0))
        assert plan.radius == _variance_radius(bundle)
        exact = coverage(bundle).value
        lam = 1e-3 * plan.anchor**2
        # over the whole plane the same quadrature is the series itself
        whole = self._expected_rayleigh_estimate(alpha, bundle.scenario.threshold, lam,
                                                 math.inf, 0.0)
        assert whole == pytest.approx(exact, abs=1e-12)
        expected = self._expected_rayleigh_estimate(alpha, bundle.scenario.threshold, lam,
                                                    plan.radius / plan.anchor, plan.far_mean)
        assert abs(expected - exact) <= 1e-5

    def test_overflowing_bound_keeps_the_variance_rule(self, adhoc_bundle):
        # (tau / theta)^2 = 1e640 is worked in logarithms; the radius itself
        # overflows, so the variance rule is what is left
        bundle = adhoc_bundle(tau=1e300, alpha=2.01, theta=1e-20)
        assert auto_window(bundle) == _variance_radius(bundle)


class TestDeterminism:
    def test_same_seed_bit_identical(self, cellular_bundle):
        bundle = cellular_bundle()
        config = SimConfig(trials=2000, seed=42, window_radius=300.0)
        a = simulate(bundle, config)
        b = simulate(bundle, config)
        assert a.value == b.value
        assert a.ci_halfwidth == b.ci_halfwidth

    def test_different_seeds_differ(self, adhoc_bundle):
        bundle = adhoc_bundle()
        a = simulate(bundle, SimConfig(trials=2000, seed=1, window_radius=100.0))
        b = simulate(bundle, SimConfig(trials=2000, seed=2, window_radius=100.0))
        assert a.value != b.value


class TestStreams:
    # kappa = 1 draws one uniform per interferer, kappa = 2 two, point-major
    KINDS_AND_SHAPES = [
        pytest.param(kind, kappa, id=kind if kappa == 1.0 else f"{kind}-kappa2")
        for kind in ("cellular", "adhoc") for kappa in (1.0, 2.0)
    ]

    # 200 trials hold 5e4 (cellular) or 3e5 (ad hoc) points
    SCENARIOS = {
        "cellular": (dict(), SimConfig(trials=20_000, seed=7, window_radius=300.0)),
        "adhoc": (dict(m=2), SimConfig(trials=20_000, seed=7, window_radius=100.0)),
    }

    def _simulate(self, request, kind, kappa):
        params, config = self.SCENARIOS[kind]
        bundle = request.getfixturevalue(f"{kind}_bundle")(kappa=kappa, **params)
        return simulate(bundle, config)

    @pytest.mark.parametrize("kind, kappa", KINDS_AND_SHAPES)
    def test_chunking_cannot_change_the_estimate(self, request, monkeypatch, kind, kappa):
        # with a budget of 2e4 points the trials split into more than 200
        # runs, and no trial here is heavy enough to run alone past it
        reference = self._simulate(request, kind, kappa)
        draws = []

        def counted(bundle, rng, out, uniforms):
            draws.append(out.size)
            return _interferer_draw(bundle, rng, out, uniforms)

        monkeypatch.setattr(montecarlo, "_BLOCK_POINTS", 20_000)
        monkeypatch.setattr(montecarlo, "_interferer_draw", counted)
        chunked = self._simulate(request, kind, kappa)
        assert chunked.value == reference.value
        assert chunked.ci_halfwidth == reference.ci_halfwidth
        assert len(draws) > 200
        assert max(draws) <= 20_000

    @pytest.mark.parametrize("kind, kappa", KINDS_AND_SHAPES)
    def test_blocks_cannot_change_the_estimate(self, request, monkeypatch, kind, kappa):
        # the automatic disc holds about 90 (cellular) or 4 (ad hoc) points
        # per trial at kappa = 1, so by default a run holds hundreds of
        # trials; at 200 points it holds a few, and at 1 every trial runs alone
        bundle = request.getfixturevalue(f"{kind}_bundle")(m=2, kappa=kappa)
        config = SimConfig(trials=20_000, seed=7)
        reference = simulate(bundle, config)
        runs = []

        def recorded(weights, budget):
            for start, stop in _runs(weights, budget):
                runs.append((stop - start, int(weights[start:stop].sum())))
                yield start, stop

        monkeypatch.setattr(montecarlo, "_runs", recorded)
        for budget, n_runs in ((1, config.trials), (200, None), (10**9, 1)):
            runs.clear()
            monkeypatch.setattr(montecarlo, "_BLOCK_POINTS", budget)
            est = simulate(bundle, config)
            assert (est.value, est.ci_halfwidth) == (reference.value, reference.ci_halfwidth)
            assert sum(size for size, _ in runs) == config.trials
            assert all(weight <= budget or size == 1 for size, weight in runs)
            if n_runs is None:
                assert len(runs) > 200
            else:
                assert len(runs) == n_runs

    def test_redrawn_cellular_trials_keep_their_place(self, cellular_bundle, monkeypatch):
        # a disc holding 1.01 ln(100) points on average leaves about 1% of
        # the trials empty, some 190 redraws here; every block size gives
        # the pinned estimate
        radius = math.sqrt(1.01 * math.log(100.0) / (math.pi * 1e-3))
        config = SimConfig(trials=20_000, seed=6, window_radius=radius)
        for budget in (1, montecarlo._BLOCK_POINTS, 10**9):
            monkeypatch.setattr(montecarlo, "_BLOCK_POINTS", budget)
            est = simulate(cellular_bundle(m=2), config)
            assert (est.value, est.ci_halfwidth) == (0.8590081718750688, 0.0030307069765680024)

    def test_counts_are_drawn_group_by_group(self, cellular_bundle, monkeypatch):
        # about 1% of the trials come up empty on this disc; the counts are
        # drawn _COUNT_GROUP trials at a time, each group's as one Poisson
        # total split by uniform labels (4.7 points a trial is below
        # _FEW_POINTS), its empty trials redrawn in place before the next
        # group is drawn, at every run size
        radius = math.sqrt(1.01 * math.log(100.0) / (math.pi * 1e-3))
        config = SimConfig(trials=_COUNT_GROUP + 4464, seed=6, window_radius=radius)
        bundle = cellular_bundle(m=2)
        mean_points = _plan(bundle, config).mean_points
        assert mean_points < _FEW_POINTS

        def split(rng, size):
            return np.bincount(rng.integers(0, size, rng.poisson(size * mean_points)),
                               minlength=size)

        def count_stream():  # spawn key 0
            child = np.random.SeedSequence(config.seed).spawn(1)[0]
            return np.random.Generator(np.random.SFC64(child))

        rng = count_stream()
        groups = []
        for size in (_COUNT_GROUP, config.trials - _COUNT_GROUP):
            counts = split(rng, size)
            empty = counts == 0
            assert empty.any()
            while empty.any():
                counts[empty] = rng.poisson(mean_points, np.count_nonzero(empty))
                empty = counts == 0
            groups.append(counts)
        reference = np.concatenate(groups)
        # one split for all the trials, redrawn at the end, gives other counts
        assert not np.array_equal(reference[_COUNT_GROUP:],
                                  split(count_stream(), config.trials)[_COUNT_GROUP:])

        drawn = []

        def recorded(*args):
            counts = _counts(*args)
            drawn.append(counts.copy())
            return counts

        monkeypatch.setattr(montecarlo, "_counts", recorded)
        estimates = set()
        for budget in (200, montecarlo._BLOCK_POINTS, 10**9):
            drawn.clear()
            monkeypatch.setattr(montecarlo, "_BLOCK_POINTS", budget)
            est = simulate(bundle, config)
            estimates.add((est.value, est.ci_halfwidth))
            np.testing.assert_array_equal(np.concatenate(drawn), reference)
        assert len(estimates) == 1

    def test_loads_come_one_array_per_count_group(self, cellular_bundle, monkeypatch):
        # the kernel yields each count group's x whole, and the runs it
        # works a group in cannot change one of them
        radius = math.sqrt(1.01 * math.log(100.0) / (math.pi * 1e-3))
        config = SimConfig(trials=_COUNT_GROUP + 4464, seed=6, window_radius=radius)
        bundle = cellular_bundle(m=2)
        plan = _plan(bundle, config)
        loads = []
        for budget in (1, montecarlo._BLOCK_POINTS, 10**9):
            monkeypatch.setattr(montecarlo, "_BLOCK_POINTS", budget)
            with np.errstate(over="ignore", divide="ignore"):
                groups = list(_loads(bundle, plan, config.seed, config.trials))
            assert [x.size for x in groups] == [_COUNT_GROUP, 4464]
            assert all(x.dtype == np.float64 for x in groups)
            loads.append(np.concatenate(groups))
        assert all(np.array_equal(x, loads[0]) for x in loads[1:])

    # (kind, bundle parameters, config): about 90 positions per trial on the
    # automatic cellular disc, about 6300 per trial on the ad hoc window, so
    # at budget 1 the runs are small and odd draws leave a half buffered
    # for the next run; a general law's sampler draws its gains itself
    DRAW_SCENARIOS = [
        pytest.param("cellular", dict(m=2, kappa=2.0), SimConfig(trials=2000, seed=5),
                     id="cellular-kappa2"),
        pytest.param("adhoc", dict(kappa=3.0), SimConfig(trials=200, seed=5, window_radius=200.0),
                     id="adhoc-kappa3"),
        pytest.param("adhoc", dict(interferer=EXP_SAMPLER_LAW),
                     SimConfig(trials=200, seed=5, window_radius=200.0), id="adhoc-sampler"),
    ]

    @staticmethod
    def _shrinking(weights, budget):
        """A count group cut into runs that each hold half the trials left
        of it, so every run is smaller than the one before."""
        start = 0
        while start < len(weights):
            stop = start + max(1, (len(weights) - start) // 2)
            yield start, stop
            start = stop

    @pytest.mark.parametrize("kind, params, config", DRAW_SCENARIOS)
    def test_run_size_cannot_change_a_draw(self, request, monkeypatch, kind, params, config):
        # the positions (spawn key 1), the product-shape gain uniforms (key
        # 2) and the interferer gains of every run, put end to end, are one
        # draw from a fresh stream, and the estimate stays the same.  Two
        # cases reuse the workspace across runs of unequal size: runs that
        # shrink after a large one, and a budget of about one trial's weight,
        # where a heavier trial, run alone, grows the workspace
        bundle = request.getfixturevalue(f"{kind}_bundle")(**params)
        reference = simulate(bundle, config)
        draws, gains, built = {}, [], []

        def recorded(rng, out):
            u = _open_uniforms(rng, out)
            draws.setdefault(rng.bit_generator.seed_seq.spawn_key, []).append(u.copy())
            return u

        def recorded_gains(bundle, rng, out, uniforms):
            g = _interferer_draw(bundle, rng, out, uniforms)
            gains.append(g.copy())
            return g

        class RecordedWorkspace(_Workspace):
            def __init__(self, points, factors):
                built.append(points)
                super().__init__(points, factors)

        monkeypatch.setattr(montecarlo, "_open_uniforms", recorded)
        monkeypatch.setattr(montecarlo, "_interferer_draw", recorded_gains)
        monkeypatch.setattr(montecarlo, "_Workspace", RecordedWorkspace)
        children = np.random.SeedSequence(config.seed).spawn(3)
        keys = [(1,)] if "interferer" in params else [(1,), (2,)]
        default = montecarlo._BLOCK_POINTS
        one_trial = math.ceil(_plan(bundle, config).mean_points) + 1
        cases = [(1, _runs), (default, _runs), (10**9, _runs),
                 (default, self._shrinking), (one_trial, _runs)]
        for budget, runs in cases:
            draws.clear()
            gains.clear()
            built.clear()
            monkeypatch.setattr(montecarlo, "_BLOCK_POINTS", budget)
            monkeypatch.setattr(montecarlo, "_runs", runs)
            est = simulate(bundle, config)
            assert (est.value, est.ci_halfwidth) == (reference.value, reference.ci_halfwidth)
            assert sorted(draws) == keys
            for key, parts in draws.items():
                whole = np.concatenate(parts)
                assert whole.size > 10**5
                fresh = np.random.Generator(np.random.SFC64(children[key[0]]))
                np.testing.assert_array_equal(whole, 1 - fresh.random(whole.size, dtype=np.float32))
                if budget == 1:
                    assert len(parts) == config.trials
                if budget == 10**9:
                    assert len(parts) == 1
            whole = np.concatenate(gains)
            fresh = np.random.Generator(np.random.SFC64(children[2]))
            np.testing.assert_array_equal(whole, _draw(bundle, fresh, whole.size))
            sized = [points for points in built if points]
            if runs is self._shrinking:
                assert len(sized) == 1 and len(gains) > 5
                assert gains[0].size > max(g.size for g in gains[1:])
            if budget == one_trial:
                assert len(sized) >= 2 and sized == sorted(sized) and sized[-1] > budget


class TestOpenUniforms:
    # 0, 1, 2, 3, odd and even sizes, with and without a buffered half,
    # within one piece of raw words and across several
    SIZES = [0, 1, 2, 3, 7, 10, 4095, 4096, 4097, 12290,
             2 * _RAW_WORDS, 2 * _RAW_WORDS + 1, 5 * _RAW_WORDS + 2]

    def test_matches_one_minus_random(self):
        # ordinary float64 draws do not touch the buffered half-word, float32
        # draws leave one buffered or use it up: every case comes up below
        mine = np.random.Generator(np.random.SFC64(21))
        ref = np.random.Generator(np.random.SFC64(21))
        for i, n in enumerate(self.SIZES * 2):
            if i % 3 == 1:
                assert np.array_equal(mine.random(i), ref.random(i))
            if i % 2:
                assert np.array_equal(mine.random(i, dtype=np.float32),
                                      ref.random(i, dtype=np.float32))
            out = np.empty(n, dtype=np.float32)
            u = _open_uniforms(mine, out)
            assert u is out
            np.testing.assert_array_equal(u, 1 - ref.random(n, dtype=np.float32))
            assert str(mine.bit_generator.state) == str(ref.bit_generator.state)
        np.testing.assert_array_equal(mine.random(5, dtype=np.float32),
                                      ref.random(5, dtype=np.float32))

    @pytest.mark.parametrize("order", ["<u8", ">u8"])
    def test_halves_come_low_first_on_either_byte_order(self, order):
        words = np.random.Generator(np.random.SFC64(9)).bit_generator.random_raw(1001)
        halves = _halves(words.astype(order))
        expected = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()
        np.testing.assert_array_equal(halves, expected)


class TestUpperGamma:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 16, 17, 64, 128, 256, 512])
    def test_matches_scipy(self, m):
        # within 1e-12 where Q is a normal double of at least 1e-300, below
        # 1e-300 elsewhere, with no warning at x = 0, past e^-x's underflow
        # (x > 745) or at the largest double and inf; M = 16 is the last
        # shape summed one exp a term, 17 the first summed as a series
        from scipy import special

        x = np.array([0.0, 1e-300, 1e-8, 0.5, m - 1.0, m, 10.0 * m, 700.0, 744.0, 746.0,
                      1e3, 1e4, sys.float_info.max, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = _upper_gamma(m, x)
        reference = special.gammaincc(m, x)
        normal = reference >= 1e-300
        np.testing.assert_allclose(q[normal], reference[normal], rtol=1e-12, atol=0.0)
        assert (q[~normal] <= 1e-300).all()
        assert (q[x == 0.0] == 1.0).all() and q[-1] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 4, 5, 8, 16, 17, 64, 128, 512])
    def test_stays_within_0_and_1(self, m):
        # rounding took a plain sum of the M terms past 1 from M = 5 on (by
        # up to 2e-14 at M = 128 and 512), which CoverageEstimate refuses
        x = np.concatenate([np.geomspace(1e-3, 50.0, 20_001), np.linspace(0.0, 3.0 * m, 20_001)])
        q = _upper_gamma(m, x)
        assert ((q >= 0.0) & (q <= 1.0)).all()

    @pytest.mark.parametrize("m", [1000, 3000])
    def test_holds_past_the_analytic_orders(self, m):
        # below M - 1, from about 745 on, e^-x underflows while Q is near 1,
        # so the series starts from t_M; the rounding of the start exponent,
        # about M log x, grows with M, and this grid read 1.0e-11 at M = 3000
        from scipy import special

        x = np.concatenate([[0.0, 1e-300, 0.5, m - 1.0, m, 1e5, math.inf],
                            np.geomspace(700.0, 2.0 * m, 2001)])
        q = _upper_gamma(m, x)
        reference = special.gammaincc(m, x)
        normal = reference >= 1e-300
        np.testing.assert_allclose(q[normal], reference[normal], rtol=1e-10, atol=0.0)
        assert (q[~normal] <= 1e-300).all() and q[0] == 1.0 and q[x == math.inf] == 0.0

    def test_large_shapes_cost_no_exp_per_term(self):
        # 2^16 values at M = 512 took 8 ms as a series on a 2-core host, and
        # 0.4-0.6 s with one exp a term; the budget passes host noise and
        # fails only that slip
        x = 512.0 * np.exp(np.random.default_rng(1).uniform(-4.0, 4.0, 1 << 16))
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _upper_gamma(512, x)
            best = min(best, time.perf_counter() - start)
        assert best < 0.1, f"Q at M = 512: best of 3 took {best:.4f}s"

    @pytest.mark.parametrize("m", [128, 512])
    def test_near_certain_coverage_at_large_m(self, adhoc_bundle, m):
        # with no interferer in reach every trial has x = tau noise = 1, where
        # a plain sum of the terms read 1 + 2^-52, and simulate refused it
        bundle = adhoc_bundle(m=m, lam=1e-12, noise=1.0)
        est = simulate(bundle, SimConfig(trials=1000, seed=3))
        assert est.value == 1.0 and est.ci_halfwidth == 0.0
        assert est.value - coverage(bundle).value < 1e-12


class TestInterval:
    @staticmethod
    def _recorded(monkeypatch):
        """The Q(M, x) values of every trial that ``simulate`` averages."""
        values = []

        def recorded(shape, x):
            q = _upper_gamma(shape, x)
            values.append(q.copy())
            return q

        monkeypatch.setattr(montecarlo, "_upper_gamma", recorded)
        return values

    def test_halfwidth_is_the_sample_standard_error(self, request, monkeypatch):
        # the estimate is the mean of the trials' Q(M, x), and the halfwidth
        # 1.96 times their sample standard deviation over sqrt(n)
        values = self._recorded(monkeypatch)
        for kind, trials in (("cellular", 100), ("adhoc", 100), ("cellular", 2), ("adhoc", 1999)):
            values.clear()
            bundle = request.getfixturevalue(f"{kind}_bundle")(m=2)
            est = simulate(bundle, SimConfig(trials=trials, seed=3))
            q = np.concatenate(values)
            assert q.size == trials
            assert est.value == pytest.approx(q.mean(), rel=1e-14)
            assert est.ci_halfwidth == pytest.approx(
                1.96 * np.std(q, ddof=1) / math.sqrt(trials), rel=1e-12)

    def test_equal_values_have_a_zero_halfwidth(self, adhoc_bundle, monkeypatch):
        # a disc of radius 0.01 holds no interferer in these trials, so every
        # x is the noise load and every Q the same
        values = self._recorded(monkeypatch)
        est = simulate(adhoc_bundle(m=2, noise=0.1),
                       SimConfig(trials=2000, seed=3, window_radius=0.01))
        q = np.concatenate(values)
        assert q.size == 2000 and (q == q[0]).all() and 0.0 < q[0] < 1.0
        assert est.value == q[0]
        assert est.ci_halfwidth == 0.0

    def test_interval_covers_the_series_value_95_percent_of_the_time(self, adhoc_bundle):
        # 400 seeds of 300 trials each; the count of intervals that hold the
        # exact coverage must be a likely draw of Binomial(400, 0.95)
        from scipy import stats

        bundle = adhoc_bundle()
        exact = coverage(bundle).value
        seeds = 400
        covered = sum(abs(est.value - exact) <= est.ci_halfwidth
                      for est in (simulate(bundle, SimConfig(trials=300, seed=seed))
                                  for seed in range(seeds)))
        assert stats.binomtest(covered, seeds, 0.95).pvalue > 1e-3


class TestPlan:
    def test_automatic_window(self, cellular_bundle):
        bundle = cellular_bundle(alpha=3.5, m=2, noise=0.01, kappa=2.0)
        plan = _plan(bundle, SimConfig(trials=1000, seed=0))
        anchor = math.sqrt(math.log(2.0) / (math.pi * 1e-3))
        assert plan.anchor == anchor
        assert plan.radius == auto_window(bundle)
        assert plan.far_mean == _far_field_mean(bundle, plan.radius, math.log(2.0), anchor)
        assert plan.noise == 0.01 * anchor**3.5
        assert plan.mean_points == 1e-3 * math.pi * plan.radius**2

    def test_explicit_window_adds_nothing_for_the_far_field(self, adhoc_bundle):
        plan = _plan(adhoc_bundle(), SimConfig(trials=1000, seed=0, window_radius=20.0))
        assert (plan.radius, plan.far_mean, plan.noise) == (20.0, 0.0, 0.0)


class TestFarField:
    def test_mean_is_campbells_formula(self, cellular_bundle):
        bundle = cellular_bundle(alpha=3.5, lam=2e-3, kappa=2.0, beta=0.7)
        expected = 2.0 * math.pi * 2e-3 * 2.0 * 0.7 * 250.0**-1.5 / 1.5
        log_gain = _gain_moments(bundle)[0]
        assert _far_field_mean(bundle, 250.0, log_gain, 1.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind", ["cellular", "adhoc"])
    def test_mean_is_added_to_every_trial(self, request, kind):
        # the automatic run draws what a truncated run of the same radius
        # draws, and sees the far mean exactly as extra noise would
        make = request.getfixturevalue(f"{kind}_bundle")
        bundle = make(alpha=3.0, m=2, noise=0.05)
        radius = auto_window(bundle)
        far = _far_field_mean(bundle, radius, _gain_moments(bundle)[0], 1.0)
        auto = simulate(bundle, SimConfig(trials=2000, seed=3))
        shifted = simulate(make(alpha=3.0, m=2, noise=0.05 + far),
                           SimConfig(trials=2000, seed=3, window_radius=radius))
        assert far > 0.0
        assert (auto.value, auto.ci_halfwidth) == (shifted.value, shifted.ci_halfwidth)

    def test_explicit_window_and_general_law_truncate_plainly(self, cellular_bundle,
                                                              adhoc_bundle):
        # pinned estimates of plain truncation on explicit windows, for a
        # Gamma law and a general law
        est = simulate(cellular_bundle(alpha=3.0, m=2),
                       SimConfig(trials=2000, seed=5, window_radius=300.0))
        assert (est.value, est.ci_halfwidth) == (0.5822601470182103, 0.015268009759450888)
        est = simulate(adhoc_bundle(m=2, interferer=EXP_SAMPLER_LAW),
                       SimConfig(trials=2000, seed=9, window_radius=10001.0**0.5))
        assert (est.value, est.ci_halfwidth) == (0.8834935809511633, 0.011995652691116266)


class TestAgreementWithAnalytic:
    def test_cellular_single_antenna(self, cellular_bundle):
        bundle = cellular_bundle()
        exact = coverage(bundle).value
        window = 40.0 * math.sqrt(math.log(2.0) / (math.pi * 1e-3))
        est = simulate(bundle, SimConfig(trials=60_000, seed=11,
                                         window_radius=window))
        assert est.trials == 60_000
        assert est.ci_halfwidth > 0.0
        assert abs(est.value - exact) < 2.2 * est.ci_halfwidth

    def test_adhoc_two_antennas(self, adhoc_bundle):
        bundle = adhoc_bundle(m=2)
        exact = coverage(bundle).value
        est = simulate(bundle, SimConfig(trials=100_000, seed=2))
        assert abs(est.value - exact) < 2.2 * est.ci_halfwidth

    def test_adhoc_with_noise(self, adhoc_bundle):
        # with one antenna the noisy link has the closed form exp(-mu - s)
        bundle = adhoc_bundle(noise=0.3)
        mu = math.pi**2 * 0.05 / 2.0
        exact = math.exp(-mu - 0.3)
        est = simulate(bundle, SimConfig(trials=60_000, seed=5))
        assert abs(est.value - exact) < 2.2 * est.ci_halfwidth

    @pytest.mark.parametrize("window, seed", [(300.0, 21), (600.0, 22)])
    def test_insensitive_to_window_past_the_bias_radius(self, cellular_bundle,
                                                        window, seed):
        bundle = cellular_bundle()
        exact = coverage(bundle).value
        est = simulate(bundle, SimConfig(trials=20_000, seed=seed,
                                         window_radius=window))
        assert abs(est.value - exact) < 2.2 * est.ci_halfwidth


class TestLengthScale:
    # distances are measured in the anchor (r0, or the median serving
    # distance), so float32 positions cannot overflow or lose the link
    # at any length scale, and one seed gives one estimate at every scale
    @staticmethod
    def _simulate(bundle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return simulate(bundle, SimConfig(trials=20_000, seed=5)).value

    def test_cellular_density(self, cellular_bundle):
        exact = coverage(cellular_bundle()).value
        estimates = [self._simulate(cellular_bundle(lam=lam)) for lam in (1e-20, 1e-3, 1e30)]
        assert estimates[1] == pytest.approx(exact, abs=0.015)
        assert estimates == pytest.approx([estimates[1]] * 3, abs=1e-3)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_adhoc_link_distance(self, adhoc_bundle, noise):
        # lambda r0^2 = 0.05 and noise r0^alpha = 0.1 fix the link's statistics
        exact = coverage(adhoc_bundle(noise=noise)).value
        estimates = [self._simulate(adhoc_bundle(lam=0.05 / r0**2, r0=r0, noise=noise / r0**4))
                     for r0 in (1e-10, 1.0, 1e10)]
        assert estimates[1] == pytest.approx(exact, abs=0.015)
        assert estimates == pytest.approx([estimates[1]] * 3, abs=1e-3)

    def test_noise_past_the_double_range_is_a_numerical_error(self, adhoc_bundle):
        bundle = adhoc_bundle(lam=1e-200, r0=1e100, noise=1.0)
        with pytest.raises(NumericalError, match="overflows"):
            simulate(bundle, SimConfig(trials=100, seed=0))


class TestAutomaticWindowAgreement:
    # heavy path-loss tails, where plain truncation would need 1e7 to 1e16
    # points per trial for its bias to hide in the noise
    @pytest.mark.parametrize("m", [1, 4, 16])
    @pytest.mark.parametrize("alpha", [2.5, 3.0])
    @pytest.mark.parametrize("kind", ["cellular", "adhoc"])
    def test_near_disc_with_far_mean(self, request, kind, alpha, m):
        bundle = request.getfixturevalue(f"{kind}_bundle")(alpha=alpha, m=m)
        exact = coverage(bundle).value
        est = simulate(bundle, SimConfig(trials=100_000, seed=m))
        z = (est.value - exact) / (est.ci_halfwidth / 1.96)
        assert abs(z) <= 3.0

    @pytest.mark.parametrize("kappa", [2.0, 3.0])
    @pytest.mark.parametrize("kind", ["cellular", "adhoc"])
    def test_integer_shape_gains(self, request, kind, kappa):
        # Nakagami interferers, drawn as -log of a product of kappa uniforms
        bundle = request.getfixturevalue(f"{kind}_bundle")(m=2, kappa=kappa)
        exact = coverage(bundle).value
        est = simulate(bundle, SimConfig(trials=200_000, seed=11))
        z = (est.value - exact) / (est.ci_halfwidth / 1.96)
        assert abs(z) <= 3.0

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    @pytest.mark.parametrize("kind", ["cellular", "adhoc"])
    def test_general_law(self, request, kind, alpha):
        # the exponential law given as a pdf and a sampler, on the default window
        bundle = request.getfixturevalue(f"{kind}_bundle")(m=2, alpha=alpha,
                                                           interferer=EXP_SAMPLER_LAW)
        exact = coverage(bundle).value
        est = simulate(bundle, SimConfig(trials=100_000, seed=2))
        z = (est.value - exact) / (est.ci_halfwidth / 1.96)
        assert abs(z) <= 3.0

    @pytest.mark.parametrize("alpha, tau, trials", [
        pytest.param(60.0, 1.0, 200_000, id="60.0"),
        pytest.param(90.0, 1.0, 200_000, id="90.0"),
        pytest.param(600.0, 1.0, 100_000, id="600.0-0dB"),
        pytest.param(600.0, 1e-3, 100_000, id="600.0--30dB"),
    ])
    def test_large_alpha_cellular(self, cellular_bundle, alpha, tau, trials):
        # interferers nearer than about 0.3 anchors have a float32 d^alpha
        # that underflows to 0 at alpha = 90; taken relative to the serving
        # term, their terms stay finite and the trial is judged on them.  A
        # term is formed in logarithms, so a base^(alpha / 2) past float32
        # neither zeroes it nor takes the slow overflow path of np.power.  At
        # alpha = 600 the serving d^alpha of a point a few anchors out passes
        # the double range, so its load tau d^alpha floor is worked in
        # logarithms too (it read z = -2.90 at 0 dB and -7.37 at -30 dB before).
        # At -30 dB the outage is 3.3e-6, yet each trial's Q(M, x) below 1
        # gives the interval a nonzero halfwidth (3.9e-7)
        bundle = cellular_bundle(alpha=alpha, tau=tau)
        exact = coverage(bundle).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate(bundle, SimConfig(trials=trials, seed=11))
        z = (est.value - exact) / (est.ci_halfwidth / 1.96)
        assert abs(z) <= 3.0

    @pytest.mark.parametrize("alpha", [30.0, 90.0])
    def test_large_alpha_adhoc(self, adhoc_bundle, alpha):
        # an interferer far nearer than the link has a float32 d^alpha that
        # underflows to 0; its term (tau / theta) g (d / r0)^-alpha is formed
        # in logarithms, inf where it passes float32, with no warning
        bundle = adhoc_bundle(alpha=alpha, r0=10.0, lam=1e-3)
        exact = coverage(bundle).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate(bundle, SimConfig(trials=100_000, seed=11))
        z = (est.value - exact) / (est.ci_halfwidth / 1.96)
        assert abs(z) <= 3.0

    def test_near_interferers_at_minus_3000_db(self, adhoc_bundle):
        # tau times a near term of 1e78 g is still far below the signal, so
        # every trial covers, as the series says; formed in logarithms with
        # tau inside, such a term neither underflows nor reads g / 0, which
        # made 3.8% of the trials uncovered
        bundle = adhoc_bundle(alpha=30.0, r0=10.0, tau=1e-300)
        assert coverage(bundle).value == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate(bundle, SimConfig(trials=10_000, seed=11, window_radius=100.0))
        assert est.value == 1.0

    def test_large_alpha_cellular_at_1000_db(self, cellular_bundle):
        # a term g / base^30 below the float32 range is tiny, but tau = 1e100
        # times it is far above the signal; formed as a float32 product it
        # read 0 and the estimate 0.0415 +- 0.0039 against 4.63e-4 (z = +20.6)
        bundle = cellular_bundle(alpha=60.0, tau=1e100)
        exact = coverage(bundle).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate(bundle, SimConfig(trials=10_000, seed=3))
        z = (est.value - exact) / (est.ci_halfwidth / 1.96)
        assert abs(z) <= 4.0

    def test_high_threshold_needs_more_than_the_variance_rule(self, adhoc_bundle):
        # at 27.7 dB the bias bound asks for 192 points per trial; the
        # variance rule without its 200-point floor gives 7.3 and reads
        # 10-13% low here
        bundle = adhoc_bundle(tau=10.0**2.77)
        exact = coverage(bundle).value
        assert 0.05 * math.pi * auto_window(bundle) ** 2 == pytest.approx(191.6, abs=0.1)
        est = simulate(bundle, SimConfig(trials=200_000, seed=11))
        z = (est.value - exact) / (est.ci_halfwidth / 1.96)
        assert abs(z) <= 3.0


class TestSeededAgreementSweep:
    # random valid scenarios on their default windows, drawn from one
    # fixed seed: alpha 2.2-600, tau +-1000 dB, theta 1e+-10; each estimate
    # must sit within 5 binomial standard deviations of the series
    @staticmethod
    def _draws():
        rng = np.random.default_rng(2718)
        for i in range(16):
            alpha = 2.2 * (600.0 / 2.2) ** rng.random()
            tau = 10.0 ** (rng.uniform(-1000.0, 1000.0) / 10.0)
            theta = 10.0 ** rng.uniform(-10.0, 10.0)
            kappa = float(rng.choice([1.0, 2.0, 2.5]))
            m = int(rng.integers(1, 9))
            yield i, ("cellular", "adhoc")[i % 2], dict(alpha=alpha, tau=tau, theta=theta,
                                                         kappa=kappa, m=m)

    def test_estimates_agree_with_the_series(self, request):
        trials, checked = 3000, 0
        for seed, kind, params in self._draws():
            bundle = request.getfixturevalue(f"{kind}_bundle")(**params)
            config = SimConfig(trials=trials, seed=seed)
            try:
                _plan(bundle, config)
            except MimocovError:
                continue
            exact = coverage(bundle).value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = simulate(bundle, config)
            spread = 5.0 * math.sqrt(exact * (1.0 - exact) / trials)
            assert abs(est.value - exact) <= spread, (kind, params, est.value, exact)
            checked += 1
        assert checked >= 12


def _exp_gains(rng, size):
    return -np.log(np.float32(1.0) - rng.random(size, dtype=np.float32))


def _exp_gains_with(value):
    """A sampler of float64 exponential gains with ``value`` in the middle."""
    def sampler(rng, size):
        gains = _exp_gains(rng, size).astype(np.float64)
        gains[size // 2] = value
        return gains
    return sampler


def _draw(bundle, rng, n):
    """``n`` interferer gains from ``rng``, drawn into fresh buffers."""
    return _interferer_draw(bundle, rng, np.empty(n, dtype=np.float32),
                            np.empty(4 * n, dtype=np.float32))


class _RecordingRng:
    """A generator that records the names of the methods called on it."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.SFC64(seed))
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._rng, name)


class TestInterfererDraw:
    @pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0, 4.0])
    def test_integer_shapes_follow_the_gamma_law(self, cellular_bundle, kappa):
        # -log of a product of kappa uniforms, times beta, is Gamma(kappa, beta)
        from scipy import stats

        beta, n = 0.8, 2**20
        rng = np.random.Generator(np.random.SFC64(int(kappa)))
        draw = _draw(cellular_bundle(kappa=kappa, beta=beta), rng, n)
        assert draw.dtype == np.float32 and draw.shape == (n,)
        assert np.isfinite(draw).all()
        # a draw is 0 only when all its kappa uniforms are, 2^(-24 kappa) of the time
        assert draw.min() >= 0.0 and np.count_nonzero(draw == 0.0) <= 1
        assert draw.max() <= 24.0 * kappa * math.log(2.0) * beta * (1.0 + 1e-6)
        assert draw.mean() == pytest.approx(kappa * beta, rel=0.005)
        assert draw.var() == pytest.approx(kappa * beta**2, rel=0.02)
        ks = stats.kstest(draw.astype(np.float64), stats.gamma(kappa, scale=beta).cdf)
        # the 0.1% critical value of the Kolmogorov distance, sqrt(ln(2000) / 2 n)
        assert ks.statistic < math.sqrt(math.log(2000.0) / (2.0 * n))

    @pytest.mark.parametrize("kappa", [2.5, 5.0])
    def test_other_shapes_use_the_gamma_sampler(self, cellular_bundle, kappa):
        rng = _RecordingRng(3)
        draw = _draw(cellular_bundle(kappa=kappa), rng, 1000)
        assert rng.calls == ["standard_gamma"]
        assert draw.dtype == np.float32

    def test_integer_shapes_draw_uniforms_point_major(self, cellular_bundle):
        # point i takes uniforms 3i .. 3i + 2, so one call and two give the same draws
        bundle = cellular_bundle(kappa=3.0)
        whole = _draw(bundle, np.random.Generator(np.random.SFC64(4)), 1001)
        rng = np.random.Generator(np.random.SFC64(4))
        parts = [_draw(bundle, rng, size) for size in (333, 668)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        u = np.random.Generator(np.random.SFC64(4)).random(3 * 1001, dtype=np.float32)
        prod = (1 - u[0::3]) * (1 - u[1::3]) * (1 - u[2::3])
        np.testing.assert_array_equal(whole, -np.log(prod))

    def test_gamma_law_moments(self, cellular_bundle):
        bundle = cellular_bundle(kappa=2.5, beta=0.8)
        rng = np.random.Generator(np.random.Philox(key=7))
        draw = _draw(bundle, rng, 1_000_000)
        assert draw.dtype == np.float32
        assert draw.mean() == pytest.approx(2.5 * 0.8, rel=0.01)
        assert draw.var() == pytest.approx(2.5 * 0.8**2, rel=0.03)

    def test_exponential_fast_path_scales(self, cellular_bundle):
        bundle = cellular_bundle(kappa=1.0, beta=3.0)
        rng = np.random.Generator(np.random.Philox(key=8))
        draw = _draw(bundle, rng, 500_000)
        assert draw.mean() == pytest.approx(3.0, rel=0.01)

    def test_sampler_path_matches_gamma_fast_path(self, adhoc_bundle):
        # an Exp(1) sampler makes the identical generator calls as the
        # built-in unit-gamma path, so the estimates agree bit for bit
        config = SimConfig(trials=20_000, seed=2, window_radius=100.0)
        via_sampler = simulate(adhoc_bundle(m=2, interferer=EXP_SAMPLER_LAW), config)
        via_gamma = simulate(adhoc_bundle(m=2), config)
        assert via_sampler.value == via_gamma.value

    def test_missing_sampler_is_rejected(self, adhoc_bundle):
        law = InterfererGainSpec(pdf=lambda g: math.exp(-g) if g >= 0.0 else 0.0)
        bundle = adhoc_bundle(interferer=law)
        with pytest.raises(ConfigurationError, match="sampler"):
            simulate(bundle, SimConfig(trials=100, seed=0))

    # each was taken as it came: a scalar or one value broadcast to every
    # point, a negative or NaN gain read as coverage, a 2-D array raised a
    # bare numpy error
    BAD_SAMPLERS = {
        "scalar": lambda rng, size: float(_exp_gains(rng, 1)[0]),
        "length-1": lambda rng, size: _exp_gains(rng, 1),
        "2-D": lambda rng, size: _exp_gains(rng, size).reshape(size, 1),
        "negative": lambda rng, size: -_exp_gains(rng, size),
        "one-nan": _exp_gains_with(np.nan),
        "one-inf": _exp_gains_with(np.inf),
        "past-float32": _exp_gains_with(1e39),
        "complex": lambda rng, size: _exp_gains(rng, size) + 0j,
    }

    @pytest.mark.parametrize("kind", ["cellular", "adhoc"])
    @pytest.mark.parametrize("name", list(BAD_SAMPLERS))
    def test_bad_sampler_output_is_refused(self, request, kind, name):
        law = InterfererGainSpec(pdf=EXP_SAMPLER_LAW.pdf, sampler=self.BAD_SAMPLERS[name])
        bundle = request.getfixturevalue(f"{kind}_bundle")(m=2, interferer=law)
        with pytest.raises(ConfigurationError, match="sampler"):
            simulate(bundle, SimConfig(trials=2000, seed=1))

    @pytest.mark.parametrize("kind", ["cellular", "adhoc"])
    def test_sampler_may_return_any_real_sequence(self, request, kind):
        # a list of Python floats gives the draws of the float32 array
        def as_list(rng, size):
            return [float(g) for g in _exp_gains(rng, size)]

        config = SimConfig(trials=2000, seed=1)
        make = request.getfixturevalue(f"{kind}_bundle")
        listed = simulate(make(m=2, interferer=InterfererGainSpec(pdf=EXP_SAMPLER_LAW.pdf,
                                                                  sampler=as_list)), config)
        direct = simulate(make(m=2, interferer=EXP_SAMPLER_LAW), config)
        assert (listed.value, listed.ci_halfwidth) == (direct.value, direct.ci_halfwidth)


class TestFewPointDraws:
    # below _FEW_POINTS a trial, the counts are one Poisson total split by
    # uniform labels, which must follow the Poisson law exactly
    N = 1 << 16

    @pytest.mark.parametrize("mean", [1.3, 3.4, 5.9, 9.99])
    def test_split_counts_are_poisson(self, mean):
        from scipy import stats

        rng = _RecordingRng(int(mean * 100))
        counts = _counts(rng, mean, self.N, cellular=False)
        assert sorted(rng.calls) == ["integers", "poisson"]
        assert counts.shape == (self.N,) and counts.min() >= 0
        # mean and variance within 5 standard errors; a Poisson variance
        # estimate has variance about (mean + 2 mean^2) / n
        assert abs(counts.mean() - mean) <= 5.0 * math.sqrt(mean / self.N)
        assert abs(counts.var(ddof=1) - mean) <= 5.0 * math.sqrt((mean + 2.0 * mean**2) / self.N)
        # chi-squared against the pmf, the tail pooled where fewer than 5 are expected
        top = int(stats.poisson(mean).isf(5.0 / self.N))
        observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
        expected = self.N * stats.poisson(mean).pmf(np.arange(top + 1))
        expected[top] = self.N * stats.poisson(mean).sf(top - 1)
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_many_points_keep_one_draw_per_trial(self):
        rng = _RecordingRng(7)
        _counts(rng, _FEW_POINTS, 1000, cellular=False)
        assert rng.calls == ["poisson"]

    def test_cellular_split_counts_are_never_empty(self):
        # at 1.01 ln(100) points about 1% of the split counts are 0, each
        # redrawn until it holds a point: Poisson conditioned on N >= 1
        mean = 1.01 * math.log(100.0)
        counts = _counts(np.random.Generator(np.random.SFC64(5)), mean, self.N, cellular=True)
        assert counts.min() == 1
        truncated = mean / -math.expm1(-mean)
        assert abs(counts.mean() - truncated) <= 5.0 * math.sqrt(mean / self.N)


class TestEdgeCases:
    def test_sparse_adhoc_trials_without_interferers(self, adhoc_bundle):
        # nearly all realizations are empty line-of-sight links; the segment
        # bookkeeping must not choke on zero-count trials
        bundle = adhoc_bundle(lam=1e-4)
        est = simulate(bundle, SimConfig(trials=2000, seed=3,
                                         window_radius=5.0))
        assert 0.99 < est.value <= 1.0

    def test_alpha4_scale_past_the_double_range(self, adhoc_bundle):
        # tau / theta = 1e310 overflows; a trial with no interferer in the
        # disc still covers (not inf * 0), and any other does not, so the
        # estimate is the empty share, about exp(-0.05 pi 2^2) = 0.534
        bundle = adhoc_bundle(tau=1e300, theta=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate(bundle, SimConfig(trials=4000, seed=1, window_radius=2.0))
        assert est.value == 0.53675

    def test_point_count_is_refused_before_allocation(self, cellular_bundle):
        # a disc of radius 1e5 holds ~3e7 points per trial at this density
        config = SimConfig(trials=1000, seed=0, window_radius=1e5)
        with pytest.raises(ConfigurationError, match=r"e\+07 points.*window_radius"):
            simulate(cellular_bundle(), config)

    def test_cellular_window_too_small(self, cellular_bundle):
        config = SimConfig(trials=1000, seed=0, window_radius=5.0)
        with pytest.raises(ConfigurationError, match="enlarge window_radius"):
            simulate(cellular_bundle(), config)


class TestEmptyWindow:
    # a disc holding lam pi R^2 = ln(100) points on average is empty in
    # exactly 1% of the realizations, the most the simulator accepts
    @staticmethod
    def _radius(mean_points, lam=1e-3):
        return math.sqrt(mean_points / (math.pi * lam))

    def test_refused_before_any_stream_is_seeded(self, cellular_bundle, monkeypatch):
        def unseedable(*args, **kwargs):
            raise AssertionError("streams were seeded")

        monkeypatch.setattr(np.random, "SeedSequence", unseedable)
        config = SimConfig(trials=1000, seed=0,
                           window_radius=self._radius(0.99 * math.log(100.0)))
        with pytest.raises(ConfigurationError, match="enlarge window_radius"):
            simulate(cellular_bundle(), config)

    def test_just_inside_the_budget_runs(self, cellular_bundle):
        config = SimConfig(trials=2000, seed=4,
                           window_radius=self._radius(1.01 * math.log(100.0)))
        est = simulate(cellular_bundle(), config)
        assert 0.0 < est.value < 1.0
        assert 0.0 < est.ci_halfwidth < math.inf
