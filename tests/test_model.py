import pytest

from pagecusum import (ChangeScenario, Garch11Spec, MonitoringParams,
                       TrainingSummary, ValidationError, boundary_g,
                       classify_case, compute_b_m, compute_eta,
                       compute_normalization, empirical_size,
                       estimate_critical_value, eta_zero_beta, kde,
                       location_paths, resolve_kstar, rng_stream,
                       run_replications, sample_wiener_path, solve_a_m,
                       validate_scenario)
from pagecusum.datagen import generate_garch11_batch

GARCH = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3, burn_in=5)
PARAMS = MonitoringParams(m=20, horizon_factor=1.0)


@pytest.mark.parametrize("call", [
    lambda: MonitoringParams(m=100.0),
    lambda: ChangeScenario.at_kstar(1.0, 2.0),
    lambda: next(location_paths(GARCH, 0.0, None, 2.5, 10, seed=0)),
    lambda: next(location_paths(GARCH, 0.0, None, 20, 10.0, seed=0)),
    lambda: run_replications(PARAMS, ChangeScenario.at_kstar(1.0, 2), GARCH,
                             2.5, 1.7, 1.6, seed=1),
    lambda: run_replications(PARAMS, ChangeScenario.at_kstar(1.0, 2), GARCH,
                             True, 1.7, 1.6, seed=1),
    lambda: empirical_size(PARAMS, GARCH, 4, 1.7, seed=1, threads=1.5),
    lambda: estimate_critical_value(0.0, 0.1, "one_sided", "page",
                                    reps=1000.5, T=10),
    lambda: estimate_critical_value(0.0, 0.1, "one_sided", "page",
                                    reps=100, T=10.5),
    lambda: sample_wiener_path(10.5, rng_stream(0, 0)),
    lambda: kde([1.0, 2.0, 3.0], 0.0, 4.0, points=2.5),
    lambda: generate_garch11_batch(GARCH, 2.5, 1, seed=0),
    lambda: generate_garch11_batch(GARCH, 4, 2.5, seed=0),
    lambda: solve_a_m(1.7, 100.5, 3.5, 1.0),
    lambda: compute_b_m(10.0, 1.0, 1.0, 0.25, 2.5),
    lambda: resolve_kstar(1.0, 0.5, 100.5),
    lambda: boundary_g(100.5, 1, 0.0),
    lambda: TrainingSummary(m=2.5, mean=0.0, sigma_hat=1.0),
], ids=["m", "kstar", "stream_m", "stream_length", "reps", "reps_bool",
        "threads", "critvals_reps", "critvals_T", "wiener_T", "kde_points",
        "garch_n", "garch_n_paths", "solve_a_m", "compute_b_m",
        "resolve_kstar", "boundary_g", "training_m"])
def test_counts_must_be_integers(call):
    # a float or bool count is a ValidationError, never a TypeError later on
    # or a silently accepted value
    with pytest.raises(ValidationError, match="must be an integer >="):
        call()


@pytest.mark.parametrize("count", [2 ** 53 + 1, 10 ** 309],
                         ids=["2**53+1", "10**309"])
@pytest.mark.parametrize("call", [
    lambda n: MonitoringParams(m=n),
    lambda n: ChangeScenario.at_kstar(1.0, n),
    lambda n: ChangeScenario(delta=1.0, kstar=n),
    lambda n: resolve_kstar(1.0, 0.5, n),
    lambda n: solve_a_m(1.7, n, 3, 1.0),
    lambda n: next(location_paths(GARCH, 0.0, None, 20, n, seed=0)),
], ids=["m", "at_kstar", "kstar", "resolve_kstar", "solve_a_m",
        "stream_length"])
def test_counts_are_bounded_at_2_53(call, count):
    # a float holds every integer up to 2**53 exactly; past it a count
    # fails validation instead of overflowing a float later on
    with pytest.raises(ValidationError, match=r"must be at most 2\*\*53"):
        call(count)


def test_a_count_of_2_53_is_accepted():
    assert ChangeScenario.at_kstar(1.0, 2 ** 53).theta == 2.0 ** 53
    assert MonitoringParams(m=2 ** 53, horizon_factor=1.0).horizon == 2 ** 53


class TestMonitoringParams:
    def test_defaults_and_horizon(self):
        p = MonitoringParams(m=100)
        assert p.horizon == 2000
        assert MonitoringParams(m=10, horizon_factor=2.5).horizon == 25

    @pytest.mark.parametrize("kwargs", [
        dict(m=1),
        dict(m=100, gamma=0.5),
        dict(m=100, gamma=-0.1),
        dict(m=100, alpha=0.0),
        dict(m=100, alpha=1.0),
        dict(m=100, side="both"),
        dict(m=100, detector="cusum2"),
        dict(m=100, horizon_factor=0.0),
        dict(m=100, horizon_factor=float("inf")),
        dict(m=100, horizon_factor=float("nan")),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            MonitoringParams(**kwargs)

    @pytest.mark.parametrize("m, factor", [(100, 1e308), (100, 1e20),
                                           (2 ** 52, 2.0 + 2 ** -51)])
    def test_horizon_is_bounded_at_2_53(self, m, factor):
        # checked before ceil(horizon_factor * m) is formed
        with pytest.raises(ValidationError, match="horizon_factor \\* m"):
            MonitoringParams(m=m, horizon_factor=factor)
        assert MonitoringParams(m=2 ** 52, horizon_factor=2.0).horizon == (
            2 ** 53)

    def test_gamma_half_is_rejected_with_named_constraint(self):
        with pytest.raises(ValidationError, match=r"\[0, 0.5\)"):
            MonitoringParams(m=100, gamma=0.5)


class TestEta:
    def test_examples(self):
        assert compute_eta(0.0, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert compute_eta(0.0, 0.45) == pytest.approx(-0.05, abs=1e-15)
        assert compute_eta(0.45, 0.75) == pytest.approx(0.3625, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValidationError):
            compute_eta(0.5, 0.3)
        with pytest.raises(ValidationError):
            compute_eta(0.1, 1.0)

    def test_eta_vanishes_on_the_boundary_exponent(self):
        for i in range(50):
            gamma = 0.4999 * i / 49
            beta = eta_zero_beta(gamma)
            assert abs(compute_eta(gamma, beta)) < 1e-12


class TestResolveKstar:
    def test_float_power_semantics(self):
        # floating floor: 1000**(1/3) lands just below 10
        assert resolve_kstar(1.0, 1.0 / 3.0, 1000) == 9
        assert resolve_kstar(1.0, 1.0 / 3.0, 100) == 4
        assert resolve_kstar(1.0, 1.0 / 3.0, 10000) == 21
        assert resolve_kstar(1.0, 0.75, 10000) == 1000
        assert resolve_kstar(1.0, 0.45, 100) == 7
        assert resolve_kstar(1.0, 1.0 / 11.0, 10000) == 2
        assert resolve_kstar(100.0, 0.0, 12345) == 100

    def test_must_be_at_least_one(self):
        with pytest.raises(ValidationError):
            resolve_kstar(0.5, 0.0, 100)

    @pytest.mark.parametrize("theta, beta, m", [(1e308, 0.9, 1000),
                                                (2.0 ** 53, 0.5, 4)])
    def test_bounded_at_2_53_before_the_floor(self, theta, beta, m):
        with pytest.raises(ValidationError,
                           match=r"theta \* m\*\*beta must be at most"):
            resolve_kstar(theta, beta, m)
        assert resolve_kstar(2.0 ** 53, 0.0, m) == 2 ** 53

    def test_nondecreasing_in_m(self):
        for theta, beta in [(1.0, 0.45), (2.5, 0.3), (1.0, 0.75)]:
            ks = [resolve_kstar(theta, beta, m) for m in range(2, 2000, 37)]
            assert all(a <= b for a, b in zip(ks, ks[1:]))


class TestChangeScenario:
    def test_constructors(self):
        s = ChangeScenario.from_exponent(1.0, 1.0, 0.5, 400)
        assert s.kstar == 20
        s2 = ChangeScenario.at_kstar(-0.5, 7)
        assert s2.beta == 0.0 and s2.theta == 7.0

    def test_invariants(self):
        with pytest.raises(ValidationError):
            ChangeScenario(delta=0.0, kstar=1)
        with pytest.raises(ValidationError):
            ChangeScenario(delta=1.0, kstar=0)
        with pytest.raises(ValidationError):
            ChangeScenario(delta=1.0, kstar=1, sigma=0.0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="finite"):
                ChangeScenario(delta=bad, kstar=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma_and_theta(self, bad):
        builders = [
            lambda: ChangeScenario(delta=1.0, kstar=3, sigma=bad),
            lambda: ChangeScenario(delta=1.0, kstar=3, theta=bad),
            lambda: ChangeScenario.at_kstar(1.0, 3, sigma=bad),
            lambda: ChangeScenario.from_exponent(1.0, 1.0, 0.5, 100,
                                                 sigma=bad),
            lambda: ChangeScenario.from_exponent(1.0, bad, 0.5, 100),
        ]
        for build in builders:
            with pytest.raises(ValidationError):
                build()

    def test_weak_shift_warns(self):
        s = ChangeScenario.at_kstar(0.05, 1)
        with pytest.warns(UserWarning, match="too weak"):
            validate_scenario(s, 100)

    def test_weak_shift_is_weighed_against_sigma(self, recwarn):
        # sqrt(1000)*0.1 = 3.16 clears the proxy at sigma 1; at sigma 2 the
        # scale-free ratio is 1.58
        validate_scenario(ChangeScenario.at_kstar(0.1, 1), 1000)
        assert len(recwarn) == 0
        with pytest.warns(UserWarning, match=r"/sigma = 1.58 < 3.*too weak"):
            validate_scenario(ChangeScenario.at_kstar(0.1, 1, sigma=2.0),
                              1000)

    def test_strong_shift_does_not_warn(self, recwarn):
        validate_scenario(ChangeScenario.at_kstar(1.0, 1), 100)
        assert len(recwarn) == 0


class TestClassifyCase:
    def test_fixed_delta_examples(self):
        s = ChangeScenario.from_exponent(1.0, 1.0, 1.0 / 3.0, 1000)
        assert classify_case(s, 0.25).variant == "II"
        s = ChangeScenario.from_exponent(1.0, 1.0, 0.0, 1000)
        assert classify_case(s, 0.0).variant == "I"
        s = ChangeScenario.from_exponent(1.0, 1.0, 0.75, 1000)
        assert classify_case(s, 0.25).variant == "III"

    def test_below_the_boundary_exponent_is_regime_one(self):
        for gamma in (0.0, 0.25, 0.45):
            beta = 0.9 * eta_zero_beta(gamma)
            s = ChangeScenario.from_exponent(2.0, 1.0, beta, 500)
            assert classify_case(s, gamma).variant == "I"

    def test_theta_scaling_changes_c1_not_variant(self):
        gamma = 0.25
        beta = eta_zero_beta(gamma)
        a = ChangeScenario.from_exponent(1.0, 1.0, beta, 10000)
        b = ChangeScenario.from_exponent(1.0, 5.0, beta, 10000)
        la, lb = classify_case(a, gamma), classify_case(b, gamma)
        assert la.variant == lb.variant == "II"
        assert lb.c1 == pytest.approx(5.0 ** (1 - gamma) * la.c1, rel=1e-12)

    def test_case_two_solves_d1_when_c_given(self):
        s = ChangeScenario.from_exponent(1.0, 1.0, 0.5, 10000)
        label = compute_normalization(1.6925, 10000, s, 0.0).case
        assert label.variant == "II"
        assert label.d1 == pytest.approx(1.0 / 2.6925, abs=1e-9)
        assert classify_case(s, 0.0).d1 is None

    def test_local_rate_regimes(self):
        s = ChangeScenario.from_exponent(1.0, 1.0, 0.5, 400)
        eta = compute_eta(0.25, 0.5)
        assert classify_case(s, 0.25, rate=eta).variant == "II"
        assert classify_case(s, 0.25, rate=eta + 0.1).variant == "I"
        assert classify_case(s, 0.25, rate=eta - 0.1).variant == "III"

    def test_regime_flag_validation(self):
        s = ChangeScenario.at_kstar(1.0, 3)
        with pytest.raises(ValidationError):
            classify_case(s, 0.1, rate=-0.1)
