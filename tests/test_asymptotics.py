import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from pagecusum import (ChangeScenario, LimitLaw, ValidationError, compute_N,
                       compute_b_m, compute_d2, compute_normalization,
                       limit_cdf, limit_cdf_upper, resolve_kstar, rng_stream,
                       solve_a_m, solve_d1)
from pagecusum.asymptotics import (RESIDUAL_BOUND, AsymptoticNormalization,
                                   a_m_residual)

C_PAGE = {0.0: 1.69236, 0.25: 1.89922, 0.45: 2.45924}
C_Q = {0.0: 1.64485, 0.25: 1.81023, 0.45: 2.28680}


def sample_sup_after(d1, n_paths, seed, cells=16):
    """Exact samples of sup over (d1, 1) of a Wiener path.

    The path is sampled on a coarse grid over [d1, 1]; within each cell the
    maximum of the connecting Brownian bridge is drawn exactly by inverting
    P(M >= y | a, b) = exp(-2 (y-a)(y-b) / h), so there is no discretization
    bias at any grid size.
    """
    rng = rng_stream(seed, 0)
    h = (1.0 - d1) / cells
    w = rng.standard_normal((n_paths, cells + 1))
    w[:, 0] *= math.sqrt(d1)
    w[:, 1:] *= math.sqrt(h)
    path = np.cumsum(w, axis=1)
    a, b = path[:, :-1], path[:, 1:]
    u = rng.random((n_paths, cells))
    cell_max = 0.5 * (a + b + np.sqrt((b - a) ** 2 - 2.0 * h * np.log(u)))
    return cell_max.max(axis=1)


def psi_bar_by_quadrature(x, d1):
    """Reference Psi_bar for regime II: condition on W(d1) = w, so that
    P(sup over (d1, 1) of W <= x) = integral over w <= x of
    phi(w; var d1) * (2*Phi((x - w)/sqrt(1 - d1)) - 1)."""
    sd, s = math.sqrt(d1), math.sqrt(1.0 - d1)
    lo = -10.0 * sd  # tail mass below is < 1e-22
    if x <= lo:
        return 0.0

    def integrand(w):
        dens = math.exp(-0.5 * (w / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        return dens * (2.0 * special.ndtr((x - w) / s) - 1.0)

    pts = [p for p in (x - 5.0 * s, 0.0) if lo < p < x]
    val, _ = integrate.quad(integrand, lo, x, epsabs=1e-10, limit=200,
                            points=pts or None)
    return val


KNIFE_EDGE_D1 = (1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6)


class TestSolveAm:
    def test_closed_form_at_gamma_zero(self):
        assert solve_a_m(1.645, 100, 1, 1.0) == pytest.approx(17.45, abs=1e-12)
        assert solve_a_m(2.0, 100, 7, 2.0) == pytest.approx(17.0, abs=1e-12)

    def test_published_value_gamma_quarter(self):
        assert solve_a_m(1.810, 1000, 1, 1.0, 1.0, 0.25) == \
            pytest.approx(23.39, abs=0.01)

    def test_residual_bound_over_grid(self):
        rng = rng_stream(21, 0)
        for _ in range(300):
            c = float(rng.uniform(0.5, 4.0))
            m = int(rng.integers(10, 10 ** 6))
            kstar = int(rng.integers(1, max(2, m)))
            delta = float(rng.uniform(0.05, 5.0)) * (1 if rng.random() < 0.5 else -1)
            sigma = float(rng.uniform(0.2, 3.0))
            gamma = float(rng.uniform(0.0, 0.499))
            a = solve_a_m(c, m, kstar, delta, sigma, gamma)
            assert a >= kstar
            assert a_m_residual(a, c, m, kstar, delta, sigma, gamma) \
                <= RESIDUAL_BOUND * a

    def test_rejects_zero_delta(self):
        with pytest.raises(ValidationError):
            solve_a_m(1.0, 100, 1, 0.0)

    def test_brentq_cross_check(self):
        for gamma in (0.1, 0.25, 0.45, 0.49):
            c, m, kstar, delta, sigma = 1.9, 5000, 37, 0.7, 1.3
            K = sigma * c * m ** (0.5 - gamma) / delta
            root = optimize.brentq(
                lambda a: a - K * a ** gamma - kstar, kstar, 1e12,
                xtol=1e-12, rtol=1e-14)
            assert solve_a_m(c, m, kstar, delta, sigma, gamma) == \
                pytest.approx(root, rel=1e-10)


class TestComputeBm:
    def test_published_values(self):
        assert compute_b_m(17.449, 1.0, 1.0, 0.0, 1) == pytest.approx(4.18, abs=0.01)
        assert compute_b_m(9.54, 1.0, 1.0, 0.45, 1) == pytest.approx(5.17, abs=0.01)

    def test_gamma_zero_collapses_to_sqrt(self):
        for a in (1.0, 17.45, 123.4):
            assert compute_b_m(a, 1.0, 1.0, 0.0, 1) == math.sqrt(a)

    def test_requires_a_at_least_kstar(self):
        with pytest.raises(ValidationError):
            compute_b_m(5.0, 1.0, 1.0, 0.2, 6)


class TestD1D2:
    def test_gamma_zero_closed_form(self):
        assert solve_d1(1.0, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert solve_d1(1.6925, 1.0, 1.0, 0.0) == \
            pytest.approx(1.0 / 2.6925, abs=1e-10)

    def test_root_property_and_brentq(self):
        rng = rng_stream(33, 0)
        for _ in range(100):
            c = float(rng.uniform(0.3, 4.0))
            sigma = float(rng.uniform(0.3, 2.0))
            c1 = float(rng.uniform(0.3, 4.0))
            gamma = float(rng.uniform(0.0, 0.499))
            d1 = solve_d1(c, sigma, c1, gamma)
            assert 0.0 < d1 < 1.0
            f = 1.0 - (c * sigma / c1) * d1 ** (1.0 - gamma) - d1
            assert abs(f) <= 1e-12
            root = optimize.brentq(
                lambda d: 1.0 - (c * sigma / c1) * d ** (1.0 - gamma) - d,
                1e-15, 1.0, xtol=1e-15)
            assert d1 == pytest.approx(root, abs=1e-10)

    def test_knife_edge_values_with_backed_out_c(self):
        # frozen from the bisection itself, cross-checked by brentq above
        assert solve_d1(1.899, 1.0, 1.0, 0.25) == pytest.approx(0.27630, abs=1e-3)
        assert solve_d1(C_PAGE[0.45], 1.0, 1.0, 0.45) == \
            pytest.approx(0.14613, abs=1e-3)

    def test_d2_examples(self):
        assert compute_d2(1.0, 1.0, 1.0, 0.0, 0.5) == pytest.approx(2.0, abs=1e-12)
        # direct high-precision evaluation of (1.899 + 0.276**0.25)**(4/3)
        assert compute_d2(1.899, 1.0, 1.0, 0.25, 0.276) == \
            pytest.approx(3.61891, abs=1e-4)

    def test_d2_is_knife_edge_limit_of_center_ratio(self):
        # gamma = 0, beta = 1/2: a_m/(d2 kstar) -> 1 through square m values
        c = 1.6925
        d1 = solve_d1(c, 1.0, 1.0, 0.0)
        d2 = compute_d2(c, 1.0, 1.0, 0.0, d1)
        ratios = []
        for m in (10 ** 2, 10 ** 4, 10 ** 6):
            kstar = resolve_kstar(1.0, 0.5, m)
            ratios.append(solve_a_m(c, m, kstar, 1.0) / (d2 * kstar))
        assert abs(ratios[-1] - 1.0) <= 1e-6
        # gamma = 0.25, beta = 1/3 approaches from above
        gamma = 0.25
        c = C_PAGE[gamma]
        d1 = solve_d1(c, 1.0, 1.0, gamma)
        d2 = compute_d2(c, 1.0, 1.0, gamma, d1)
        devs = []
        for m in (10 ** 2, 10 ** 4, 10 ** 6):
            kstar = resolve_kstar(1.0, 1.0 / 3.0, m)
            a = solve_a_m(c, m, kstar, 1.0, 1.0, gamma)
            devs.append(abs(a / (d2 * kstar) - 1.0))
        assert devs[2] < devs[0]
        assert devs[2] <= 0.02


class TestNonFiniteInputs:
    """A non-finite c, sigma or delta must raise, not return inf or a
    meaningless root."""

    BAD = (math.inf, -math.inf, math.nan)

    def test_solve_a_m(self):
        with pytest.raises(ValidationError, match="sigma"):
            solve_a_m(1.7, 100, 3, 1.0, sigma=math.inf)
        for bad in self.BAD:
            for args in ((bad, 100, 3, 1.0, 1.0), (1.7, 100, 3, bad, 1.0),
                         (1.7, 100, 3, 1.0, bad)):
                with pytest.raises(ValidationError):
                    solve_a_m(*args)

    def test_compute_b_m(self):
        with pytest.raises(ValidationError, match="sigma"):
            compute_b_m(10.0, 1.0, math.inf, 0.25, 3)
        for bad in self.BAD:
            for args in ((10.0, bad, 1.0, 0.25, 3), (10.0, 1.0, bad, 0.25, 3)):
                with pytest.raises(ValidationError):
                    compute_b_m(*args)

    def test_compute_d2(self):
        with pytest.raises(ValidationError):
            compute_d2(math.inf, 1.0, 1.0, 0.25, 0.5)
        for bad in self.BAD:
            for args in ((bad, 1.0, 1.0, 0.25, 0.5),
                         (1.0, bad, 1.0, 0.25, 0.5)):
                with pytest.raises(ValidationError):
                    compute_d2(*args)

    def test_solve_d1(self):
        with pytest.raises(ValidationError, match="sigma"):
            solve_d1(1.7, math.inf, 1.0, 0.25)
        for bad in self.BAD:
            for args in ((bad, 1.0, 1.0, 0.25), (1.7, bad, 1.0, 0.25)):
                with pytest.raises(ValidationError):
                    solve_d1(*args)

    @pytest.mark.parametrize("bad", BAD)
    def test_compute_N_rejects_non_finite_x(self, bad):
        a = solve_a_m(1.645, 100, 1, 1.0)
        with pytest.raises(ValidationError, match="x must be finite"):
            compute_N(100, bad, 1.645, 1, 1.0, 1.0, 0.0, a)


class TestOverflow:
    """A finite c, delta or x whose a_m or N(m, x) lies past the largest
    float raises, not OverflowError, ZeroDivisionError or inf."""

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.45])
    @pytest.mark.parametrize("c, delta", [(1e300, 1e-300), (1e307, 1.0)])
    def test_solve_a_m(self, gamma, c, delta):
        with pytest.raises(ValidationError, match="^a_m overflows a float"):
            solve_a_m(c, 1000, 1, delta, 1.0, gamma)
        with pytest.raises(ValidationError, match="^a_m overflows a float"):
            compute_normalization(c, 1000, ChangeScenario.at_kstar(delta, 1),
                                  gamma)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.45])
    def test_compute_N(self, gamma):
        a = solve_a_m(2.0, 1000, 1, 1.0, 1.0, gamma)
        with pytest.raises(ValidationError, match=r"^N\(m, x\) at x = "
                           r"-1e\+308 overflows a float$"):
            compute_N(1000, -1e308, 2.0, 1, 1.0, 1.0, gamma, a)


class TestComputeN:
    def test_center_at_zero(self):
        for gamma in (0.0, 0.25, 0.45):
            a = solve_a_m(1.9, 800, 5, 1.2, 0.9, gamma)
            assert compute_N(800, 0.0, 1.9, 5, 1.2, 0.9, gamma, a) == a

    def test_gamma_zero_closed_form(self):
        a = solve_a_m(1.645, 100, 1, 1.0)
        n = compute_N(100, 1.0, 1.645, 1, 1.0, 1.0, 0.0, a)
        assert n == pytest.approx(a - math.sqrt(a), rel=1e-12)
        assert n == pytest.approx(13.2727, abs=1e-3)

    def test_linear_in_x_at_gamma_zero(self):
        a = solve_a_m(1.645, 400, 3, 0.8)
        for x in (0.25, 1.0, 2.0):
            lo = compute_N(400, -x, 1.645, 3, 0.8, 1.0, 0.0, a)
            hi = compute_N(400, x, 1.645, 3, 0.8, 1.0, 0.0, a)
            assert lo + hi == pytest.approx(2.0 * a, rel=1e-12)

    def test_strictly_decreasing_in_x(self):
        gamma = 0.3
        a = solve_a_m(2.0, 1000, 9, 1.0, 1.0, gamma)
        xs = np.linspace(-3.0, 3.0, 41)
        ns = [compute_N(1000, float(x), 2.0, 9, 1.0, 1.0, gamma, a) for x in xs]
        assert all(n1 > n2 for n1, n2 in zip(ns, ns[1:]))

    def test_out_of_range_x(self):
        a = solve_a_m(1.645, 100, 1, 1.0)
        with pytest.raises(ValidationError):
            compute_N(100, 50.0, 1.645, 1, 1.0, 1.0, 0.0, a)

    def test_ratio_to_center_tends_to_one(self):
        # N/a_m -> 1 at rate 1/sqrt(a_m)
        gamma, x = 0.25, 1.5
        devs = []
        for m in (10 ** 3, 10 ** 5, 10 ** 7):
            a = solve_a_m(1.9, m, 2, 1.0, 1.0, gamma)
            n = compute_N(m, x, 1.9, 2, 1.0, 1.0, gamma, a)
            devs.append((abs(n / a - 1.0), math.sqrt(a)))
        assert all(d1 > d2 for (d1, _), (d2, _) in zip(devs, devs[1:]))
        for dev, sqrt_a in devs:
            assert dev <= 2.0 * x / sqrt_a


class TestNormalizationBundle:
    def test_bundle_fields(self):
        scenario = ChangeScenario.from_exponent(1.0, 1.0, 0.5, 10000)
        norm = compute_normalization(1.6925, 10000, scenario, 0.0)
        assert norm.case.variant == "II"
        assert norm.case.d1 == pytest.approx(1.0 / 2.6925, abs=1e-9)
        assert norm.a_m >= scenario.kstar
        assert norm.b_m > 0
        assert norm.residual <= RESIDUAL_BOUND * norm.a_m

    def test_residual_invariant_enforced(self):
        from pagecusum import CaseLabel
        with pytest.raises(ValidationError):
            AsymptoticNormalization(a_m=10.0, b_m=2.0,
                                    case=CaseLabel("I", -0.5),
                                    residual=1e-3)


class TestLimitTrends:
    """Finite-m checks of the centering trends in each regime."""

    def test_case_one_trends(self):
        gamma, c = 0.25, C_Q[0.25]
        ms = [10 ** e for e in range(2, 8)]
        a_over_m, sqrt_a = [], []
        for m in ms:
            a = solve_a_m(c, m, 1, 1.0, 1.0, gamma)
            a_over_m.append(a / m)
            sqrt_a.append(math.sqrt(a))
        assert all(x > y for x, y in zip(a_over_m, a_over_m[1:]))
        assert a_over_m[-1] < 1e-3
        assert all(x < y for x, y in zip(sqrt_a, sqrt_a[1:]))
        # kstar/a_m decreasing toward 0
        ratios = [1.0 / solve_a_m(c, m, 1, 1.0, 1.0, gamma) for m in ms]
        assert all(x > y for x, y in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.005

    def test_case_two_ratio_approaches_d1(self):
        gamma, c = 0.0, C_PAGE[0.0]
        d1 = solve_d1(c, 1.0, 1.0, gamma)
        m = 10 ** 7
        kstar = resolve_kstar(1.0, 0.5, m)
        a = solve_a_m(c, m, kstar, 1.0, 1.0, gamma)
        assert kstar / a == pytest.approx(d1, abs=1e-3)

    def test_case_three_ratio_approaches_one(self):
        gamma, c = 0.25, C_PAGE[0.25]
        ratios = []
        for m in (10 ** 3, 10 ** 5, 10 ** 7):
            kstar = resolve_kstar(1.0, 0.9, m)
            ratios.append(kstar / solve_a_m(c, m, kstar, 1.0, 1.0, gamma))
        assert all(x < y for x, y in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.95

    def test_asymptotic_equivalents_at_large_m(self):
        m = 10 ** 7
        # early regime: a ~ (sigma c m^{1/2-gamma}/delta)^{1/(1-gamma)}
        gamma, c = 0.25, C_Q[0.25]
        a = solve_a_m(c, m, 1, 1.0, 1.0, gamma)
        equiv = (c * m ** (0.5 - gamma)) ** (1.0 / (1.0 - gamma))
        assert abs(a / equiv - 1.0) <= 0.01
        # knife edge: a ~ d2 kstar
        gamma, c = 0.0, C_PAGE[0.0]
        d1 = solve_d1(c, 1.0, 1.0, gamma)
        d2 = compute_d2(c, 1.0, 1.0, gamma, d1)
        kstar = resolve_kstar(1.0, 0.5, m)
        a = solve_a_m(c, m, kstar, 1.0, 1.0, gamma)
        assert abs(a / (d2 * kstar) - 1.0) <= 0.01
        # late regime: a ~ kstar
        gamma, c = 0.25, C_PAGE[0.25]
        kstar = resolve_kstar(1.0, 0.9, m)
        a = solve_a_m(c, m, kstar, 1.0, 1.0, gamma)
        assert abs(a / kstar - 1.0) <= 0.01


class TestLimitCdfs:
    def test_case_three_closed_form(self):
        law = LimitLaw.for_variant("III")
        assert limit_cdf_upper(0.0, law) == 0.0
        assert limit_cdf_upper(-1.0, law) == 0.0
        assert limit_cdf_upper(1.6449, law) == pytest.approx(0.90, abs=1e-4)
        assert limit_cdf(0.0, law) == pytest.approx(1.0, abs=1e-12)
        assert limit_cdf(-0.1, law) == pytest.approx(
            2.0 * stats.norm.cdf(-0.1), abs=1e-12)
        assert limit_cdf(0.5, law) == 1.0

    def test_case_one_is_normal(self):
        law = LimitLaw.for_variant("I")
        xs = np.linspace(-4, 4, 33)
        assert np.allclose(limit_cdf_upper(xs, law), stats.norm.cdf(xs),
                           atol=1e-12)
        assert np.allclose(limit_cdf(xs, law), stats.norm.cdf(xs), atol=1e-12)

    def test_case_two_requires_d1(self):
        with pytest.raises(ValidationError):
            LimitLaw.for_variant("II")
        law = LimitLaw.for_variant("II", d1=0.37)
        assert law.d1 == 0.37

    def test_monotone_and_bounded(self):
        law2 = LimitLaw.for_variant("II", d1=0.3714)
        xs = np.linspace(-4, 4, 17)
        for law in (LimitLaw.for_variant("I"), law2,
                    LimitLaw.for_variant("III")):
            vals = limit_cdf_upper(xs, law)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            cdf = limit_cdf(xs, law)
            assert np.all(np.diff(cdf) >= -1e-12)

    @pytest.mark.parametrize("d1", KNIFE_EDGE_D1)
    def test_case_two_closed_form_matches_quadrature(self, d1):
        law = LimitLaw.for_variant("II", d1=d1)
        xs = np.linspace(-8.0, 8.0, 321)
        ref = np.array([psi_bar_by_quadrature(x, d1) for x in xs])
        assert np.max(np.abs(limit_cdf_upper(xs, law) - ref)) <= 1e-9

    @pytest.mark.parametrize("d1", KNIFE_EDGE_D1)
    def test_case_two_at_zero_is_arcsine(self, d1):
        # asin(sqrt(d1)) loses digits as d1 -> 1 (slope ~ 1/sqrt(1 - d1))
        law = LimitLaw.for_variant("II", d1=d1)
        assert limit_cdf_upper(0.0, law) == pytest.approx(
            math.asin(math.sqrt(d1)) / math.pi, abs=1e-13)

    @pytest.mark.parametrize("d1, variant", [(1.0 - 1e-12, "I"),
                                             (1e-12, "III")])
    def test_case_two_tends_to_cases_one_and_three(self, d1, variant):
        xs = np.linspace(-8.0, 8.0, 321)
        gap = limit_cdf_upper(xs, LimitLaw.for_variant("II", d1=d1)) \
            - limit_cdf_upper(xs, LimitLaw.for_variant(variant))
        assert np.max(np.abs(gap)) <= 1e-6

    def test_array_input_equals_scalar_input(self):
        xs = np.linspace(-5.0, 5.0, 41)
        for law in (LimitLaw.for_variant("I"),
                    LimitLaw.for_variant("II", d1=0.3714),
                    LimitLaw.for_variant("III")):
            scalars = [limit_cdf_upper(float(x), law) for x in xs]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(limit_cdf_upper(xs, law), scalars)
            assert np.array_equal(limit_cdf(xs, law),
                                  [limit_cdf(float(x), law) for x in xs])

    def test_case_two_quadrature_matches_exact_mc_oracle(self):
        d1 = solve_d1(1.6925, 1.0, 1.0, 0.0)
        law = LimitLaw.for_variant("II", d1=d1)
        sups = sample_sup_after(d1, 400_000, seed=606)
        for x in (0.5, 1.0, 2.0):
            p_mc = float(np.mean(sups <= x))
            se = math.sqrt(p_mc * (1.0 - p_mc) / sups.size)
            assert abs(limit_cdf_upper(x, law) - p_mc) <= 3.0 * se

    def test_case_two_degenerate_interval_approaches_normal(self):
        # as d1 -> 1 the supremum interval collapses and the law tends to Phi;
        # at d1 = 0.9999 the exact gap is ~0.0019 (phi(1)*E[sup of a short
        # bridge]), which the closed form must reproduce
        law = LimitLaw.for_variant("II", d1=0.999999)
        assert limit_cdf_upper(1.0, law) == \
            pytest.approx(stats.norm.cdf(1.0), abs=1e-3)
        law_coarse = LimitLaw.for_variant("II", d1=0.9999)
        sups = sample_sup_after(0.9999, 400_000, seed=607)
        p_mc = float(np.mean(sups <= 1.0))
        se = math.sqrt(p_mc * (1.0 - p_mc) / sups.size)
        assert abs(limit_cdf_upper(1.0, law_coarse) - p_mc) <= 3.0 * se

    def test_delay_law_ordering(self):
        # later changes make the page delay law stochastically smaller:
        # Psi_III >= Psi_II >= Phi pointwise
        law2 = LimitLaw.for_variant("II", d1=0.3714)
        law3 = LimitLaw.for_variant("III")
        for x in np.linspace(-4, 4, 17):
            psi3 = limit_cdf(float(x), law3)
            psi2 = limit_cdf(float(x), law2)
            phi = float(stats.norm.cdf(x))
            assert psi3 >= psi2 - 1e-8
            assert psi2 >= phi - 1e-8
