"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
(2, 3, 5, 6, 7) take a few minutes in total at their stated resolutions.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from pagecusum import (ChangeScenario, Garch11Spec, LimitLaw,
                       MonitoringParams, compute_N,
                       compute_d2, emit_table1, empirical_size,
                       estimate_critical_value, limit_cdf, limit_cdf_upper,
                       resolve_kstar, rng_stream, run_replications,
                       sample_wiener_path, solve_a_m, solve_d1,
                       functional_page, kde)
from pagecusum.asymptotics import RESIDUAL_BOUND, a_m_residual
from pagecusum.wiener import simulate_functional_values

from test_asymptotics import sample_sup_after
from test_detectors import brute_force_q, feed, monitor_stats
from test_wiener import brute_force_page

GARCH_STUDY = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3)

C_PAGE = {0.0: 1.69236, 0.25: 1.89922, 0.45: 2.45924}
C_Q = {0.0: 1.64485, 0.25: 1.81023, 0.45: 2.28680}

# published normalization values (alpha = 0.1) used as the reproduction
# target: rule -> gamma -> (a_page, b_page, a_q, b_q), each over
# m = 100, 1000, 10000
EXPECTED_TABLE = {
    ("1", 0.00): ([17.92, 54.52, 170.24], [4.23, 7.38, 13.05],
                  [17.45, 53.01, 165.49], [4.18, 7.28, 12.86]),
    ("1", 0.25): ([12.23, 24.84, 52.00], [4.54, 6.56, 9.55],
                  [11.55, 23.39, 48.86], [4.41, 6.36, 9.26]),
    ("1", 0.45): ([9.54, 11.37, 13.63], [5.17, 5.72, 6.33],
                  [8.57, 10.18, 12.15], [4.86, 5.37, 5.94]),
    ("100", 0.00): ([116.92, 153.52, 269.24], [10.81, 12.39, 16.41],
                    [116.45, 152.01, 264.49], [10.79, 12.33, 16.26]),
    ("100", 0.25): ([119.87, 136.51, 168.42], [11.42, 12.52, 14.44],
                    [118.90, 134.68, 164.87], [11.36, 12.40, 14.24]),
    ("100", 0.45): ([127.43, 131.18, 135.49], [12.50, 12.82, 13.20],
                    [125.31, 128.75, 132.70], [12.31, 12.61, 12.96]),
    ("m^0.45", 0.00): ([23.92, 75.52, 232.24], [4.89, 8.69, 15.24],
                       [23.45, 74.01, 227.49], [4.84, 8.60, 15.08]),
    ("m^0.45", 0.25): ([19.64, 50.47, 126.72], [5.28, 8.27, 12.88],
                       [18.94, 48.92, 123.32], [5.17, 8.11, 12.65]),
    ("m^0.45", 0.45): ([18.51, 40.34, 92.96], [5.97, 7.98, 11.28],
                       [17.41, 38.75, 90.53], [5.71, 7.73, 11.02]),
    ("m^0.5", 0.00): ([26.92, 84.52, 269.24], [5.19, 9.19, 16.41],
                      [26.45, 83.01, 264.49], [5.14, 9.11, 16.26]),
    ("m^(1/3)", 0.25): ([16.01, 34.97, 77.32], [4.93, 7.26, 10.75],
                        [15.33, 33.49, 74.11], [4.80, 7.08, 10.49]),
    ("m^(1/11)", 0.45): ([9.54, 11.37, 15.30], [5.17, 5.72, 6.43],
                         [8.57, 10.18, 13.81], [4.86, 5.37, 6.04]),
    ("m^0.75", 0.00): ([47.92, 230.52, 1169.24], [6.92, 15.18, 34.19],
                       [47.45, 229.01, 1164.49], [6.89, 15.13, 34.12]),
    ("m^0.75", 0.25): ([46.70, 218.04, 1109.61], [7.46, 15.50, 34.15],
                       [45.90, 216.03, 1104.35], [7.37, 15.39, 34.04]),
    ("m^0.75", 0.45): ([48.81, 216.02, 1090.74], [8.36, 16.00, 34.31],
                       [47.33, 213.06, 1084.14], [8.14, 15.80, 34.12]),
}
M_VALUES = (100, 1000, 10000)

RULE_KSTAR = {
    "1": lambda m: 1,
    "100": lambda m: 100,
    "m^0.45": lambda m: resolve_kstar(1.0, 0.45, m),
    "m^0.5": lambda m: resolve_kstar(1.0, 0.5, m),
    "m^(1/3)": lambda m: resolve_kstar(1.0, 1.0 / 3.0, m),
    "m^(1/11)": lambda m: resolve_kstar(1.0, 1.0 / 11.0, m),
    "m^0.75": lambda m: resolve_kstar(1.0, 0.75, m),
}


def report(criterion, passed, detail):
    print(f"ACCEPTANCE criterion {criterion}: "
          f"{'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_normalization_table_reproduction():
    # backed-out critical values: invert a = c*m^(1/2-gamma)*a^gamma + kstar
    # cell by cell and check consistency across the table
    backouts = {}
    for (rule, gamma), (pa, _, qa, _) in EXPECTED_TABLE.items():
        for mi, m in enumerate(M_VALUES):
            ks = RULE_KSTAR[rule](m)
            for det, avals in (("page", pa), ("q", qa)):
                a = avals[mi]
                c = (a - ks) / (m ** (0.5 - gamma) * a ** gamma)
                backouts.setdefault((gamma, det), []).append(c)
    max_spread = 0.0
    for (gamma, det), cs in backouts.items():
        spread = max(cs) - min(cs)
        max_spread = max(max_spread, spread)
        assert spread <= 0.005, (gamma, det, spread)

    t0 = time.perf_counter()
    rows = emit_table1(C_PAGE, C_Q, M_VALUES)
    elapsed = time.perf_counter() - t0

    by_key = {(r["rule"], r["gamma"], r["m"]): r for r in rows}
    worst = 0.0
    n_checked = 0
    for (rule, gamma), (pa, pb, qa, qb) in EXPECTED_TABLE.items():
        for mi, m in enumerate(M_VALUES):
            row = by_key[(rule, gamma, m)]
            for got, want in ((row["a_page"], pa[mi]), (row["b_page"], pb[mi]),
                              (row["a_q"], qa[mi]), (row["b_q"], qb[mi])):
                worst = max(worst, abs(got - want))
                n_checked += 1
    passed = worst <= 0.01 and elapsed < 1.0
    report(1, passed, f"{n_checked} entries, worst deviation {worst:.4f} "
                      f"(<=0.01), c-backout spread {max_spread:.4f} (<=0.005), "
                      f"runtime {elapsed:.3f}s (<1s)")
    assert n_checked >= 84
    assert worst <= 0.01
    assert max_spread <= 0.005
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_2_analytic_critical_values():
    est10 = estimate_critical_value(0.0, 0.10, "one_sided", "ordinary",
                                    reps=100_000, T=10_000, seed=0)
    est05 = estimate_critical_value(0.0, 0.05, "one_sided", "ordinary",
                                    reps=100_000, T=10_000, seed=0)
    ok10 = 1.62 <= est10.c <= 1.67
    ok05 = 1.93 <= est05.c <= 1.99
    report(2, ok10 and ok05,
           f"c(0, 0.10)={est10.c:.4f} in [1.62, 1.67] (target 1.6449); "
           f"c(0, 0.05)={est05.c:.4f} in [1.93, 1.99] (target 1.9600)")
    assert ok10
    assert ok05


@pytest.mark.slow
def test_criterion_3_page_critical_value_cross_check():
    est = estimate_critical_value(0.0, 0.10, "one_sided", "page",
                                  reps=100_000, T=10_000, seed=0)
    ok = 1.66 <= est.c <= 1.73
    report(3, ok, f"c_page(0, 0.10)={est.c:.4f} in [1.66, 1.73] "
                  f"(brackets the backed-out 1.692)")
    assert ok


def test_criterion_4_d1_consistency():
    d1_0 = solve_d1(1.6925, 1.0, 1.0, 0.0)
    ok = abs(d1_0 - 0.3714) <= 0.0005
    d1_25 = solve_d1(C_PAGE[0.25], 1.0, 1.0, 0.25)
    d1_45 = solve_d1(C_PAGE[0.45], 1.0, 1.0, 0.45)
    report(4, ok, f"d1(c=1.6925, gamma=0)={d1_0:.4f} (0.3714 +- 0.0005); "
                  f"computed from the defining equation with backed-out c: "
                  f"d1(0.25)={d1_25:.4f}, d1(0.45)={d1_45:.4f}")
    assert ok
    # the gamma > 0 values are reported, not matched to any external table;
    # they must still be exact roots of the defining equation
    for gamma, d1 in ((0.25, d1_25), (0.45, d1_45)):
        f = 1.0 - C_PAGE[gamma] * d1 ** (1.0 - gamma) - d1
        assert 0.0 < d1 < 1.0 and abs(f) <= 1e-12


def _nu_samples(m, kstar, gamma, reps, seed, horizon_factor=20.0):
    params = MonitoringParams(m=m, gamma=gamma, horizon_factor=horizon_factor)
    scenario = ChangeScenario.at_kstar(1.0, kstar)
    recs = run_replications(params, scenario, GARCH_STUDY, reps,
                            C_PAGE[gamma], C_Q[gamma], seed=seed)
    return recs


def test_criterion_5_ordinary_delay_normality_at_desk_scale():
    recs = _nu_samples(m=1000, kstar=1, gamma=0.0, reps=1000, seed=123)
    nu_q = np.array([r.nu_q for r in recs if r.nu_q is not None])
    ks = stats.kstest(nu_q, stats.norm.cdf).statistic
    ok = nu_q.size == 1000 and ks <= 0.08
    report(5, ok, f"KS({nu_q.size} normalized ordinary delays vs Phi) = "
                  f"{ks:.3f} (criterion <= 0.08); sample mean "
                  f"{nu_q.mean():.3f}, sd {nu_q.std(ddof=1):.3f}")
    assert ks <= 0.08


def test_criterion_6a_page_delay_late_change_limit():
    m = 1000
    kstar = resolve_kstar(1.0, 0.75, m)
    recs = _nu_samples(m=m, kstar=kstar, gamma=0.25, reps=1000, seed=321)
    nu_p = np.array([r.nu_page for r in recs if r.nu_page is not None])
    law = LimitLaw.for_variant("III")
    ks = stats.kstest(nu_p, lambda x: limit_cdf(x, law)).statistic
    ok = ks <= 0.10
    report("6a", ok, f"KS({nu_p.size} normalized page delays vs Psi_III) = "
                     f"{ks:.3f} (criterion <= 0.10)")
    assert ks <= 0.10


def test_criterion_6b_page_beats_benchmark_in_late_change():
    m = 1000
    kstar = resolve_kstar(1.0, 0.75, m)
    recs = _nu_samples(m=m, kstar=kstar, gamma=0.25, reps=1000, seed=321)
    diffs = np.array([r.nu_page - r.nu_tilde for r in recs
                      if r.nu_page is not None and r.nu_tilde is not None])
    paired_se = diffs.std(ddof=1) / math.sqrt(diffs.size)
    ok = diffs.mean() < -2.0 * paired_se
    report("6b", ok, f"mean(nu_page) - mean(nu_tilde) = {diffs.mean():.3f} "
                     f"< -2*paired_se = {-2 * paired_se:.3f}")
    assert ok


@pytest.mark.slow
def test_criterion_7_size_control():
    sizes = {}
    for det, c in (("ordinary", C_Q[0.0]), ("page", C_PAGE[0.0])):
        params = MonitoringParams(m=2000, gamma=0.0, alpha=0.1, detector=det,
                                  horizon_factor=20.0)
        sizes[det] = empirical_size(params, GARCH_STUDY, 2000, c, seed=2026)
    ok = sizes["ordinary"] <= 0.12 and sizes["page"] <= 0.12
    report(7, ok, f"empirical size at alpha=0.1, horizon 20m: ordinary "
                  f"{sizes['ordinary']:.3f}, page {sizes['page']:.3f} "
                  f"(criterion <= 0.12)")
    assert ok


def test_criterion_8a_detector_recursion_matches_brute_force():
    from pagecusum import summarize_training
    rng = rng_stream(88, 0)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 30))
        n = int(rng.integers(50, 201))
        train = rng.standard_normal(m)
        stream = rng.standard_normal(n)
        training = summarize_training(train)
        qs = np.array([brute_force_q(train, stream, k) for k in range(n + 1)])
        scale = max(1.0, np.max(np.abs(qs)))
        for k, state in enumerate(feed(stream, training), start=1):
            worst = max(worst, abs(state.q - qs[k]) / scale)
    report("8a", worst <= 1e-9,
           f"detector recursion vs batch definition, worst rel dev {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_8b_incremental_s2_matches_exhaustive_oracle():
    from pagecusum import TrainingSummary
    rng = rng_stream(89, 0)
    training = TrainingSummary(m=6, mean=0.0, sigma_hat=1.0)
    worst = 0.0
    for _ in range(100):
        stream = rng.standard_normal(int(rng.integers(1, 21)))
        states = feed(stream, training)
        s2 = monitor_stats(stream, training, "page", "two_sided")
        qs = [0.0] + [s.q for s in states]
        for k, stat in enumerate(s2, start=1):
            oracle = max(abs(qs[k] - qs[i]) for i in range(k + 1))
            worst = max(worst, abs(stat - oracle))
    report("8b", worst <= 1e-12, f"incremental S2 vs exhaustive max, "
                                 f"worst dev {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_8c_page_stops_no_later_at_equal_c():
    params = MonitoringParams(m=120, gamma=0.25, horizon_factor=6.0)
    scenario = ChangeScenario.at_kstar(0.7, 60)
    recs = run_replications(params, scenario, GARCH_STUDY, 200, 1.9, 1.9,
                            seed=90)
    violations = sum(1 for r in recs
                     if r.tau_q is not None
                     and (r.tau_page is None or r.tau_page > r.tau_q))
    report("8c", violations == 0,
           f"tau_page <= tau_q pathwise at equal c: {violations} violations "
           f"in {len(recs)} replications")
    assert violations == 0


def test_criterion_8d_page_functional_linear_vs_quadratic():
    worst = 0.0
    for i in range(3):
        for T in (64, 256, 512):
            path = sample_wiener_path(T, rng_stream(91, 10 * i + T))
            for gamma in (0.0, 0.25, 0.45):
                for side in ("one_sided", "two_sided"):
                    fast = functional_page(path, gamma, side)
                    slow = brute_force_page(path, gamma, side)
                    worst = max(worst, abs(fast - slow))
    report("8d", worst <= 1e-12,
           f"O(T) page functional vs O(T^2) oracle, worst dev {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_8e_fixed_point_residuals():
    rng = rng_stream(92, 0)
    worst = 0.0
    for _ in range(200):
        c = float(rng.uniform(0.5, 3.5))
        m = int(rng.integers(10, 10 ** 7))
        kstar = int(rng.integers(1, max(2, m)))
        delta = float(rng.uniform(0.05, 4.0))
        sigma = float(rng.uniform(0.3, 2.0))
        gamma = float(rng.uniform(0.0, 0.499))
        a = solve_a_m(c, m, kstar, delta, sigma, gamma)
        worst = max(worst, a_m_residual(a, c, m, kstar, delta, sigma,
                                        gamma) / a)
    report("8e", worst <= RESIDUAL_BOUND,
           f"a_m fixed-point relative residual, worst {worst:.2e} (<=1e-10)")
    assert worst <= RESIDUAL_BOUND


def test_criterion_8f_asymptotic_equivalents_within_one_percent():
    m = 10 ** 7
    devs = {}
    gamma, c = 0.25, C_Q[0.25]
    a = solve_a_m(c, m, 1, 1.0, 1.0, gamma)
    devs["early"] = abs(a / (c * m ** (0.5 - gamma)) **
                        (1.0 / (1.0 - gamma)) - 1.0)
    gamma, c = 0.0, C_PAGE[0.0]
    d1 = solve_d1(c, 1.0, 1.0, gamma)
    d2 = compute_d2(c, 1.0, 1.0, gamma, d1)
    kstar = resolve_kstar(1.0, 0.5, m)
    devs["knife-edge"] = abs(solve_a_m(c, m, kstar, 1.0, 1.0, gamma)
                             / (d2 * kstar) - 1.0)
    gamma, c = 0.25, C_PAGE[0.25]
    kstar = resolve_kstar(1.0, 0.9, m)
    devs["late"] = abs(solve_a_m(c, m, kstar, 1.0, 1.0, gamma) / kstar - 1.0)
    worst = max(devs.values())
    report("8f", worst <= 0.01,
           "center vs regime equivalent at m=1e7: " +
           ", ".join(f"{k} {v:.4f}" for k, v in devs.items()) + " (<=0.01)")
    assert worst <= 0.01


def test_criterion_8g_center_at_zero_is_exact():
    for gamma in (0.0, 0.17, 0.25, 0.45):
        a = solve_a_m(2.1, 5000, 12, 0.8, 1.1, gamma)
        assert compute_N(5000, 0.0, 2.1, 12, 0.8, 1.1, gamma, a) == a
    report("8g", True, "N(m, 0) == a_m exactly for all tested gamma")


def test_criterion_8h_limit_cdf_ordering():
    law2 = LimitLaw.for_variant("II", d1=solve_d1(1.6925, 1.0, 1.0, 0.0))
    law3 = LimitLaw.for_variant("III")
    xs = np.linspace(-4.0, 4.0, 33)
    ok = True
    for x in xs:
        psi3 = limit_cdf(float(x), law3)
        psi2 = limit_cdf(float(x), law2)
        phi = float(stats.norm.cdf(x))
        ok = ok and (psi3 >= psi2 - 1e-8) and (psi2 >= phi - 1e-8)
    report("8h", ok, "Psi_III >= Psi_II >= Phi on [-4, 4]")
    assert ok


def test_criterion_8i_knife_edge_quadrature_vs_mc():
    d1 = solve_d1(1.6925, 1.0, 1.0, 0.0)
    law = LimitLaw.for_variant("II", d1=d1)
    sups = sample_sup_after(d1, 400_000, seed=93)
    worst_ratio = 0.0
    for x in (0.5, 1.0, 2.0):
        p_mc = float(np.mean(sups <= x))
        se = math.sqrt(p_mc * (1.0 - p_mc) / sups.size)
        worst_ratio = max(worst_ratio,
                          abs(limit_cdf_upper(x, law) - p_mc) / se)
    report("8i", worst_ratio <= 3.0,
           f"knife-edge quadrature vs exact MC oracle, worst |dev|/se = "
           f"{worst_ratio:.2f} (<=3)")
    assert worst_ratio <= 3.0


def test_criterion_8j_kde_integral():
    x = rng_stream(94, 0).standard_normal(20_000)
    est = kde(x, float(x.min()) - 1.0, float(x.max()) + 1.0, 801)
    integral = float(np.trapezoid(est.density, est.grid))
    ok = abs(integral - 1.0) <= 0.01
    report("8j", ok, f"KDE integral {integral:.4f} (within 1% of 1)")
    assert ok


def test_criterion_8k_bit_identical_across_threads():
    vals1 = simulate_functional_values(0.25, "one_sided", "page", 600, 128,
                                       seed=95, threads=1)
    vals2 = simulate_functional_values(0.25, "one_sided", "page", 600, 128,
                                       seed=95, threads=2)
    same_vals = np.array_equal(vals1, vals2)
    params = MonitoringParams(m=80, horizon_factor=4.0)
    scenario = ChangeScenario.at_kstar(1.0, 5)
    r1 = run_replications(params, scenario, GARCH_STUDY, 250, 1.7, 1.65,
                          seed=96, threads=1)
    r2 = run_replications(params, scenario, GARCH_STUDY, 250, 1.7, 1.65,
                          seed=96, threads=2)
    ok = same_vals and r1 == r2
    report("8k", ok, "functional values and replication records bit-identical "
                     "for 1 vs 2 workers")
    assert ok
