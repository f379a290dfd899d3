"""The delay-time machinery: regimes, normalizations, and limit laws.

How long after a change does the monitor run before stopping? Center the
stopping time by a_m and scale by b_m, and the answer depends on how the
change time kstar = floor(theta * m**beta) interacts with the boundary
exponent gamma, through eta = beta*(1-gamma) - 1/2 + gamma:

  eta < 0  early change  normalized delay -> standard normal
  eta = 0  knife edge    -> law of sup of W over (d1, 1)
  eta > 0  late change   -> law of sup of W over (0, 1), all mass below 0

For the ordinary rule the limit is standard normal in every regime; the page
rule's stochastically smaller limit in late-change regimes quantifies its
advantage there.
"""

from pagecusum import (ChangeScenario, LimitLaw, compute_N,
                       compute_normalization, eta_zero_beta, limit_cdf,
                       resolve_critical_value)

m = 10_000
gamma = 0.25
c_page = resolve_critical_value(gamma, 0.1, "one_sided", "page")

print(f"boundary exponent gamma = {gamma}; eta vanishes at beta = "
      f"{eta_zero_beta(gamma):.4f}\n")

print("beta   kstar    regime  eta      a_m        b_m       d1")
for beta in (0.0, 0.2, eta_zero_beta(gamma), 0.6, 0.75):
    scenario = ChangeScenario.from_exponent(1.0, 1.0, beta, m)
    norm = compute_normalization(c_page, m, scenario, gamma)
    label = norm.case
    d1 = f"{label.d1:.4f}" if label.d1 is not None else "   -  "
    print(f"{beta:.3f}  {scenario.kstar:6d}   {label.variant:3s}   "
          f"{label.eta:+.3f}  {norm.a_m:9.2f}  {norm.b_m:8.2f}  {d1}")

print()
scenario = ChangeScenario.from_exponent(1.0, 1.0, 0.75, m)
norm = compute_normalization(c_page, m, scenario, gamma)
print(f"late-change example (beta=0.75): expected stopping index around "
      f"a_m = {norm.a_m:.1f}")
print(f"delay-quantile curve N(m, x): N(m,0) = {compute_N(m, 0.0, c_page, scenario.kstar, 1.0, 1.0, gamma, norm.a_m):.1f}, "
      f"N(m,-1) = {compute_N(m, -1.0, c_page, scenario.kstar, 1.0, 1.0, gamma, norm.a_m):.1f}")

print()
print("limit CDF of the normalized page delay at x = -1, 0, 1:")
law3 = LimitLaw.for_variant("III")
label2 = compute_normalization(c_page, m, ChangeScenario.from_exponent(
    1.0, 1.0, eta_zero_beta(gamma), m), gamma).case
law2 = LimitLaw(label2)
law1 = LimitLaw.for_variant("I")
for x in (-1.0, 0.0, 1.0):
    print(f"  x={x:+.0f}: early {limit_cdf(x, law1):.4f}   "
          f"knife-edge {limit_cdf(x, law2):.4f}   "
          f"late {limit_cdf(x, law3):.4f}")
print("\nthe late-change law has all its mass at or below 0: stopping then "
      "happens essentially by a_m, with one-sided fluctuations.")
