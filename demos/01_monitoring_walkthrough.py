"""Walkthrough: monitor a GARCH location model for a mean shift.

A training sample calibrates the detector (mean and scale); monitoring then
 compares the running CUSUM statistics against the curved boundary
sigma_hat * c * g(m, k). The page variant subtracts the running minimum, so
it re-arms itself after downward excursions and reacts faster to late
changes.
"""

import numpy as np

from pagecusum import (ChangeScenario, Garch11Spec, MonitoringParams,
                       location_paths, resolve_critical_value, run_monitor,
                       summarize_training)

m = 500
kstar = 150          # the shift enters this many steps into monitoring
delta = 0.8
garch = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3)


def series(scenario):
    """Training sample and 2000-step stream of replication 0 with seed 7:
    location_paths yields the (1, m) training block, then the stream in
    pieces. Each call draws the same GARCH errors."""
    train, *pieces = location_paths(garch, 0.0, scenario, m, 2000, seed=7)
    return train[0], np.concatenate(pieces, axis=1)[0]


training, stream = series(ChangeScenario.at_kstar(delta, kstar))

summary = summarize_training(training)
print(f"training: m={m}, mean={summary.mean:+.4f}, "
      f"sigma_hat={summary.sigma_hat:.4f}")
print(f"true change point: monitoring index {kstar}, shift {delta}")
print()

for detector in ("page", "ordinary"):
    params = MonitoringParams(m=m, gamma=0.25, alpha=0.1, detector=detector)
    c = resolve_critical_value(params.gamma, params.alpha, params.side,
                               detector)
    result = run_monitor(training, stream, params, c)
    delay = result.tau - kstar if result.stopped else None
    print(f"{detector:8s}: c={c:.5f} -> "
          + (f"stopped at tau={result.tau} (delay {delay}), "
             f"stat {result.stat:.2f} vs threshold {result.threshold:.2f}"
             if result.stopped else "no stop within horizon"))

print()
print("same data, change-free stream (null behaviour):")
training0, stream0 = series(None)
for detector in ("page", "ordinary"):
    params = MonitoringParams(m=m, gamma=0.25, alpha=0.1, detector=detector)
    c = resolve_critical_value(params.gamma, params.alpha, params.side,
                               detector)
    result = run_monitor(training0, stream0, params, c)
    print(f"{detector:8s}: "
          + (f"false alarm at tau={result.tau}" if result.stopped
             else "no stop within horizon (as it should be, mostly)"))
