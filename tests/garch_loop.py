"""The GARCH(1,1) recursion as a per-step loop over one path, in Python
floats: the oracle that datagen.generate_garch11_batch and
experiments.location_paths are checked against."""

import math

import numpy as np


def generate_garch11(spec, n, rng):
    """One path of n innovations from the generator rng.

    The recursion starts at the stationary variance with eps_0 = z_0 = 0; the
    first spec.burn_in values are discarded. Each step is the batch's, in the
    batch's order of operations: the coefficient a = alpha_g*z_prev^2 +
    beta_g, then sig2 = a*sig2 + omega, then eps = sqrt(sig2)*z.
    """
    total = spec.burn_in + n
    z = rng.standard_normal(total)
    eps = np.empty(total)
    sig2 = spec.unconditional_variance
    z_prev = 0.0
    for i in range(total):
        a = spec.alpha_g * (z_prev * z_prev) + spec.beta_g
        sig2 = a * sig2 + spec.omega
        z_prev = z[i]
        eps[i] = math.sqrt(sig2) * z_prev
    return eps[spec.burn_in:]
