"""The GARCH(1,1) recursion as a per-step loop over one path, in Python
floats: the oracle that datagen.generate_garch11_batch and
experiments.location_paths are checked against."""

import math

import numpy as np


def generate_garch11(spec, n, rng):
    """One path of n innovations from the generator rng.

    The recursion starts at the stationary variance with eps_0 = 0; the first
    spec.burn_in values are discarded.
    """
    total = spec.burn_in + n
    z = rng.standard_normal(total)
    eps = np.empty(total)
    sig2 = spec.unconditional_variance
    e_prev = 0.0
    for i in range(total):
        sig2 = spec.omega + spec.alpha_g * e_prev * e_prev + spec.beta_g * sig2
        e_prev = math.sqrt(sig2) * z[i]
        eps[i] = e_prev
    return eps[spec.burn_in:]
