"""GARCH(1,1) innovations for the simulation studies.

The innovations eps_i are zero-mean but possibly conditionally
heteroskedastic. GARCH(1,1) innovations with alpha_g + beta_g < 1 satisfy the
invariance principles the monitoring theory rests on (they are uncorrelated
martingale differences with finite variance; the theory additionally assumes a
moment of order nu > 2, which holds here and plays no algorithmic role).
experiments.location_paths builds the location model on them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import _require, _require_count
from .rng import rng_stream


@dataclass(frozen=True)
class Garch11Spec:
    """eps_i = sig_i * z_i with sig_i^2 = omega + alpha_g*eps_{i-1}^2 + beta_g*sig_{i-1}^2.

    Covariance stationarity requires alpha_g + beta_g < 1; the unconditional
    variance is then omega / (1 - alpha_g - beta_g). burn_in draws are
    discarded so the emitted values start near stationarity.
    """

    omega: float
    alpha_g: float = 0.0
    beta_g: float = 0.0
    burn_in: int = 500

    def __post_init__(self):
        _require(0.0 < self.omega < math.inf,
                 "omega must be positive and finite")
        _require(self.alpha_g >= 0.0, "alpha_g must be >= 0")
        _require(self.beta_g >= 0.0, "beta_g must be >= 0")
        _require(self.alpha_g + self.beta_g < 1.0,
                 "alpha_g + beta_g must be < 1 (covariance stationarity)")
        _require_count(self.burn_in, "burn_in", 0)

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha_g - self.beta_g)


# time steps per piece of generation: each path's normals are drawn this many
# at a time, and replication studies generate and scan their streams in
# pieces of this length (chunked Philox draws equal one long draw)
CHUNK = 512


class GarchCarry:
    """Where a batch of GARCH(1,1) paths stopped: one generator per path
    and the last (sig2, eps) of each. Empty until the first
    generate_garch11_batch call that is given it."""

    __slots__ = ("rngs", "sig2", "e_prev")

    def __init__(self):
        self.rngs = None
        self.sig2 = None
        self.e_prev = None


def generate_garch11_batch(spec: Garch11Spec, n: int, n_paths: int, seed: int,
                           first_stream: int = 0,
                           carry: GarchCarry | None = None) -> np.ndarray:
    """(n_paths, n) array of independent paths with per-path RNG streams.

    The recursion starts at the stationary variance with eps_0 = 0; the first
    spec.burn_in values are discarded: the result is a view past them, each
    row contiguous, of the (n_paths, burn_in + n) array they were made in.
    With alpha_g = beta_g = 0 this collapses to i.i.d. N(0, omega). Row i
    draws its normals from rng_stream(seed, first_stream + i) alone, so a
    path is the same in any batch.

    Passing the same carry to successive calls generates the paths piece by
    piece: the first call starts the streams and discards spec.burn_in
    values, each later call continues the recursion where the last one
    stopped, and the pieces concatenate to one call's output. A continuation
    needs burn_in=0 (ValidationError otherwise) and ignores seed and
    first_stream, as the carry's generators already hold the streams.
    """
    _require_count(n, "n", 1)
    _require_count(n_paths, "n_paths", 1)
    if carry is None:
        carry = GarchCarry()
    if carry.rngs is not None:
        _require(spec.burn_in == 0, "a started carry needs burn_in=0")
    else:
        carry.rngs = [rng_stream(seed, first_stream + i)
                      for i in range(n_paths)]
        carry.sig2 = np.full(n_paths, spec.unconditional_variance)
        carry.e_prev = np.zeros(n_paths)
    _require(len(carry.rngs) == n_paths, "carry holds a different path count")
    # coefficients as arrays: ufuncs on two arrays dispatch faster than on an
    # array and a Python float, and the products are the same
    omega, alpha_g, beta_g = (np.full(n_paths, v) for v in
                              (spec.omega, spec.alpha_g, spec.beta_g))
    total = spec.burn_in + n
    # normals go straight into out's rows, burn-in included; the step runs on
    # a time-major copy of each piece, as stepping on out's columns is slower
    out = np.empty((n_paths, total))
    eps = np.empty((min(CHUNK, total), n_paths))  # time-major: one row per step
    tmp = np.empty(n_paths)
    sig2, e_prev = carry.sig2, carry.e_prev
    # locals and a positional out cut the dispatch of each call: the step
    # alone takes about 24 ns per sample at 250 paths, 29 with out= keywords
    multiply, add, sqrt = np.multiply, np.add, np.sqrt
    for t0 in range(0, total, CHUNK):
        piece = out[:, t0:t0 + CHUNK]
        for i, rng in enumerate(carry.rngs):
            rng.standard_normal(out=piece[i])
        rows = eps[:piece.shape[1]]
        rows[...] = piece.T
        for row in rows:
            # sig2 = (omega + (alpha_g*e)*e) + beta_g*sig2; eps = sqrt(sig2)*z
            multiply(e_prev, alpha_g, tmp)
            multiply(tmp, e_prev, tmp)
            add(tmp, omega, tmp)
            multiply(sig2, beta_g, sig2)
            add(sig2, tmp, sig2)
            multiply(row, sqrt(sig2, tmp), row)
            e_prev = row
        carry.e_prev = e_prev = e_prev.copy()
        piece[...] = rows.T
    return out[:, spec.burn_in:]
