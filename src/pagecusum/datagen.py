"""GARCH(1,1) innovations for the simulation studies.

The innovations eps_i are zero-mean but possibly conditionally
heteroskedastic. GARCH(1,1) innovations with alpha_g + beta_g < 1 satisfy the
invariance principles the monitoring theory rests on (they are uncorrelated
martingale differences with finite variance; the theory additionally assumes a
moment of order nu > 2, which holds here and plays no algorithmic role).
experiments.location_paths builds the location model on them.

The variance is computed as the random-coefficient recursion
sig2_i = (alpha_g*z_{i-1}^2 + beta_g)*sig2_{i-1} + omega (Bougerol & Picard
1992, J. Econometrics 52), the textbook recursion with eps_{i-1}^2 =
sig2_{i-1}*z_{i-1}^2 substituted. The coefficients and eps_i =
sqrt(sig2_i)*z_i are formed a piece at a time, so only a multiply and an add
per step run one step at a time. The values agree with the textbook order of
operations to a few ulps, and exactly when alpha_g = beta_g = 0.
"""

import math
from dataclasses import dataclass

from .model import ValidationError, _numpy, _require, _require_count
from .rng import rng_stream

np = _numpy()


@dataclass(frozen=True)
class Garch11Spec:
    """eps_i = sig_i * z_i with sig_i^2 = omega + alpha_g*eps_{i-1}^2 + beta_g*sig_{i-1}^2.

    generate_garch11_batch computes sig_i^2 as (alpha_g*z_{i-1}^2 +
    beta_g)*sig_{i-1}^2 + omega, the same recursion since eps_{i-1}^2 =
    sig_{i-1}^2*z_{i-1}^2. Covariance stationarity requires alpha_g + beta_g
    < 1; the unconditional variance is then omega / (1 - alpha_g - beta_g).
    burn_in draws are discarded so the emitted values start near
    stationarity.
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
    """Where a batch of GARCH(1,1) paths stopped: one generator per path,
    its stream index and the last (sig2, z) of each. Empty until the first
    generate_garch11_batch call that is given it. keep(rows) narrows it to
    some of its paths, so the next call continues those alone."""

    __slots__ = ("rngs", "streams", "sig2", "z_prev")

    def __init__(self):
        self.rngs = self.streams = self.sig2 = self.z_prev = None

    def keep(self, rows) -> None:
        """Keep only the paths at the ascending positions rows."""
        self.rngs = [self.rngs[i] for i in rows]
        self.streams = self.streams[rows]
        self.sig2 = self.sig2[rows]
        self.z_prev = self.z_prev[rows]


def generate_garch11_batch(spec: Garch11Spec, n: int, n_paths: int, seed: int,
                           first_stream: int = 0,
                           carry: GarchCarry | None = None) -> "np.ndarray":
    """(n_paths, n) array of independent paths with per-path RNG streams.

    The recursion starts at the stationary variance with eps_0 = z_0 = 0; the
    first spec.burn_in values are discarded: the result is a view past them,
    each row contiguous, of the (n_paths, burn_in + n) array they were made
    in. With alpha_g = beta_g = 0 this collapses to i.i.d. N(0, omega), and
    the values are exactly sqrt(omega)*z. Row i draws its normals from
    rng_stream(seed, first_stream + i) alone, so a path is the same in any
    batch.

    Passing the same carry to successive calls generates the paths piece by
    piece: the first call starts the streams and discards spec.burn_in
    values, each later call continues the recursion where the last one
    stopped, and the pieces concatenate to one call's output. A continuation
    needs burn_in=0 (ValidationError otherwise) and ignores seed and
    first_stream, as the carry's generators already hold the streams. Once
    GarchCarry.keep has narrowed the carry, n_paths is the count it kept,
    and only those rows are drawn and stepped, each as it would be in the
    whole batch.

    Raises ValidationError naming replication first_stream + i when path
    i's variance overflows to a non-finite number, which would make its
    values infinite or NaN.
    """
    # an overflow is found once per piece, not warned of at each step
    with np.errstate(over="ignore", invalid="ignore"):
        _require_count(n, "n", 1)
        _require_count(n_paths, "n_paths", 1)
        if carry is None:
            carry = GarchCarry()
        if carry.rngs is not None:
            _require(spec.burn_in == 0, "a started carry needs burn_in=0")
        else:
            carry.rngs = [rng_stream(seed, first_stream + i)
                          for i in range(n_paths)]
            carry.streams = np.arange(first_stream, first_stream + n_paths)
            carry.sig2 = np.full(n_paths, spec.unconditional_variance)
            carry.z_prev = np.zeros(n_paths)
        _require(len(carry.rngs) == n_paths,
                 "carry holds a different path count")
        # omega as an array: a ufunc on two arrays dispatches faster than on
        # an array and a Python float, and the sums are the same
        omega = np.full(n_paths, spec.omega)
        alpha_g, beta_g = spec.alpha_g, spec.beta_g
        total = spec.burn_in + n
        # normals go straight into out's rows, burn-in included. The one
        # scratch array a is time-major, one row per step: each piece's
        # coefficients a_t = alpha_g*z_{t-1}^2 + beta_g are written into it
        # from out's rows, the loop turns them into sig2_t =
        # a_t*sig2_{t-1} + omega in place, and out's rows are multiplied by
        # their square roots
        out = np.empty((n_paths, total))
        a = np.empty((min(CHUNK, total), n_paths))
        sig2, z_prev = carry.sig2, carry.z_prev
        # locals and a positional out cut the dispatch of each call: the
        # loop alone takes about 6 ns per sample at 250 paths, 7 with out=
        # keywords
        multiply, add, square = np.multiply, np.add, np.square
        for t0 in range(0, total, CHUNK):
            piece = out[:, t0:t0 + CHUNK]
            for i, rng in enumerate(carry.rngs):
                rng.standard_normal(out=piece[i])
            rows = a[:piece.shape[1]]
            square(z_prev, rows[0])
            square(piece[:, :-1].T, rows[1:])
            multiply(rows, alpha_g, rows)
            add(rows, beta_g, rows)
            for row in rows:
                multiply(row, sig2, row)
                add(row, omega, row)
                sig2 = row
            carry.sig2 = sig2 = sig2.copy()
            carry.z_prev = z_prev = piece[:, -1].copy()
            # a non-finite variance stays so (inf * a is inf or NaN), so
            # each path's last one tells whether it overflowed in the piece
            finite = np.isfinite(sig2)
            if not finite.all():
                raise ValidationError(
                    f"replication {carry.streams[np.argmin(finite)]}: the "
                    "GARCH variance overflows to a non-finite number")
            # eps_t = sqrt(sig2_t)*z_t over the whole piece
            np.sqrt(rows, rows)
            multiply(piece, rows.T, piece)
        return out[:, spec.burn_in:]
