"""Monte Carlo lab for the null limit functionals and their critical values.

Under no change, the scaled detector paths converge to functionals of a
Wiener process W on (0, 1):

    ordinary   sup_t W(t) / t**gamma            (|W(t)| when two-sided)
    page       sup_t [W(t) - inf_{s<=t} ((1-t)/(1-s)) W(s)] / t**gamma.

Critical values c(gamma, alpha) are (1-alpha)-quantiles of these suprema,
estimated here on a uniform grid of size T. Grid suprema underestimate the
continuous supremum slightly (the bias shrinks with T and grows with gamma,
since t**(-gamma) amplifies the missing fine structure near t = 0).

A path is a plain (T+1,) array of W(j/T), j = 0..T, W(0) = 0. One sampler,
_fill_path, draws T normals into a given row, scales them by sqrt(1/T) and
sums them in place: sample_wiener_path runs it on a fresh array, and the
simulation on one reused row per worker (O(T) memory), one Philox stream per
path. Each row is scored while still in cache, bit-identical to scoring a
whole (paths, T) block at once: every elementwise operation and its order
are kept, and running extremes and maxima are exact in floating point. The
page functional is scanned only on the blocks of grid points whose bound,
from block extremes, can reach the supremum (_functional_values).
"""

import functools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .model import (DETECTORS, SIDES, ValidationError, _require,
                    _require_count, _require_gamma)
from .rng import BOOTSTRAP_STREAM, _map_blocks, rng_stream

# bootstrap resamples behind a standard error, and the most resample indices
# drawn at once: the cap keeps a group's index and value arrays under 1 MB
# whatever reps is
_RESAMPLES = 200
_BOOT_GROUP = 1 << 15

# grid points per block of the page scan, and the pad of a block's bound
# relative to the largest magnitude in the page formula
_PAGE_BLOCK = 128
_PAGE_SLACK = 2.0 ** -40


def _fill_path(rng: "np.random.Generator", row: np.ndarray) -> np.ndarray:
    """Overwrite row with W(j/T), j = 1..T, T = row.size: the cumulative sum
    of T independent N(0, 1/T) increments drawn from rng. Returns row."""
    rng.standard_normal(out=row)
    np.multiply(row, math.sqrt(1.0 / row.size), out=row)
    return np.cumsum(row, out=row)


def sample_wiener_path(T: int, rng: "np.random.Generator") -> np.ndarray:
    """The (T+1,) array of W(j/T), j = 0..T, with W(0) = 0."""
    _require_count(T, "T", 2)
    path = np.zeros(T + 1)
    _fill_path(rng, path[1:])
    return path


def refine_wiener_path(path, rng: "np.random.Generator") -> np.ndarray:
    """Brownian-bridge midpoint refinement: same path on a grid of size 2T.

    Existing grid values are kept; each midpoint is the endpoint average plus
    an independent N(0, 1/(4T)) bridge fluctuation.
    """
    T = len(path) - 1
    values = np.empty(2 * T + 1)
    values[0::2] = path
    mids = 0.5 * (path[:-1] + path[1:])
    values[1::2] = mids + rng.standard_normal(T) * math.sqrt(0.25 / T)
    return values


def _functional_values(rows, count: int, T: int, gamma: float, side: str,
                       detector: str) -> np.ndarray:
    """Grid suprema of the count rows of T values of W at t = 1/T .. 1.

    Each row is scored as soon as `rows` yields it, in a few reused scratch
    arrays, into a (count,) array; rows are only read. 1 - j/T serves as
    both 1 - s and 1 - t, and at gamma = 0 the weight t**(-gamma) is 1.0,
    so its multiply, which would change no bit, is skipped.

    page: factor the inner infimum, inf_s ((1-t)/(1-s)) W(s)
      = (1-t) * running-min X(t) of r(s) = W(s)/(1-s) over s = 0 .. t,
    evaluated at t = 1/T .. (T-1)/T; at t = 1 only the W(1) term survives.
    Only the blocks of _PAGE_BLOCK grid points that can hold the supremum
    are scanned. As r(0) = 0, X <= 0, so on a block starting at t0 the
    deviation W(t) - (1-t) X(t) is at most max W - (1-t0) X(block end),
    times t0**(-gamma) (two-sided: also (1-t0) max-X(block end) - min W).
    Block extremes and running extremes of r round nothing, so the bounds
    cost a few block reductions. Blocks are scanned exactly, from their
    carried-in running extremes, in descending order of bound, until the
    next bound is no more than the best value found, W(1) included (the
    zero path scans no block). A bound is padded by _PAGE_SLACK times the
    largest magnitude in the formula, far above the few ulps by which either
    formula rounds, so the result has the bits of a full scan (up to the
    sign of a zero supremum, which a max reduction takes from the order it
    meets tied zeros in). A Wiener path at T = 10**4 scans about 3 of its
    79 blocks.
    """
    t = np.arange(1, T + 1) / T
    weight = t ** (-gamma) if gamma else None
    two_sided = side == "two_sided"
    sup = np.empty(count)
    if detector == "ordinary":
        x = np.empty(T)
        for i, w in enumerate(rows):
            row = np.abs(w, out=x) if two_sided else w
            if weight is not None:
                row = np.multiply(row, weight, out=x)
            sup[i] = row.max()
        return sup
    one_minus = 1.0 - t[:-1]
    starts = np.arange(0, T - 1, _PAGE_BLOCK)
    spans = list(zip(starts.tolist(), starts[1:].tolist() + [T - 1]))
    first_minus = one_minus[starts]
    first_weight = None if weight is None else weight[starts]
    r = np.empty(T - 1)
    # running min (max) of r through the end of each block; [0] is r(0)
    lo_end = np.zeros(len(starts) + 1)
    hi_end = np.zeros(len(starts) + 1)
    for i, w in enumerate(rows):
        head = w[:-1]
        np.divide(head, one_minus, out=r)
        np.minimum.reduceat(r, starts, out=lo_end[1:])
        np.minimum.accumulate(lo_end, out=lo_end)
        w_hi = np.maximum.reduceat(head, starts)
        bound = w_hi - first_minus * lo_end[1:]
        scale = max(float(w_hi.max()), 0.0) - float(lo_end[-1])
        if two_sided:
            np.maximum.reduceat(r, starts, out=hi_end[1:])
            np.maximum.accumulate(hi_end, out=hi_end)
            w_lo = np.minimum.reduceat(head, starts)
            np.maximum(bound, first_minus * hi_end[1:] - w_lo, out=bound)
            scale += max(-float(w_lo.min()), 0.0) + float(hi_end[-1])
        bound += _PAGE_SLACK * scale
        if first_weight is not None:
            bound *= first_weight
        best = abs(w[-1]) if two_sided else w[-1]
        for k in reversed(bound.argsort().tolist()):
            if bound[k] <= best:
                break
            a, b = spans[k]
            lo = np.minimum(np.minimum.accumulate(r[a:b]), lo_end[k])
            d = head[a:b] - one_minus[a:b] * lo
            if two_sided:
                hi = np.maximum(np.maximum.accumulate(r[a:b]), hi_end[k])
                d = np.maximum(d, one_minus[a:b] * hi - head[a:b])
            if weight is not None:
                d *= weight[a:b]
            best = max(best, d.max())
        sup[i] = best
    return sup


def _functional(path, gamma: float, side: str, detector: str) -> float:
    path = np.asarray(path, dtype=float)
    _require(path.ndim == 1 and path.size >= 3,
             "a Wiener path is a 1-D array of at least 3 values")
    _require(path[0] == 0.0, "a Wiener path starts at 0")
    _require(bool(np.isfinite(path).all()),
             "a Wiener path contains a non-finite value")
    _require_gamma(gamma)
    _require(side in SIDES, f"side must be one of {SIDES}")
    return float(_functional_values([path[1:]], 1, path.size - 1, gamma,
                                    side, detector)[0])


def functional_ordinary(path, gamma: float, side: str = "one_sided") -> float:
    """Grid supremum of W(t)/t**gamma (one-sided) or |W(t)|/t**gamma."""
    return _functional(path, gamma, side, "ordinary")


def functional_page(path, gamma: float, side: str = "one_sided") -> float:
    """Grid supremum of the page functional; always >= functional_ordinary.

    The inner infimum is computed in O(T) total via the running minimum (and
    maximum, when two-sided) of W(s)/(1-s). The two-sided version is the grid
    analogue of the two-sided detector, sup_t t**(-gamma) *
    sup_{s<=t} |W(t) - ((1-t)/(1-s)) W(s)|.
    """
    return _functional(path, gamma, side, "page")


def _simulate_block(seed: int, T: int, gamma: float, side: str,
                    detector: str, start: int, count: int) -> np.ndarray:
    """Functional values for paths [start, start + count); order-stable."""
    w = np.empty(T)
    paths = (_fill_path(rng_stream(seed, start + i), w) for i in range(count))
    return _functional_values(paths, count, T, gamma, side, detector)


def simulate_functional_values(gamma: float, side: str, detector: str,
                               reps: int, T: int, seed: int,
                               threads: int = 1) -> np.ndarray:
    """reps independent functional values, one Philox stream per path.

    The result depends only on (seed, reps, T, gamma, side, detector), never
    on threads or batching.
    """
    _require_gamma(gamma)
    _require(side in SIDES, f"side must be one of {SIDES}")
    _require(detector in DETECTORS, f"detector must be one of {DETECTORS}")
    _require_count(T, "T", 2)
    _require_count(reps, "reps", 1)
    fn = functools.partial(_simulate_block, seed, T, gamma, side, detector)
    return np.concatenate(_map_blocks(fn, reps, reps, threads))


@dataclass(frozen=True)
class CriticalValueEstimate:
    """A simulated critical value with its Monte Carlo standard error."""

    c: float
    std_err: float
    gamma: float
    alpha: float
    side: str
    detector: str
    reps: int
    grid_size: int
    seed: int

    def to_json_dict(self) -> dict:
        return {"gamma": self.gamma, "alpha": self.alpha, "side": self.side,
                "detector": self.detector, "reps": self.reps,
                "grid": self.grid_size, "seed": self.seed, "c": self.c,
                "std_err": self.std_err}


def estimate_critical_value(gamma: float, alpha: float, side: str,
                            detector: str, reps: int = 100_000,
                            T: int = 10_000, seed: int = 0,
                            threads: int = 1) -> CriticalValueEstimate:
    """Empirical (1-alpha)-quantile of the chosen functional over reps paths.

    The quantile uses linear interpolation of order statistics (type 7); the
    standard error comes from a nonparametric bootstrap with 200 resamples
    drawn from a dedicated RNG stream. Deterministic given (seed, reps, T)
    for any thread count.
    """
    _require(0.0 < alpha < 1.0, "alpha must lie in (0, 1)")
    _require_count(reps, "reps", 100)
    vals = simulate_functional_values(gamma, side, detector, reps, T, seed,
                                      threads=threads)
    c = float(np.quantile(vals, 1.0 - alpha))
    # one integers call per group of resample rows draws what one call per
    # row draws: a call fills its rows in order from the same stream
    boot_rng = rng_stream(seed, BOOTSTRAP_STREAM)
    group = max(1, _BOOT_GROUP // reps)
    boots = []
    for b in range(0, _RESAMPLES, group):
        idx = boot_rng.integers(0, reps, size=(min(group, _RESAMPLES - b),
                                               reps))
        boots.append(np.quantile(vals[idx], 1.0 - alpha, axis=1))
    std_err = float(np.concatenate(boots).std(ddof=1))
    return CriticalValueEstimate(c=c, std_err=std_err, gamma=gamma,
                                 alpha=alpha, side=side, detector=detector,
                                 reps=reps, grid_size=T, seed=seed)


# Reference critical values for the one-sided stopping rules at common
# (gamma, alpha). The gamma = 0 ordinary entries are exact normal quantiles
# (reflection principle: P(sup W > c) = 2*(1 - Phi(c))). The remaining
# entries are pinned to five decimals by requiring the delay normalizations
# they imply to agree across training lengths 100/1000/10000; all are
# bracketed by estimate_critical_value at its default resolution.
REFERENCE_CRITICAL_VALUES = {
    (0.00, 0.10, "one_sided", "ordinary"): 1.64485,
    (0.25, 0.10, "one_sided", "ordinary"): 1.81023,
    (0.45, 0.10, "one_sided", "ordinary"): 2.28680,
    (0.00, 0.10, "one_sided", "page"): 1.69236,
    (0.25, 0.10, "one_sided", "page"): 1.89922,
    (0.45, 0.10, "one_sided", "page"): 2.45924,
    (0.00, 0.05, "one_sided", "ordinary"): 1.95996,
}


# fewest replications a persisted (cache) estimate may rest on
MIN_CACHE_REPS = 1000


def save_estimate(estimate: CriticalValueEstimate, path) -> None:
    """Persist an estimate as JSON; refuses reps < MIN_CACHE_REPS."""
    _require(estimate.reps >= MIN_CACHE_REPS,
             f"persisted critical values need reps >= {MIN_CACHE_REPS}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(estimate.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")


def load_estimate(path) -> CriticalValueEstimate:
    """Read a file written by save_estimate.

    Raises KeyError for a missing field and ValidationError for a field whose
    JSON type does not match CriticalValueEstimate's, a non-finite number or
    reps below MIN_CACHE_REPS, which save_estimate would not have written.
    """
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    _require(isinstance(d, dict), f"{path}: not a JSON object")
    values = {}
    for f in fields(CriticalValueEstimate):
        value = d["grid" if f.name == "grid_size" else f.name]
        kind = (int, float) if f.type is float else f.type
        ok = isinstance(value, kind) and not isinstance(value, bool)
        _require(ok and (f.type is not float or math.isfinite(value)),
                 f"{path}: field '{f.name}' has the wrong type or is not "
                 f"finite: {value!r}")
        values[f.name] = value
    _require(values["reps"] >= MIN_CACHE_REPS,
             f"{path}: field 'reps' is below {MIN_CACHE_REPS}: "
             f"{values['reps']}")
    return CriticalValueEstimate(**values)


def _known_critical_values(cache_dir):
    """((gamma, alpha, side, detector), c) of each readable critvals JSON
    file in cache_dir, in name order, then of REFERENCE_CRITICAL_VALUES."""
    if cache_dir is not None:
        _require(os.path.isdir(cache_dir),
                 f"cache_dir {cache_dir!r} is not a directory")
        for name in sorted(os.listdir(cache_dir)):
            if not name.endswith(".json"):
                continue
            try:
                est = load_estimate(os.path.join(cache_dir, name))
            except (KeyError, ValueError, OSError):
                continue
            yield (est.gamma, est.alpha, est.side, est.detector), est.c
    yield from REFERENCE_CRITICAL_VALUES.items()


def resolve_critical_value(gamma: float, alpha: float, side: str,
                           detector: str, cache_dir=None) -> float:
    """Look up c(gamma, alpha) from a cache of critvals JSON files.

    Falls back to REFERENCE_CRITICAL_VALUES; raises ValidationError when the
    combination is unknown (run the critvals command to fill the cache) or
    when a cache_dir is given that is not a directory.
    """
    for (g, a, s, d), c in _known_critical_values(cache_dir):
        if abs(g - gamma) < 1e-9 and abs(a - alpha) < 1e-9 and s == side \
                and d == detector:
            return c
    raise ValidationError(
        f"no critical value for gamma={gamma}, alpha={alpha}, side={side}, "
        f"detector={detector}; estimate one with the critvals command")
