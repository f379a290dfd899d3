"""Online CUSUM / Page-CUSUM detectors, boundary function, and stopping rules.

The monitored statistic is built from the centered partial sum

    Q(m, k) = sum(X[m+1..m+k]) - (k/m) * sum(X[1..m]),

updated in O(1) per observation. The four detector statistics are

    ordinary one-sided   Q(m, k)
    ordinary two-sided   |Q(m, k)|
    page one-sided       S1 = Q(m, k) - min_{0<=i<=k} Q(m, i)
    page two-sided       S2 = max_{0<=i<=k} |Q(m, k) - Q(m, i)|,

and monitoring stops at the first k >= 1 with statistic >= sigma_hat * c *
g(m, k). Ties count as a stop (the comparison is >=).

Monitor is the one recursion for a single stream: a mutable object whose
feed(values) advances (q, q_min, q_max) over an iterable up to the first
crossing, and whose update(x) feeds one observation. run_monitor feeds every
stream, materialized or lazy, to Monitor.feed.

The many-path studies scan every path a chunk at a time. partial_sums adds
in Monitor's order and chunk_statistic forms the statistics, so a study and
a Monitor give the same tau, statistic and threshold bits; scan_chunk chains
the two over every path. Most chunks of a path cannot cross, and
chunk_bound proves it cheaply: from the chunk's extremes lo = min Q and
hi = max Q and the running extremes q_min and q_max after it, each
statistic is at most

    ordinary one-sided   hi
    ordinary two-sided   max(hi, -lo)
    page one-sided       hi - q_min
    page two-sided       max(hi - q_min, q_max - lo)

in exact arithmetic. Rounding is monotone, so the rounded statistic is at
most the rounded bound, and the rounded threshold fl(s * g(m, k)) is at
least fl(s * min of g over the chunk) for s = sigma_hat * c > 0. A path
whose bound is below that product cannot cross in the chunk, so the study
skips the exact scan there; it scans the other paths exactly as before, and
no stopping time changes by a bit.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datagen import CHUNK
from .model import (MonitoringParams, ValidationError, _require,
                    _require_count, _require_gamma)


class DegenerateTrainingError(ValidationError):
    """Training data with zero sample variance cannot calibrate the monitor."""


@dataclass(frozen=True)
class TrainingSummary:
    """Mean and scale estimated from the change-free training period."""

    m: int
    mean: float
    sigma_hat: float

    def __post_init__(self):
        _require_count(self.m, "m", 2)
        _require(math.isfinite(self.mean) and math.isfinite(self.sigma_hat),
                 "training mean or sigma_hat is non-finite")
        if not self.sigma_hat > 0.0:
            raise DegenerateTrainingError(
                "training data are constant (sigma_hat must be positive)")


def _series(x, what: str) -> np.ndarray:
    """x as a 1-D float array; ValidationError when it is ragged, holds a
    value that is not a number or is not one-dimensional."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{what} is ragged or holds a value that is not a number: {exc}"
        ) from None
    _require(arr.ndim == 1, f"{what} must be one-dimensional")
    return arr


def summarize_training(x) -> TrainingSummary:
    """Sample mean and standard deviation (ddof=1) of the training data.

    Raises ValidationError on ragged, non-numeric or non-finite values and
    DegenerateTrainingError when all observations are equal.
    """
    arr = _series(x, "training data")
    m = int(arr.size)
    _require(m >= 2, "training period needs at least 2 observations")
    _require(bool(np.isfinite(arr).all()),
             "training data contain a non-finite value")
    # finite data whose mean or sd overflows fail TrainingSummary's check
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = float(arr.mean()), float(arr.std(ddof=1))
    return TrainingSummary(m=m, mean=mean, sigma_hat=sd)


def _boundary(m: int, k: np.ndarray, gamma: float) -> np.ndarray:
    """g(m, k) on a float array of indices, without boundary_g's checks."""
    return math.sqrt(m) * (1.0 + k / m) * (k / (k + m)) ** gamma


def boundary_g(m: int, k, gamma: float):
    """Boundary curve g(m, k) = sqrt(m) * (1 + k/m) * (k/(k+m))**gamma.

    Strictly increasing in k for fixed (m, gamma). Accepts a scalar k or an
    array of monitoring indices.
    """
    _require_gamma(gamma)
    _require_count(m, "m", 1)
    karr = np.asarray(k, dtype=float)
    _require(bool(np.all(karr >= 1)), "k must be >= 1")
    val = _boundary(m, karr, gamma)
    return float(val) if np.isscalar(k) else val


@dataclass(frozen=True)
class StoppingResult:
    """Outcome of a monitoring run.

    tau is the first monitoring index whose statistic reached the threshold,
    or None when the horizon was exhausted. stat/threshold report the values
    at tau.
    """

    tau: int | None
    stat: float | None = None
    threshold: float | None = None

    @property
    def stopped(self) -> bool:
        return self.tau is not None


class ScanCarry:
    """Running (q, q_min, q_max) of each path after the steps scanned so far.

    All three start at Q(m, 0) = 0 and are kept for every path, whichever
    detectors are scanned.
    """

    __slots__ = ("q", "q_min", "q_max")

    def __init__(self, n_paths: int):
        self.q = np.zeros(n_paths)
        self.q_min = np.zeros(n_paths)
        self.q_max = np.zeros(n_paths)

    def advance(self, q: np.ndarray):
        """Move past a chunk whose Q(m, k) rows are q; returns the row minima
        and maxima of q. min and max round nothing, so the new extremes
        equal the last column of the running minimum and maximum."""
        lo, hi = q.min(axis=1), q.max(axis=1)
        self.q = q[:, -1].copy()
        self.q_min = np.minimum(self.q_min, lo)
        self.q_max = np.maximum(self.q_max, hi)
        return lo, hi


def partial_sums(x: np.ndarray, mean: np.ndarray,
                 q0: np.ndarray) -> np.ndarray:
    """(paths, L) array of Q(m, k) over one chunk, where x holds the next L
    monitored observations of each path, mean the (paths,) training means
    and q0 each path's Q(m, k) before the chunk."""
    paths, length = x.shape
    buf = np.empty((paths, length + 1))
    buf[:, 0] = q0
    np.subtract(x, mean[:, None], out=buf[:, 1:])
    # cumsum([q, y_1, ..., y_L]) adds in the order of one cumsum over the
    # whole stream, so chunking never changes a bit (q + cumsum(y) would)
    return np.cumsum(buf, axis=1, out=buf)[:, 1:]


def chunk_statistic(q: np.ndarray, q_min: np.ndarray, q_max: np.ndarray,
                    side: str, detector: str) -> np.ndarray:
    """The detector's statistic over a chunk of some paths: q is their
    (rows, L) partial_sums and q_min / q_max their running extremes before
    the chunk. Each row is computed on its own, so any choice of rows gives
    the same bits."""
    if detector == "ordinary":
        return np.abs(q) if side == "two_sided" else q
    run_min = np.minimum.accumulate(q, axis=1)
    np.minimum(run_min, q_min[:, None], out=run_min)
    stat = q - run_min
    if side == "two_sided":
        # max_i |Q(k) - Q(i)| is attained at the running min or max
        run_max = np.maximum.accumulate(q, axis=1)
        np.maximum(run_max, q_max[:, None], out=run_max)
        stat = np.maximum(stat, run_max - q)
    return stat


def chunk_bound(lo: np.ndarray, hi: np.ndarray, carry: ScanCarry, side: str,
                detector: str) -> np.ndarray:
    """Per path, a value that no chunk_statistic of the chunk exceeds (see
    the module docstring): lo and hi are the row extremes ScanCarry.advance
    returned, and carry is already past the chunk."""
    if detector == "ordinary":
        return np.maximum(hi, -lo) if side == "two_sided" else hi
    bound = hi - carry.q_min
    if side == "two_sided":
        np.maximum(bound, carry.q_max - lo, out=bound)
    return bound


def scan_chunk(x: np.ndarray, mean: np.ndarray, carry: ScanCarry,
               side: str, detectors):
    """Statistics of the named detectors over one chunk of every path.

    x is a (paths, L) array of the next L monitored observations of each
    path and mean the (paths,) training means; carry holds each path's state
    before the chunk and is advanced past it. Returns one (paths, L) array
    per name in detectors.
    """
    q = partial_sums(x, mean, carry.q)
    stats = tuple(chunk_statistic(q, carry.q_min, carry.q_max, side, d)
                  for d in detectors)
    carry.advance(q)
    return stats


def first_crossings(stat: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Column of the first stat >= thresh in each row, -1 where none."""
    hit = stat >= thresh
    j = hit.argmax(axis=1)
    return np.where(hit[np.arange(hit.shape[0]), j], j, -1)


def _thresholds(scale: float, params: MonitoringParams, k0: int,
                n: int) -> np.ndarray:
    """scale * g(m, k) for k = k0+1 .. k0+n, where scale = sigma_hat * c
    (so the product is (sigma_hat * c) * g); g is elementwise, so any split
    of the indices gives the same bits. MonitoringParams has checked m and
    gamma and the indices start at 1, so the unchecked kernel suffices."""
    return scale * _boundary(
        params.m, np.arange(k0 + 1, k0 + n + 1, dtype=float), params.gamma)


class Monitor:
    """Streaming detector: feed observations with feed(values) or update(x).

    After k observations, q is Q(m, k) and q_min / q_max are the running
    extremes of Q(m, i) over 0 <= i <= k (Q(m, 0) = 0 participates, so
    q_min <= 0 <= q_max); stat and threshold are the statistic and
    sigma_hat * c * g(m, k) at k (None before the first observation). All
    are plain floats. q adds the centered observations in the order of
    scan_chunk's cumsum, and the thresholds come from _thresholds CHUNK
    indices at a time, so a Monitor gives scan_chunk's bits on the same
    stream however it is split between feed and update calls.

    training is the raw training sample (length params.m) or a
    TrainingSummary. At most params.horizon observations can be fed.
    """

    __slots__ = ("training", "params", "c", "k", "q", "q_min", "q_max",
                 "stat", "threshold", "_mean", "_horizon", "_scale", "_page",
                 "_two_sided", "_block")

    def __init__(self, training, params: MonitoringParams, c: float):
        _require(0.0 < c < math.inf,
                 "critical value c must be positive and finite")
        if not isinstance(training, TrainingSummary):
            training = summarize_training(training)
        _require(training.m == params.m,
                 f"training length {training.m} does not match params.m "
                 f"{params.m}")
        self.training, self.params, self.c = training, params, c
        self.k = 0
        self.q = self.q_min = self.q_max = 0.0
        self.stat = self.threshold = None
        self._mean = training.mean
        self._horizon = params.horizon
        self._scale = training.sigma_hat * c
        self._page = params.detector == "page"
        self._two_sided = params.side == "two_sided"
        self._block = None

    def feed(self, values) -> bool:
        """Advance over values up to and including the first observation
        whose statistic reaches its threshold (ties count); True if one did.
        No value after that one is pulled from values, and a later call
        continues the run. Raises ValidationError on a value that is not a
        finite number or once params.horizon observations have been fed;
        the state then stays at the last value accepted."""
        k, q, q_min, q_max = self.k, self.q, self.q_min, self.q_max
        stat, thresh, block = self.stat, self.threshold, self._block
        mean, horizon = self._mean, self._horizon
        page, two_sided = self._page, self._two_sided
        isfinite = math.isfinite
        try:
            for x in values:
                if k >= horizon:
                    raise ValidationError(
                        f"the horizon of {horizon} observations is reached")
                try:
                    x = float(x)
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"stream value {k + 1} is not a number: {x!r}"
                    ) from None
                if not isfinite(x):
                    raise ValidationError(
                        f"stream value {k + 1} is not finite: {x}")
                i = k % CHUNK
                if i == 0:
                    block = _thresholds(self._scale, self.params, k,
                                        min(CHUNK, horizon - k)).tolist()
                k += 1
                q += x - mean
                if q < q_min:
                    q_min = q
                elif q > q_max:
                    q_max = q
                if page:
                    stat = q - q_min
                    # max_i |Q(k) - Q(i)| is attained at the running min or max
                    if two_sided and q_max - q > stat:
                        stat = q_max - q
                else:
                    stat = abs(q) if two_sided else q
                thresh = block[i]
                if stat >= thresh:
                    return True
            return False
        finally:
            self.k, self.q, self.q_min, self.q_max = k, q, q_min, q_max
            self.stat, self.threshold, self._block = stat, thresh, block

    def update(self, x) -> bool:
        """Advance by one observation; True when the statistic reaches the
        threshold. Raises as feed does."""
        return self.feed((x,))


def run_monitor(training, stream, params: MonitoringParams,
                c: float) -> StoppingResult:
    """Monitor a stream until the detector crosses sigma_hat * c * g(m, k).

    training is the raw training sample (length params.m) or a precomputed
    TrainingSummary. stream is a 1-D sequence or any iterable; either way
    Monitor.feed reads it one observation at a time and stops reading at
    tau. At most params.horizon observations are read; one among them
    that is not a finite number raises ValidationError (a NaN would never
    cross the threshold), and a sequence is checked whole up to the horizon
    before the first is fed. For the statistic and threshold at every step,
    call Monitor.update on each value.
    """
    mon = Monitor(training, params, c)
    if isinstance(stream, (np.ndarray, list, tuple)):
        x = _series(stream, "stream")[:params.horizon]
        _require(bool(np.isfinite(x).all()),
                 "stream contains a non-finite value")
        stream = x.tolist()
    if mon.feed(itertools.islice(stream, params.horizon)):
        return StoppingResult(tau=mon.k, stat=mon.stat,
                              threshold=mon.threshold)
    _require(mon.k >= 1, "stream yields no observations")
    return StoppingResult(tau=None)
