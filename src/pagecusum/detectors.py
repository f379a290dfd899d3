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

The many-path studies scan every path a chunk at a time with first_stops,
calibrated as a Monitor is (_row_summaries gives sigma_hat and _boundary
g(m, k) a block of indices at a time); partial_sums adds in Monitor's order and
chunk_statistic forms the statistics, so both give the same tau, statistic and
threshold bits. Most chunks of a path cannot cross, and first_stops proves it
cheaply: from the chunk's extremes lo = min Q and hi = max Q and the running
extremes q_min and q_max after it, each statistic is at most

    ordinary one-sided   hi
    ordinary two-sided   max(hi, -lo)
    page one-sided       hi - q_min
    page two-sided       max(hi - q_min, q_max - lo)

in exact arithmetic. Rounding is monotone, so the rounded statistic is at
most the rounded bound, and the rounded threshold fl(s * g(m, k)) is at
least fl(s * min of g over the chunk) for s = sigma_hat * c > 0. A path
whose bound is below that product cannot cross in the chunk, so the exact
scan skips it there; the other paths are scanned exactly as before, and
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
        mean, sd = _row_summaries(arr[None].copy())
    return TrainingSummary(m=m, mean=float(mean[0]), sigma_hat=float(sd[0]))


def _row_summaries(train: np.ndarray):
    """Each row's mean and sd (ddof=1) of a C-contiguous (count, m) block,
    which it consumes, in the bits of row.mean() and row.std(ddof=1): a
    block reduced along its rows sums each row pairwise, as a 1-D reduction
    does, and these are numpy's own variance steps, done in place."""
    m = train.shape[1]
    mean = train.mean(axis=1)
    train -= mean[:, None]
    np.square(train, out=train)
    return mean, np.sqrt(train.sum(axis=1) / (m - 1))


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
    if np.isscalar(k):
        # numpy's 0-d arithmetic can round a scalar k one ulp away from the
        # same k in an array; a one-element array gives the array's bits
        return float(_boundary(m, karr.reshape(1), gamma)[0])
    return _boundary(m, karr, gamma)


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


def first_crossings(stat: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Column of the first stat >= thresh in each row, -1 where none."""
    hit = stat >= thresh
    j = hit.argmax(axis=1)
    return np.where(hit[np.arange(hit.shape[0]), j], j, -1)


# overflow only makes Q(m, k) non-finite, and that is rejected on every path
# up to its stop
@np.errstate(over="ignore", invalid="ignore")
def first_stops(chunks, mean: np.ndarray, rules, params: MonitoringParams,
                live: np.ndarray, first: int):
    """Each path's 1-based stopping time under each rule, 0 where it never
    stops. chunks yields (paths, L) blocks of the next observations, mean
    holds the training means, rules (detector, sigma_hat * c) pairs with a
    scale per path, params gives m, gamma and the side, and live marks the
    paths that may stop. Only the open paths that the bound of the module
    docstring cannot settle are scanned exactly, and no chunk is drawn once
    every live path has stopped under every rule. Raises ValidationError
    naming replication first + i when path i's Q(m, k) turns non-finite
    before it has stopped under every rule."""
    count, side = mean.size, params.side
    taus = [np.zeros(count, dtype=np.int64) for _ in rules]
    q_end, q_min, q_max = np.zeros(count), np.zeros(count), np.zeros(count)
    k0 = 0
    for x in chunks:
        length = x.shape[1]
        q = partial_sums(x, mean, q_end)
        # min and max round nothing, so the extremes after the chunk equal
        # the last column of its running minimum and maximum
        lo, hi = q.min(axis=1), q.max(axis=1)
        before_min, before_max = q_min, q_max
        q_end = q[:, -1].copy()
        q_min, q_max = np.minimum(q_min, lo), np.maximum(q_max, hi)
        g_chunk = _boundary(params.m, np.arange(k0 + 1, k0 + length + 1,
                                                dtype=float), params.gamma)
        g_min = g_chunk.min()
        for (detector, scale), tau in zip(rules, taus):
            if detector == "ordinary":
                bound = np.maximum(hi, -lo) if side == "two_sided" else hi
            else:
                bound = hi - q_min
                if side == "two_sided":
                    np.maximum(bound, q_max - lo, out=bound)
            # a path whose bound is below its lowest threshold in the chunk,
            # scale * g_min, cannot cross in it
            rows = np.flatnonzero((tau == 0) & live & (bound >= scale * g_min))
            if rows.size == 0:
                continue
            # copies of at most half the rows take less time and memory than
            # scanning every row in place
            sel = rows if rows.size * 2 <= count else slice(None)
            stat = chunk_statistic(q[sel], before_min[sel], before_max[sel],
                                   side, detector)
            j = first_crossings(stat, scale[sel, None] * g_chunk)
            if sel is not rows:
                j = j[rows]
            hit = j >= 0
            tau[rows[hit]] = k0 + 1 + j[hit]
        bad = np.flatnonzero(live & ~(np.isfinite(lo) & np.isfinite(hi)))
        if bad.size:
            k_bad = k0 + 1 + np.argmin(np.isfinite(q[bad]), axis=1)
            open_ = np.zeros(bad.size, dtype=bool)
            for tau in taus:
                open_ |= (tau[bad] == 0) | (tau[bad] >= k_bad)
            if open_.any():
                i = int(np.argmax(open_))
                raise ValidationError(
                    f"replication {first + int(bad[i])}: Q(m, k) is "
                    f"non-finite at k = {int(k_bad[i])}")
        if not any(np.any((tau == 0) & live) for tau in taus):
            break
        k0 += length
    return taus


def _thresholds(scale: float, params: MonitoringParams, k0: int,
                n: int) -> np.ndarray:
    """scale * g(m, k) for k = k0+1 .. k0+n, where scale = sigma_hat * c
    (so the product is (sigma_hat * c) * g); g is elementwise, so any split
    of the indices gives the same bits. MonitoringParams has checked m and
    gamma and the indices start at 1, so the unchecked kernel suffices.
    Raises ValidationError when the last threshold, the largest, is
    non-finite, before numpy would warn of the overflow."""
    g = _boundary(params.m, np.arange(k0 + 1, k0 + n + 1, dtype=float),
                  params.gamma)
    # a product of Python floats rounds as numpy's does
    if not math.isfinite(scale * float(g[-1])):
        raise ValidationError(f"threshold is non-finite at k = {k0 + n}")
    return scale * g


class Monitor:
    """Streaming detector: feed observations with feed(values) or update(x).

    After k observations, q is Q(m, k) and q_min / q_max are the running
    extremes of Q(m, i) over 0 <= i <= k (Q(m, 0) = 0 participates, so
    q_min <= 0 <= q_max); stat and threshold are the statistic and
    sigma_hat * c * g(m, k) at k (None before the first observation). All
    are plain floats. q adds the centered observations in the order of
    partial_sums' cumsum, and the thresholds come from _thresholds CHUNK
    indices at a time, so a Monitor gives first_stops' bits on the same
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
        the state then stays at the last value accepted. Also raises when
        a threshold, or Q(m, k) at the end of the call, is non-finite (an
        overflow could pass for a stop or hide one)."""
        k, q, q_min, q_max = self.k, self.q, self.q_min, self.q_max
        stat, thresh, block = self.stat, self.threshold, self._block
        mean, horizon = self._mean, self._horizon
        page, two_sided = self._page, self._two_sided
        isfinite = math.isfinite
        stopped = False
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
                    stopped = True
                    break
            # a non-finite Q(m, k) stays so: one check per call finds it
            if not isfinite(q):
                raise ValidationError(f"Q(m, k) is non-finite at k = {k}")
            return stopped
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
