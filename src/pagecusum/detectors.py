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
calibrated as a Monitor is, from _row_summaries' mean and sd and c, and
checked at the horizon on _boundary_at; _boundary gives g(m, k) a block of
indices at a time, once per chunk for all rules. partial_sums adds in
Monitor's order, over each chunk's own array, and chunk_statistic forms the
statistics, so both give the same tau, statistic and threshold bits.

Both skip the thresholds of indices k0+1 .. k0+n that no statistic can
reach. With s = sigma_hat * c, the floor of such a block is

    floor = fl(fl(s * g~(k0 + 1)) * (1 - 2**-40)) - 2**-1000,

with g~ the boundary _boundary evaluates on Python floats. g~ and g', the
one it evaluates on numpy arrays for the thresholds (their pow may round
apart), are each within about ten rounding errors (a relative 2e-15) of
the exact g, which is strictly increasing, so g'(k) >= g~(k0 + 1) * (1 -
4e-15) for every k in the block. While s * g~(k0 + 1) is a normal float,
every threshold fl(s * g'(k)) of the block is thus at least floor: the
factor 1 - 2**-40 leaves a margin of thousands of rounding errors. Below
the normal range floor is negative, and every threshold is >= 0. A
statistic below floor cannot reach its threshold, so Monitor.feed forms a
block's thresholds only once a statistic reaches floor.

first_stops bounds a path's statistics over a chunk by chunk_statistic
itself, on the two values [hi, lo], the chunk's largest and smallest
Q(m, k), with the running extremes q_min <= lo and q_max >= hi after the
chunk; the bound is the larger of the two results. Each statistic of the
chunk is Q, |Q|, Q - a or b - Q with Q in [lo, hi], a >= q_min and b <=
q_max, and rounding is monotone, so none exceeds the bound: the ordinary
ones are at most hi and max(|hi|, |lo|), the page ones at most hi - q_min
and q_max - lo. A path is scanned exactly unless its bound is below its
floor (a NaN bound is scanned), so no stopping time changes by a bit.
"""

import itertools
import math
from dataclasses import dataclass

from .datagen import CHUNK
from .model import (MonitoringParams, ValidationError, _numpy, _require,
                    _require_count, _require_gamma)

np = _numpy()


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


def _series(x, what: str) -> "np.ndarray":
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
    """Sample mean and standard deviation (ddof=1) of the training data,
    from _row_summaries over CHUNK-long slices, as a study path's are.

    Raises ValidationError on ragged, non-numeric or non-finite values and
    DegenerateTrainingError when all observations are equal.
    """
    arr = _series(x, "training data")
    m = int(arr.size)
    _require(m >= 2, "training period needs at least 2 observations")
    _require(bool(np.isfinite(arr).all()),
             "training data contain a non-finite value")
    mean, sd = _row_summaries(arr[None, k0:k0 + CHUNK].copy()
                              for k0 in range(0, m, CHUNK))
    return TrainingSummary(m=m, mean=float(mean[0]), sigma_hat=float(sd[0]))


def _row_summaries(pieces, m=math.inf):
    """Each row's mean and sd (ddof=1) of the (count, m) training that
    pieces, (count, k) blocks of consecutive columns, split; it consumes
    each block up to the one that completes m columns (by default, all).
    A block whose rows are contiguous (a view past leading columns will
    do) sums each row pairwise along its rows, as a 1-D reduction does (an
    F-ordered block does not), so numpy's own variance steps, in place,
    give each row's mean and sum of squared deviations ss in the bits of
    row.mean() and of the sum that row.var() divides by k.
    Blocks are combined as they arrive by the pairwise update of Chan,
    Golub and LeVeque (1983), with n values so far:

        d = mean_block - mean
        mean = mean + d * (k / (n + k))
        ss = (ss + ss_block) + (d * d) * (n * k / (n + k))

    each ratio rounded once from the exact one; sd = sqrt(ss / (m - 1)).
    One block thus gives the bits of row.mean() and row.std(ddof=1)."""
    # a mean or sd that overflows is non-finite, and its callers reject it
    with np.errstate(over="ignore", invalid="ignore"):
        n = 0
        for x in pieces:
            k = x.shape[1]
            mean_x = x.mean(axis=1)
            x -= mean_x[:, None]
            np.square(x, out=x)
            ss_x = x.sum(axis=1)
            # x would keep this block alive while pieces draws the next one
            del x
            if n == 0:
                mean, ss = mean_x, ss_x
            else:
                d = mean_x - mean
                mean = mean + d * (k / (n + k))
                ss = (ss + ss_x) + (d * d) * (n * k / (n + k))
            n += k
            if n >= m:
                break
        return mean, np.sqrt(ss / (n - 1))


def _boundary(m: int, k: "np.ndarray", gamma: float) -> "np.ndarray":
    """g(m, k) on a float or a float array of indices, without boundary_g's
    checks."""
    return math.sqrt(m) * (1.0 + k / m) * (k / (k + m)) ** gamma


def _boundary_at(m: int, k: float, gamma: float) -> float:
    """g(m, k) at one k, on a one-element array: 0-d numpy may round apart."""
    return float(_boundary(m, np.array([k], dtype=float), gamma)[0])


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
        return _boundary_at(m, karr, gamma)
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


def partial_sums(x: "np.ndarray", mean: "np.ndarray",
                 q0: "np.ndarray") -> "np.ndarray":
    """(paths, L) array of Q(m, k) over one chunk, written over x, which
    holds the next L monitored observations of each path; mean holds the
    (paths,) training means and q0 each path's Q(m, k) before the chunk."""
    np.subtract(x, mean[:, None], out=x)
    # fl(y_1 + q) = fl(q + y_1), so this adds in the order of one cumsum over
    # [q, y_1, ..., y_L], and so of the whole stream: chunking never changes a
    # bit (q + cumsum(y) would)
    x[:, 0] += q0
    return np.cumsum(x, axis=1, out=x)


def chunk_statistic(q: "np.ndarray", q_min: "np.ndarray", q_max: "np.ndarray",
                    side: str, detector: str) -> "np.ndarray":
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


def first_crossings(stat: "np.ndarray", thresh: "np.ndarray") -> "np.ndarray":
    """Column of the first stat >= thresh in each row, -1 where none."""
    hit = stat >= thresh
    j = hit.argmax(axis=1)
    return np.where(hit[np.arange(hit.shape[0]), j], j, -1)


def first_stops(chunks, mean: "np.ndarray", sd: "np.ndarray", rules,
                params: MonitoringParams, first: int):
    """The (len(rules), paths) int64 array of each path's 1-based stopping
    time under each rule, 0 where it never stops; it overwrites its
    chunks. mean and sd hold the training means and sds, rules (detector,
    c) pairs, params m, gamma, side and horizon. A path is live if its sd
    is above 0; a dead one never stops.

    chunks is a generator paused before the stream, as location_paths is
    after its training. Each block of the next observations is asked for
    by sending it the ascending positions, among the rows it last yielded,
    of the paths still open under some rule, the live ones at first, and
    it yields a (len(positions), L) block of those paths alone. So a path
    is drawn only up to the chunk where it settles, a dead one not at
    all, and no chunk is drawn once every live path has stopped under
    every rule. The running Q(m, k), its extremes, the means and the
    scales are kept for the open paths only. Only the open paths that the
    bound of the module docstring cannot settle are scanned exactly.
    Raises ValidationError naming replication first + i when path i's
    mean, horizon threshold or unsettled Q(m, k) is non-finite."""
    # overflow only makes Q(m, k) non-finite, and that is rejected on every
    # path up to its stop
    with np.errstate(over="ignore", invalid="ignore"):
        m, gamma, side = params.m, params.gamma, params.side
        scales = np.multiply.outer([c for _, c in rules], sd)
        g_top = _boundary_at(m, params.horizon, gamma)
        ok = np.isfinite(mean) & np.isfinite(scales * g_top).all(axis=0)
        _require(ok.all(), f"replication {first + int(np.argmin(ok))}: "
                 "training mean, sd or threshold is non-finite")
        taus = np.zeros(scales.shape, dtype=np.int64)
        # idx: the open paths, as indices of mean; keep: their positions
        # among the rows of the last chunk; at first, the live paths
        idx = keep = np.flatnonzero(sd > 0.0)
        mean, scales = mean[idx], scales[:, idx]
        q_end = q_min = q_max = np.zeros(idx.size)  # none is written in place
        k0 = 0
        while idx.size:
            try:
                x = chunks.send(keep)
            except StopIteration:
                break
            length = x.shape[1]
            q = partial_sums(x, mean, q_end)
            # min and max round nothing, so the extremes after the chunk
            # equal the last column of its running minimum and maximum
            lo, hi = q.min(axis=1), q.max(axis=1)
            ends = np.stack([hi, lo], axis=1)
            before_min, before_max = q_min, q_max
            q_min, q_max = np.minimum(q_min, lo), np.maximum(q_max, hi)
            # the chunk's g, shared by the rules: at its first index for the
            # floors, over the chunk once a rule has rows to scan
            g_first, g = _boundary(m, k0 + 1.0, gamma), None
            for (detector, _), scale, tau in zip(rules, scales, taus):
                bound = chunk_statistic(ends, q_min, q_max, side,
                                        detector).max(axis=1)
                # a path whose bound is below its floor cannot cross in the
                # chunk; a NaN bound is scanned
                rows = np.flatnonzero((tau[idx] == 0)
                                      & ~(bound < _floor(scale, g_first)))
                if rows.size:
                    if g is None:
                        g = _boundary(m, np.arange(k0 + 1, k0 + length + 1,
                                                   dtype=float), gamma)
                    stat = chunk_statistic(q[rows], before_min[rows],
                                           before_max[rows], side, detector)
                    j = first_crossings(stat, scale[rows, None] * g)
                    crossed = j >= 0
                    tau[idx[rows[crossed]]] = k0 + 1 + j[crossed]
            bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
            if bad.size:
                k_bad = k0 + 1 + np.argmin(np.isfinite(q[bad]), axis=1)
                t = taus[:, idx[bad]]
                unsettled = ((t == 0) | (t >= k_bad)).any(axis=0)
                if unsettled.any():
                    i = int(np.argmax(unsettled))
                    raise ValidationError(
                        f"replication {first + int(idx[bad[i]])}: Q(m, k) is "
                        f"non-finite at k = {int(k_bad[i])}")
            keep = np.flatnonzero((taus[:, idx] == 0).any(axis=0))
            idx, mean, q_end = idx[keep], mean[keep], q[keep, -1]
            q_min, q_max = q_min[keep], q_max[keep]
            scales = scales[:, keep]
            k0 += length
        return taus


# the padding of the floor (module docstring)
_SLACK = 1.0 - 2.0 ** -40
_FLOOR = 2.0 ** -1000


def _floor(scale, g: float):
    """The floor (module docstring) of the thresholds scale * g(m, k) for
    k > k0, on a float scale or an array of them, from g = g(m, k0 + 1)
    on a Python float."""
    return scale * g * _SLACK - _FLOOR


def _number(x, k: int) -> float:
    """Stream value k as a finite float; ValidationError naming k if it is
    not a number or not finite."""
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise ValidationError(
            f"stream value {k} is not a number: {x!r}") from None
    if not math.isfinite(x):
        raise ValidationError(f"stream value {k} is not finite: {x}")
    return x


def _block(scale: float, params: MonitoringParams, base: int,
           end: int) -> list:
    """The thresholds scale * g(m, k) at k = base .. end as a list,
    block[k - base], in the bits of first_stops' at the same k (g is
    elementwise). MonitoringParams has checked m and gamma, so the
    unchecked kernel suffices."""
    g = _boundary(params.m, np.arange(base, end + 1, dtype=float),
                  params.gamma)
    return (scale * g).tolist()


class Monitor:
    """Streaming detector: feed observations with feed(values) or update(x).

    After k observations, q is Q(m, k) and q_min / q_max are the running
    extremes of Q(m, i) over 0 <= i <= k (Q(m, 0) = 0 participates, so
    q_min <= 0 <= q_max); stat and threshold are the statistic and
    sigma_hat * c * g(m, k) at k (None before the first observation). All
    are plain floats. q adds the centered observations in the order of
    partial_sums' cumsum, and the thresholds come from _block CHUNK
    indices at a time, so a Monitor gives first_stops' bits on the same
    stream however it is split between feed and update calls.

    The indices come in blocks k0+1 .. k0+CHUNK, the last one cut at the
    horizon. The value that opens a block evaluates g on a Python float at
    the block's first index only, for the floor of the module docstring.
    The block's thresholds are formed only once a statistic reaches the
    floor, or when a call ends in the block, for self.threshold. So a feed
    of a stream that stays below its boundary forms one block, and update
    (one observation per call) forms each block once.

    training is the raw training sample (length params.m) or a
    TrainingSummary. At most params.horizon observations can be fed. As a
    study does, the constructor raises ValidationError when the threshold
    at the horizon, the largest, is non-finite.
    """

    __slots__ = ("training", "params", "c", "k", "q", "q_min", "q_max",
                 "stat", "threshold", "_setup", "_run")

    def __init__(self, training, params: MonitoringParams, c: float):
        _require(0.0 < c < math.inf,
                 "critical value c must be positive and finite")
        if not isinstance(training, TrainingSummary):
            training = summarize_training(training)
        _require(training.m == params.m,
                 f"training length {training.m} does not match params.m "
                 f"{params.m}")
        scale = training.sigma_hat * c
        g_top = _boundary_at(params.m, params.horizon, params.gamma)
        _require(math.isfinite(scale * g_top),
                 f"threshold is non-finite at k = {params.horizon}")
        self.training, self.params, self.c = training, params, c
        self.k = 0
        self.q = self.q_min = self.q_max = 0.0
        self.stat = self.threshold = None
        # one tuple each, as feed reads them on every call
        self._setup = (training.mean, scale,
                       params.detector == "page", params.side == "two_sided")
        # the block of k, as _open gives it, with its thresholds once they
        # are formed; k == end asks the next value to open a block, and
        # before the first one the block [None] gives threshold None
        self._run = (0, 0, None, [None])

    def feed(self, values) -> bool:
        """Advance over values up to and including the first observation
        whose statistic reaches its threshold (ties count); True if one did.
        No value after that one is pulled from values, and a later call
        continues the run. Raises ValidationError on a value that is not a
        finite number or once params.horizon observations have been fed;
        the state then stays at the last value accepted. Also raises when
        Q(m, k) at the end of the call is non-finite (an overflow could
        pass for a stop or hide one). Per observation, one test k == end
        finds the value that opens the next block."""
        k, q, q_min, q_max = self.k, self.q, self.q_min, self.q_max
        stat, run = self.stat, self._run
        end, base, floor, block = run
        mean, scale, page, two_sided = self._setup
        stopped = False
        try:
            for x in values:
                if k == end:
                    run = self._open(k, x)
                    end, base, floor, block = run
                # x - x is 0.0 for a finite float and NaN otherwise
                if type(x) is not float or x - x != 0.0:
                    x = _number(x, k + 1)
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
                if stat >= floor:
                    if block is None:
                        block = _block(scale, self.params, base, end)
                        run = end, base, floor, block
                    if stat >= block[k - base]:
                        stopped = True
                        break
            # a non-finite Q(m, k) stays so: one check per call finds it
            if q - q != 0.0:
                raise ValidationError(f"Q(m, k) is non-finite at k = {k}")
            return stopped
        finally:
            # the threshold at k, from the block of run, formed once a call
            # ends in it
            if block is None:
                block = _block(scale, self.params, base, end)
                run = end, base, floor, block
            thresh = block[k - base]
            self.k, self.q, self.q_min, self.q_max = k, q, q_min, q_max
            self.stat, self.threshold = stat, thresh
            self._run = run

    def _open(self, k: int, x) -> tuple:
        """(end, base, floor, None) of the block that value k + 1, x, opens:
        its last and first index and the floor of the module docstring.
        Raises, in this order, once the horizon is reached and when x is
        not a finite number."""
        horizon = self.params.horizon
        if k == horizon:
            raise ValidationError(
                f"the horizon of {horizon} observations is reached")
        _number(x, k + 1)
        g = _boundary(self.params.m, k + 1.0, self.params.gamma)
        return min(k + CHUNK, horizon), k + 1, _floor(self._setup[1], g), None

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
