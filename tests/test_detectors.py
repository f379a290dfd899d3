import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pagecusum import (DegenerateTrainingError, Monitor, MonitoringParams,
                       TrainingSummary, ValidationError, boundary_g,
                       rng_stream, run_monitor, summarize_training)
from pagecusum import detectors
from pagecusum.datagen import CHUNK


def brute_force_q(train, stream, k):
    """Batch definition of Q(m, k), summed independently for each k."""
    m = len(train)
    return math.fsum(stream[:k]) - (k / m) * math.fsum(train)


Snapshot = namedtuple("Snapshot", "k q q_min q_max")


def snapshot(mon):
    return Snapshot(mon.k, mon.q, mon.q_min, mon.q_max)


def kernel_statistic(x, mean, side, detector):
    """The many-path kernel's (1, n) statistic over the whole stream x:
    partial_sums and chunk_statistic on one row, as one chunk."""
    q = detectors.partial_sums(np.array(x, dtype=float)[None, :],
                               np.array([mean]), 0.0)
    return detectors.chunk_statistic(q, np.zeros(1), np.zeros(1), side,
                                      detector)


def scan_oracle(train, stream, params, c):
    """(tau, stat, threshold) of the first crossing, or Nones: the many-path
    kernel and _thresholds on one row holding the stream up to the horizon,
    located by first_crossings."""
    training = summarize_training(train)
    x = np.asarray(stream, dtype=float)[:params.horizon]
    stat = kernel_statistic(x, training.mean, params.side, params.detector)
    thresh = detectors._thresholds(training.sigma_hat * c, params, 0, x.size)
    j = int(detectors.first_crossings(stat, thresh[None, :])[0])
    if j < 0:
        return None, None, None
    return j + 1, float(stat[0, j]), float(thresh[j])


def feed(stream, training):
    """Snapshots of a Monitor's state after each value of a stream, via its
    O(1) recursion (c is irrelevant to the state)."""
    params = MonitoringParams(m=training.m,
                              horizon_factor=len(stream) / training.m + 1.0)
    mon = Monitor(training, params, 1.0)
    states = []
    for x in stream:
        mon.update(x)
        states.append(snapshot(mon))
    return states


def monitor_stats(stream, training, detector, side):
    """Monitor.stat after each value of a stream, from one Monitor per
    (detector, side) (c is irrelevant to the statistic)."""
    params = MonitoringParams(m=training.m, detector=detector, side=side,
                              horizon_factor=len(stream) / training.m + 1.0)
    mon = Monitor(training, params, 1.0)
    out = []
    for x in stream:
        mon.update(x)
        out.append(mon.stat)
    return out


def trace(training, stream, params, c):
    """(k, statistic, threshold) of a Monitor at every step up to its stop,
    or up to the end of the stream."""
    mon = Monitor(training, params, c)
    triples = []
    for x in stream:
        stopped = mon.update(x)
        triples.append((mon.k, mon.stat, mon.threshold))
        if stopped:
            break
    return triples


class TestBoundary:
    def test_values(self):
        assert boundary_g(100, 100, 0.0) == pytest.approx(20.0, abs=1e-12)
        assert boundary_g(100, 50, 0.0) == pytest.approx(15.0, abs=1e-12)
        assert boundary_g(100, 100, 0.25) == pytest.approx(16.8179, abs=5e-5)

    def test_gamma_zero_identity(self):
        for m in (5, 64, 1000):
            k = np.arange(1, 300)
            expected = math.sqrt(m) + k / math.sqrt(m)
            assert np.allclose(boundary_g(m, k, 0.0), expected, rtol=1e-12)

    def test_strictly_increasing_in_k(self):
        for gamma in (0.0, 0.25, 0.45, 0.49):
            vals = boundary_g(50, np.arange(1, 5000), gamma)
            assert np.all(np.diff(vals) > 0)

    def test_scalar_k_has_the_bits_of_an_index_array(self):
        assert boundary_g(10, 273, 0.25) == \
            boundary_g(10, np.arange(1, 274), 0.25)[-1]
        for m in [*range(2, 300, 7), 10**5, 10**6]:
            for gamma in (0.0, 0.1, 0.25, 0.45, 0.49):
                for factor in (1, 3, 20):
                    K = factor * m
                    full = K <= 2 * 10**6
                    if full:
                        want = boundary_g(m, np.arange(1, K + 1), gamma)
                    for k in {1, 2, max(1, K // 3), K - 1, K}:
                        # longer horizons use the 1000 indices up to k, to
                        # keep memory small
                        lo = 1 if full else max(1, k - 999)
                        if not full:
                            want = boundary_g(m, np.arange(lo, k + 1), gamma)
                        assert boundary_g(m, k, gamma) == want[k - lo]
                        assert boundary_g(m, np.int64(k), gamma) == \
                            want[k - lo]

    def test_domain(self):
        with pytest.raises(ValidationError):
            boundary_g(100, 10, 0.5)
        with pytest.raises(ValidationError):
            boundary_g(100, 0, 0.25)


class TestTraining:
    def test_small_example(self):
        s = summarize_training([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.sigma_hat == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)

    def test_constant_data_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            summarize_training([3.0] * 10)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            summarize_training([1.0])

    @pytest.mark.parametrize("x", [
        pytest.param([1.0, 2.0, math.nan, 4.0], id="nan"),
        pytest.param([1.0, 2.0, math.inf, 4.0], id="inf"),
        pytest.param([1.0, 2.0, -math.inf, 4.0], id="-inf"),
        pytest.param([1e308, 1e308, 1.0], id="overflowing-mean"),
    ])
    def test_non_finite_rejected_not_reported_constant(self, x):
        with pytest.raises(ValidationError, match="non-finite") as info:
            summarize_training(x)
        assert not isinstance(info.value, DegenerateTrainingError)

    @pytest.mark.parametrize("x", [
        pytest.param([[1.0, 2.0], [3.0]], id="ragged"),
        pytest.param(["a", "b", "c"], id="strings"),
    ])
    def test_ragged_or_non_numeric_rejected(self, x):
        # numpy raises a bare ValueError on these
        with pytest.raises(ValidationError, match="not a number"):
            summarize_training(x)


class TestStepDetector:
    def test_tiny_examples(self):
        training = TrainingSummary(m=2, mean=0.0, sigma_hat=1.0)
        states = feed([1.0, -1.0], training)
        assert [s.q for s in states] == [1.0, 0.0]
        states = feed([-1.0, 2.0], training)
        assert states[-1].q_min == -1.0 and states[-1].q_max == 1.0

    def test_extremes_bracket_zero(self):
        training = TrainingSummary(m=4, mean=0.3, sigma_hat=1.0)
        rng = rng_stream(11, 0)
        for state in feed(rng.standard_normal(100), training):
            assert state.q_min <= 0.0 <= state.q_max
            assert state.q_min <= state.q <= state.q_max

    def test_recursion_matches_batch_definition(self):
        rng = rng_stream(42, 0)
        for trial in range(20):
            m = int(rng.integers(2, 40))
            n = int(rng.integers(1, 201))
            train = rng.standard_normal(m) + rng.uniform(-2, 2)
            stream = rng.standard_normal(n) + rng.uniform(-1, 1)
            training = summarize_training(train)
            states = feed(stream, training)
            qs = np.array([brute_force_q(train, stream, k)
                           for k in range(0, n + 1)])
            scale = max(1.0, np.max(np.abs(qs)))
            for k, state in enumerate(states, start=1):
                assert abs(state.q - qs[k]) <= 1e-9 * scale
                assert abs(state.q_min - qs[:k + 1].min()) <= 1e-9 * scale
                assert abs(state.q_max - qs[:k + 1].max()) <= 1e-9 * scale


class TestDetectorStat:
    def test_manual_state(self):
        training = TrainingSummary(m=10, mean=0.0, sigma_hat=1.0)
        state = feed([1.0, -2.0, 2.0], training)[-1]
        assert state == Snapshot(k=3, q=1.0, q_min=-1.0, q_max=1.0)
        expected = {("page", "one_sided"): 2.0, ("page", "two_sided"): 2.0,
                    ("ordinary", "one_sided"): 1.0,
                    ("ordinary", "two_sided"): 1.0}
        for (det, side), stat in expected.items():
            assert monitor_stats([1.0, -2.0, 2.0], training, det,
                                 side)[-1] == stat

    def test_zero_state(self):
        training = TrainingSummary(m=10, mean=0.0, sigma_hat=1.0)
        params = MonitoringParams(m=10)
        state = Monitor(training, params, 1.0)
        assert snapshot(state) == Snapshot(k=0, q=0.0, q_min=0.0, q_max=0.0)
        assert state.stat is None  # no statistic before the first value
        for det in ("page", "ordinary"):
            for side in ("one_sided", "two_sided"):
                assert monitor_stats([0.0], training, det, side) == [0.0]

    def test_two_sided_page_equals_exhaustive_oracle(self):
        rng = rng_stream(7, 0)
        training = TrainingSummary(m=5, mean=0.1, sigma_hat=1.0)
        for _ in range(50):
            n = int(rng.integers(1, 21))
            stream = rng.standard_normal(n)
            states = feed(stream, training)
            s2 = monitor_stats(stream, training, "page", "two_sided")
            qs = [0.0] + [s.q for s in states]
            for k, stat in enumerate(s2, start=1):
                oracle = max(abs(qs[k] - qs[i]) for i in range(k + 1))
                assert stat == pytest.approx(oracle, abs=1e-12)

    def test_per_step_orderings(self):
        rng = rng_stream(13, 0)
        training = TrainingSummary(m=8, mean=-0.2, sigma_hat=0.5)
        stream = rng.standard_normal(300)
        q_s1_s2 = zip(monitor_stats(stream, training, "ordinary", "one_sided"),
                      monitor_stats(stream, training, "page", "one_sided"),
                      monitor_stats(stream, training, "page", "two_sided"))
        for q, s1, s2 in q_s1_s2:
            assert s1 >= max(0.0, q)
            assert s2 >= abs(q)
            assert s2 >= s1


class TestRunMonitor:
    def make_data(self, seed, m=50, n=400, delta=0.0, kstar=1):
        rng = rng_stream(seed, 0)
        train = rng.standard_normal(m)
        stream = rng.standard_normal(n)
        if delta:
            stream[kstar - 1:] += delta
        return train, stream

    def test_huge_shift_stops_immediately(self):
        train, stream = self.make_data(1, delta=1e6)
        params = MonitoringParams(m=50, detector="ordinary")
        res = run_monitor(train, stream, params, c=1.645)
        assert res.stopped and res.tau == 1
        assert res.stat >= res.threshold

    def test_no_stop_within_horizon(self):
        train, stream = self.make_data(2)
        params = MonitoringParams(m=50, horizon_factor=4.0)
        res = run_monitor(train, stream, params, c=50.0)
        assert not res.stopped and res.tau is None

    def test_page_stops_no_later_than_ordinary_at_equal_c(self):
        for seed in range(10):
            train, stream = self.make_data(seed, delta=0.8, kstar=40)
            pp = MonitoringParams(m=50, detector="page", horizon_factor=8.0)
            po = MonitoringParams(m=50, detector="ordinary", horizon_factor=8.0)
            rp = run_monitor(train, stream, pp, c=2.0)
            ro = run_monitor(train, stream, po, c=2.0)
            if ro.stopped:
                assert rp.stopped and rp.tau <= ro.tau

    def test_shift_invariance(self):
        train, stream = self.make_data(3, delta=1.0, kstar=10)
        params = MonitoringParams(m=50, detector="page")
        base = run_monitor(train, stream, params, c=1.7)
        shifted = run_monitor(train + 5.0, stream + 5.0, params, c=1.7)
        assert base.tau == shifted.tau and base.stopped == shifted.stopped

    def test_scale_equivariance_powers_of_two(self):
        # power-of-two factors scale every float op exactly, so tau must
        # match bit for bit
        train, stream = self.make_data(4, delta=0.7, kstar=20)
        for lam in (2.0, 0.5, 1024.0):
            for det in ("page", "ordinary"):
                params = MonitoringParams(m=50, detector=det, horizon_factor=8.0)
                base = run_monitor(train, stream, params, c=1.9)
                scaled = run_monitor(lam * train, lam * stream, params, c=1.9)
                assert base.tau == scaled.tau

    def test_vectorized_and_online_paths_agree(self):
        for seed in (5, 6, 7):
            train, stream = self.make_data(seed, delta=0.5, kstar=30)
            for det in ("page", "ordinary"):
                for side in ("one_sided", "two_sided"):
                    params = MonitoringParams(m=50, detector=det, side=side,
                                              horizon_factor=8.0)
                    vec = run_monitor(train, stream, params, c=1.8)
                    gen = run_monitor(train, iter(stream.tolist()), params,
                                      c=1.8)
                    assert vec.tau == gen.tau
                    assert vec.stopped == gen.stopped
                    if vec.stopped:
                        assert vec.stat == gen.stat
                    want = scan_oracle(train, stream, params, 1.8)
                    for s in (stream, stream.tolist(),
                              iter(stream.tolist())):
                        res = run_monitor(train, s, params, c=1.8)
                        assert (res.tau, res.stat, res.threshold) == want

    def test_record_path(self):
        train, stream = self.make_data(8, delta=2.0, kstar=5)
        params = MonitoringParams(m=50, detector="page")
        res = run_monitor(train, stream, params, c=1.7)
        path = trace(train, stream, params, 1.7)
        assert res.stopped
        assert len(path) == res.tau
        k, stat, thr = path[-1]
        assert k == res.tau and stat >= thr

    def test_lazy_thresholds_equal_the_vectorized_schedule(self):
        rng = rng_stream(21, 0)
        train = rng.standard_normal(1000)
        stream = rng.standard_normal(3000)
        params = MonitoringParams(m=1000, gamma=0.25, horizon_factor=3.0)
        res = run_monitor(train, iter(stream.tolist()), params, c=50.0)
        path = trace(train, stream.tolist(), params, 50.0)
        assert not res.stopped
        sigma_hat = summarize_training(train).sigma_hat
        expected = sigma_hat * 50.0 * boundary_g(1000, np.arange(1, 3001),
                                                 0.25)
        assert [thr for _, _, thr in path] == expected.tolist()

    def test_lazy_run_evaluates_the_boundary_once_per_chunk(self,
                                                            boundary_calls):
        train, _ = self.make_data(15)
        params = MonitoringParams(m=50, horizon_factor=30.0)
        stream = rng_stream(15, 1).standard_normal(params.horizon)
        res = run_monitor(train, iter(stream.tolist()), params, c=100.0)
        assert not res.stopped
        assert len(boundary_calls) <= math.ceil(params.horizon / CHUNK)
        assert sum(boundary_calls) == params.horizon

    def test_materialized_stream_computes_thresholds_up_to_tau_only(
            self, boundary_calls):
        train, _ = self.make_data(15)
        params = MonitoringParams(m=50, horizon_factor=30.0)
        stream = rng_stream(15, 1).standard_normal(params.horizon) + 1e6
        res = run_monitor(train, stream, params, c=1.7)
        assert params.horizon == 1500 and res.tau == 1
        assert boundary_calls == [CHUNK]

    def test_generator_consumed_lazily_up_to_horizon(self):
        train, _ = self.make_data(9)
        params = MonitoringParams(m=50, horizon_factor=1.0)
        seen = []

        def gen():
            i = 0.0
            while True:
                seen.append(i)
                yield 0.001 * math.sin(i)
                i += 1.0

        res = run_monitor(train, gen(), params, c=100.0)
        assert not res.stopped
        assert len(seen) == params.horizon

    def test_generator_consumed_lazily_up_to_tau(self):
        train, stream = self.make_data(17, delta=1.5, kstar=60)
        seen = []

        def gen():
            for v in stream.tolist():
                seen.append(v)
                yield v

        for det in ("page", "ordinary"):
            seen.clear()
            params = MonitoringParams(m=50, detector=det, horizon_factor=8.0)
            res = run_monitor(train, gen(), params, c=1.8)
            assert res.stopped and 60 <= res.tau < stream.size
            assert len(seen) == res.tau
            assert res.tau == run_monitor(train, stream, params, c=1.8).tau

    def test_empty_stream_rejected(self):
        train, _ = self.make_data(10)
        params = MonitoringParams(m=50)
        with pytest.raises(ValidationError):
            run_monitor(train, [], params, c=1.0)

    @pytest.mark.parametrize("stream", [np.zeros((3, 40)),
                                        [[0.1, 0.2], [0.3, 0.4]],
                                        np.array(5.0)])
    def test_stream_that_is_not_one_dimensional_rejected(self, stream):
        train, _ = self.make_data(10)
        with pytest.raises(ValidationError, match="one-dimensional"):
            run_monitor(train, stream, MonitoringParams(m=50), c=1.0)

    @pytest.mark.parametrize("bad", [
        pytest.param([[0.1, 0.2], [0.3]], id="ragged"),
        pytest.param(["a", "b", "c"], id="strings"),
    ])
    def test_ragged_or_non_numeric_input_rejected(self, bad):
        train, stream = self.make_data(10)
        params = MonitoringParams(m=50)
        for args in ((train, bad), (bad, stream), (train, iter([0.1, *bad]))):
            with pytest.raises(ValidationError, match="not a number"):
                run_monitor(*args, params, c=1.0)

    def test_training_length_must_match_params(self):
        train, stream = self.make_data(11)
        with pytest.raises(ValidationError):
            run_monitor(train, stream, MonitoringParams(m=49), c=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_training_rejected(self, bad):
        train, stream = self.make_data(12)
        train[7] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            run_monitor(train, stream, MonitoringParams(m=50), c=1.7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_array_stream_rejected(self, bad):
        # a NaN never crosses the threshold, so it must not pass silently
        train, stream = self.make_data(13)
        stream[99] = bad
        params = MonitoringParams(m=50, detector="page")
        with pytest.raises(ValidationError, match="non-finite"):
            run_monitor(train, stream, params, c=50.0)
        # values past the horizon are never read
        short = MonitoringParams(m=50, horizon_factor=1.0)
        assert not run_monitor(train, stream, short, c=50.0).stopped

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lazy_stream_rejected_when_read(self, bad):
        train, stream = self.make_data(14)
        values = stream.tolist()
        values[99] = bad
        seen = []

        def gen():
            for v in values:
                seen.append(v)
                yield v

        params = MonitoringParams(m=50, detector="ordinary")
        with pytest.raises(ValidationError, match="value 100 is not finite"):
            run_monitor(train, gen(), params, c=50.0)
        assert len(seen) == 100

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_non_finite_critical_value_rejected(self, c):
        # an infinite threshold would never be crossed
        train, stream = self.make_data(16, delta=1e6)
        params = MonitoringParams(m=50)
        for s in (stream, iter(stream.tolist())):
            with pytest.raises(ValidationError, match="critical value"):
                run_monitor(train, s, params, c)

    def test_degenerate_training_propagates(self):
        params = MonitoringParams(m=5)
        with pytest.raises(DegenerateTrainingError):
            run_monitor([1.0] * 5, [1.0, 2.0], params, c=1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60),
       offset=st.sampled_from([0.0, 1.0, -1e4, 1e8]),
       scale=st.floats(1e-3, 1e4), shift=st.floats(0.0, 3.0),
       kstar=st.integers(1, 50), gamma=st.sampled_from([0.0, 0.25, 0.45]),
       detector=st.sampled_from(["page", "ordinary"]),
       side=st.sampled_from(["one_sided", "two_sided"]))
def test_array_and_lazy_paths_agree_bitwise(seed, m, offset, scale, shift,
                                            kstar, gamma, detector, side):
    """run_monitor on an ndarray, a list and an iterator adds Q(m, k) in
    partial_sums' order and shares _thresholds' schedule, so each stops at
    the many-path kernel's tau with the same stat and threshold bits,
    whatever the offset and scale."""
    rng = rng_stream(seed, 0)
    train = offset + scale * rng.standard_normal(m)
    stream = offset + scale * rng.standard_normal(4 * m)
    stream[kstar - 1:] += shift * scale
    params = MonitoringParams(m=m, gamma=gamma, detector=detector, side=side,
                              horizon_factor=4.0)
    vec = run_monitor(train, stream, params, c=1.7)
    lazy = run_monitor(train, iter(stream.tolist()), params, c=1.7)
    assert vec.tau == lazy.tau
    assert vec.stat == lazy.stat
    if vec.stopped:
        assert vec.threshold == lazy.threshold
    want = scan_oracle(train, stream, params, 1.7)
    for s in (stream, stream.tolist(), iter(stream.tolist())):
        res = run_monitor(train, s, params, c=1.7)
        assert (res.tau, res.stat, res.threshold) == want


class TestMonitor:
    def make(self, m=10, horizon_factor=1.0, **kw):
        train = rng_stream(31, 0).standard_normal(m)
        params = MonitoringParams(m=m, horizon_factor=horizon_factor, **kw)
        return Monitor(train, params, 1.7), params

    @pytest.mark.parametrize("m, horizon_factor", [(10, 1.0), (7, 1.5),
                                                   (CHUNK // 2, 2.0)])
    def test_update_past_the_horizon_raises(self, m, horizon_factor):
        mon, params = self.make(m, horizon_factor)
        values = rng_stream(32, 0).standard_normal(params.horizon).tolist()
        for x in values:
            mon.update(x)
        before = snapshot(mon)
        assert before.k == params.horizon
        with pytest.raises(ValidationError, match="horizon"):
            mon.update(0.0)
        assert snapshot(mon) == before

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises_with_its_index(self, bad):
        mon, _ = self.make()
        for x in (0.5, -1.0, 2.0):
            mon.update(x)
        before = snapshot(mon), mon.stat, mon.threshold
        with pytest.raises(ValidationError, match="value 4 is not finite"):
            mon.update(bad)
        assert (snapshot(mon), mon.stat, mon.threshold) == before
        mon.update(0.25)
        assert mon.k == 4

    def test_rejects_bad_construction(self):
        train = rng_stream(33, 0).standard_normal(10)
        with pytest.raises(ValidationError):
            Monitor(train, MonitoringParams(m=10), 0.0)
        with pytest.raises(ValidationError):
            Monitor(train, MonitoringParams(m=11), 1.7)
        with pytest.raises(DegenerateTrainingError):
            Monitor([1.0] * 10, MonitoringParams(m=10), 1.7)

    def test_overflowing_threshold_is_rejected(self):
        # sigma_hat * c * g(m, k) overflows at k = 1, as a study's would
        train = rng_stream(33, 0).standard_normal(10)
        params = MonitoringParams(m=10)
        msg = f"threshold is non-finite at k = {min(CHUNK, params.horizon)}$"
        with pytest.raises(ValidationError, match=msg):
            run_monitor(train, [0.0], params, 1e308)
        mon = Monitor(train, params, 1e308)
        with pytest.raises(ValidationError, match=msg):
            mon.update(0.0)
        assert mon.k == 0 and mon.threshold is None

    @pytest.mark.parametrize("stream, detector, first", [
        # Q(m, 1) overflows to +inf, which would read as a stop at k = 1
        ([1e308], "ordinary", 1),
        # Q(m, 2) overflows to -inf, the page statistic turns NaN and
        # would never cross
        ([-1.7e308, -1.7e308, 1.0], "page", 2)])
    def test_non_finite_q_raises_not_stops(self, stream, detector, first):
        training = TrainingSummary(m=2, mean=-1e308 if first == 1 else 0.0,
                                   sigma_hat=1.0)
        params = MonitoringParams(m=2, horizon_factor=5.0, detector=detector)
        # a feed reports the k it ends at, update the first non-finite k
        msg = rf"Q\(m, k\) is non-finite at k = {len(stream)}$"
        for s in (stream, iter(stream)):
            with pytest.raises(ValidationError, match=msg):
                run_monitor(training, s, params, 1.0)
        mon = Monitor(training, params, 1.0)
        for x in stream[:first - 1]:
            mon.update(x)
        with pytest.raises(ValidationError, match=f"at k = {first}$"):
            mon.update(stream[first - 1])
        assert mon.k == first and not math.isfinite(mon.q)


    @pytest.mark.parametrize("c", [1.7, 100.0])
    def test_record_path_is_the_monitors_triples(self, c):
        rng = rng_stream(34, 0)
        train = rng.standard_normal(50)
        stream = rng.standard_normal(600)
        stream[300:] += 1.5
        params = MonitoringParams(m=50, gamma=0.25, horizon_factor=12.0)
        triples = trace(train, stream.tolist(), params, c)
        for s in (stream, iter(stream.tolist())):
            res = run_monitor(train, s, params, c)
            assert res.stopped == (c == 1.7)
            if res.stopped:
                assert (res.tau, res.stat, res.threshold) == triples[-1]
            else:
                assert len(triples) == params.horizon == stream.size


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60),
       n=st.integers(1, 2 * CHUNK + 40),
       offset=st.sampled_from([0.0, 1.0, -1e4, 1e8]),
       scale=st.floats(1e-3, 1e4), shift=st.floats(0.0, 3.0),
       kstar=st.integers(1, CHUNK + 40),
       gamma=st.sampled_from([0.0, 0.25, 0.45]),
       detector=st.sampled_from(["page", "ordinary"]),
       side=st.sampled_from(["one_sided", "two_sided"]))
@example(seed=5, m=2, n=CHUNK + 1, offset=1e8, scale=1e-3, shift=1.0,
         kstar=CHUNK, gamma=0.45, detector="page", side="two_sided")
def test_monitor_matches_the_array_kernel_at_every_step(
        seed, m, n, offset, scale, shift, kstar, gamma, detector, side):
    """Monitor.update gives the kernel's statistic and _thresholds' threshold
    at every k, bit for bit, across CHUNK edges and at any offset or scale."""
    rng = rng_stream(seed, 0)
    train = offset + scale * rng.standard_normal(m)
    stream = offset + scale * rng.standard_normal(n)
    stream[kstar - 1:] += shift * scale
    params = MonitoringParams(m=m, gamma=gamma, detector=detector, side=side,
                              horizon_factor=n / m + 1.0)
    training = summarize_training(train)
    stat = kernel_statistic(stream, training.mean, side, detector)
    thresh = detectors._thresholds(training.sigma_hat * 1.7, params, 0, n)
    mon = Monitor(training, params, 1.7)
    got_stat, got_thresh = [], []
    for x in stream.tolist():
        mon.update(x)
        got_stat.append(mon.stat)
        got_thresh.append(mon.threshold)
    assert got_stat == stat[0].tolist()
    assert got_thresh == thresh.tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60),
       offset=st.sampled_from([0.0, 1.0, -1e4, 1e8]),
       scale=st.floats(1e-3, 1e4), shift=st.floats(0.0, 3.0),
       kstar=st.integers(1, 100), c=st.floats(0.5, 3.0),
       gamma=st.sampled_from([0.0, 0.25, 0.45]),
       side=st.sampled_from(["one_sided", "two_sided"]))
def test_page_statistic_dominates_ordinary_at_every_step(
        seed, m, offset, scale, shift, kstar, c, gamma, side):
    """Fed one stream, the page statistic is >= the ordinary one at every k
    under the same threshold, so page stops no later whenever ordinary
    stops."""
    rng = rng_stream(seed, 0)
    train = offset + scale * rng.standard_normal(m)
    stream = offset + scale * rng.standard_normal(4 * m + 100)
    stream[kstar - 1:] += shift * scale
    mons = {det: Monitor(train, MonitoringParams(
                m=m, gamma=gamma, side=side, detector=det,
                horizon_factor=stream.size / m), c)
            for det in ("page", "ordinary")}
    tau = dict.fromkeys(mons)
    for k, x in enumerate(stream.tolist(), start=1):
        for det, mon in mons.items():
            if mon.update(x) and tau[det] is None:
                tau[det] = k
        assert mons["page"].stat >= mons["ordinary"].stat
        assert mons["page"].threshold == mons["ordinary"].threshold
    if tau["ordinary"] is not None:
        assert tau["page"] is not None and tau["page"] <= tau["ordinary"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60),
       j=st.integers(-30, 30), shift=st.floats(0.0, 3.0),
       kstar=st.integers(1, 100), gamma=st.sampled_from([0.0, 0.25, 0.45]),
       detector=st.sampled_from(["page", "ordinary"]),
       side=st.sampled_from(["one_sided", "two_sided"]))
def test_power_of_two_scaling_scales_stat_and_threshold_exactly(
        seed, m, j, shift, kstar, gamma, detector, side):
    """Scaling training and stream by 2**j scales the mean, sigma_hat and
    every partial sum exactly, so tau is unchanged and the statistic and
    threshold at every k are scaled by exactly 2**j."""
    rng = rng_stream(seed, 0)
    train = rng.standard_normal(m)
    stream = rng.standard_normal(4 * m)
    stream[kstar - 1:] += shift
    params = MonitoringParams(m=m, gamma=gamma, detector=detector, side=side,
                              horizon_factor=4.0)
    scale = 2.0 ** j
    base = trace(train, stream, params, 1.7)
    assert trace(scale * train, scale * stream, params, 1.7) == \
        [(k, scale * stat, scale * thr) for k, stat, thr in base]
    res = run_monitor(train, stream, params, 1.7)
    scaled = run_monitor(scale * train, scale * stream, params, 1.7)
    assert scaled.tau == res.tau
    if res.stopped:
        assert scaled.stat == scale * res.stat
        assert scaled.threshold == scale * res.threshold


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40),
       n=st.integers(1, 2 * CHUNK + 40), c=st.sampled_from([0.3, 1.7, 100.0]),
       shift=st.floats(0.0, 3.0), kstar=st.integers(1, CHUNK + 40),
       gamma=st.sampled_from([0.0, 0.25, 0.45]),
       detector=st.sampled_from(["page", "ordinary"]),
       side=st.sampled_from(["one_sided", "two_sided"]), data=st.data())
def test_feed_and_update_in_any_split_match_the_array_kernel(
        seed, m, n, c, shift, kstar, gamma, detector, side, data):
    """A stream split at random points between feed calls (on lists and on
    iterators) and single update calls leaves the Monitor, after every call,
    in the kernel's and _thresholds' state at its k, bit for bit. Each feed
    stops right after the first crossing and the next call resumes there. A
    non-finite value inside a batch raises with its index and leaves the
    state of the value before it."""
    rng = rng_stream(seed, 0)
    train = rng.standard_normal(m)
    stream = rng.standard_normal(n)
    stream[kstar - 1:] += shift
    params = MonitoringParams(m=m, gamma=gamma, detector=detector, side=side,
                              horizon_factor=n / m + 1.0)
    training = summarize_training(train)
    stat = kernel_statistic(stream, training.mean, side, detector)
    thresh = detectors._thresholds(training.sigma_hat * c, params, 0, n)
    q = np.cumsum(stream - training.mean)
    want = [(0, 0.0, 0.0, 0.0, None, None)] + list(zip(
        range(1, n + 1), q.tolist(),
        np.minimum.accumulate(np.minimum(q, 0.0)).tolist(),
        np.maximum.accumulate(np.maximum(q, 0.0)).tolist(),
        stat[0].tolist(), thresh.tolist()))
    crossed = (stat[0] >= thresh).tolist()

    def state(mon):
        return (mon.k, mon.q, mon.q_min, mon.q_max, mon.stat, mon.threshold)

    values = stream.tolist()
    mon = Monitor(training, params, c)
    for _ in range(data.draw(st.integers(0, 12))):
        k = mon.k
        kind = data.draw(st.sampled_from(["list", "iter", "update"]))
        if kind == "update":
            if k == n:
                break
            assert mon.update(values[k]) == crossed[k]
            assert state(mon) == want[k + 1]
            continue
        size = data.draw(st.integers(0, n - k))
        piece = values[k:k + size]
        first = next((j for j in range(size) if crossed[k + j]), None)
        used = size if first is None else first + 1
        bad = data.draw(st.none() | st.integers(0, size))
        if bad is not None:
            piece.insert(bad, data.draw(st.sampled_from(
                [math.nan, math.inf, -math.inf])))
        it = iter(piece)
        if bad is not None and (first is None or bad <= first):
            with pytest.raises(ValidationError,
                               match=f"value {k + bad + 1} is not finite"):
                mon.feed(piece if kind == "list" else it)
            used = bad
        else:
            assert mon.feed(piece if kind == "list" else it) == (
                first is not None)
            if kind == "iter":
                # nothing after the crossing value was pulled
                assert len(list(it)) == len(piece) - used
        assert state(mon) == want[k + used]
    # the rest in feed calls on one iterator, resuming after every stop
    it = iter(values[mon.k:])
    while mon.feed(it):
        assert crossed[mon.k - 1] and state(mon) == want[mon.k]

    whole = Monitor(training, params, c)
    it = iter(values)
    while whole.feed(it):
        assert state(whole) == want[whole.k]
    assert state(whole) == state(mon) == want[n]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60),
       offset=st.floats(-1e3, 1e3), shift=st.floats(0.0, 3.0),
       kstar=st.integers(1, 100), gamma=st.sampled_from([0.0, 0.25, 0.45]),
       detector=st.sampled_from(["page", "ordinary"]),
       side=st.sampled_from(["one_sided", "two_sided"]))
def test_adding_a_constant_keeps_tau_without_near_ties(
        seed, m, offset, shift, kstar, gamma, detector, side):
    """Adding one constant to training and stream cancels in x - mean up to
    rounding, so tau is unchanged whenever no step of the unshifted run has
    its statistic within 1e-9 * threshold of the threshold."""
    rng = rng_stream(seed, 0)
    train = rng.standard_normal(m)
    stream = rng.standard_normal(4 * m)
    stream[kstar - 1:] += shift
    params = MonitoringParams(m=m, gamma=gamma, detector=detector, side=side,
                              horizon_factor=4.0)
    base = trace(train, stream, params, 1.7)
    assume(all(abs(stat - thr) > 1e-9 * thr for _, stat, thr in base))
    res = run_monitor(train, stream, params, 1.7)
    moved = stream + offset
    for s in (moved, iter(moved.tolist())):
        assert run_monitor(train + offset, s, params, 1.7).tau == res.tau
