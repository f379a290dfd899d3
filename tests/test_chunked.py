"""Properties of chunked generation and the carried-state scan.

Replication studies and size runs generate GARCH data and scan it CHUNK
steps at a time, and draw each path only up to the chunk where it has
decided. These properties pin that the pieces reproduce one-shot
generation and the per-replication monitor exactly, wherever the chunk
edges fall and however the block narrows, that the chunk bound skips the
exact scan only where no path can cross, that a study draws each path
exactly up to its stop, and that non-finite training or stream values
raise where they would otherwise read as a path that never stops.
"""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from garch_loop import generate_garch11
from pagecusum import (ChangeScenario, Garch11Spec, Monitor,
                       MonitoringParams, ValidationError, boundary_g,
                       empirical_size, experiments, location_paths,
                       rng_stream, run_monitor, run_replications)
from pagecusum.datagen import CHUNK, GarchCarry, generate_garch11_batch
from pagecusum.detectors import (chunk_statistic, first_crossings, first_stops,
                                 partial_sums)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

specs = st.builds(
    Garch11Spec,
    omega=st.floats(0.1, 4.0),
    alpha_g=st.floats(0.0, 0.45),
    beta_g=st.floats(0.0, 0.5),
    burn_in=st.sampled_from([0, 1, 37, 500]))


@SETTINGS
@given(spec=specs, n_paths=st.integers(1, 5), seed=st.integers(0, 2**32),
       first_stream=st.integers(0, 1000),
       cuts=st.lists(st.integers(1, 2 * CHUNK + 3), min_size=1, max_size=5))
def test_chunked_generation_equals_one_call(spec, n_paths, seed, first_stream,
                                            cuts):
    carry = GarchCarry()
    pieces = [generate_garch11_batch(spec, cuts[0], n_paths, seed,
                                     first_stream, carry)]
    rest = replace(spec, burn_in=0)
    pieces += [generate_garch11_batch(rest, n, n_paths, seed, first_stream,
                                      carry) for n in cuts[1:]]
    chunked = np.concatenate(pieces, axis=1)
    n = sum(cuts)
    assert np.array_equal(chunked, generate_garch11_batch(
        spec, n, n_paths, seed, first_stream))
    for i in range(n_paths):
        single = generate_garch11(spec, n, rng_stream(seed, first_stream + i))
        assert np.array_equal(chunked[i], single)


@SETTINGS
@given(spec=specs, count=st.integers(2, 6), seed=st.integers(0, 2**32),
       start=st.integers(0, 1000), m=st.sampled_from([2, 37, 600]),
       length=st.integers(1, 3 * CHUNK + 5), kstar=st.integers(1, 1000),
       data=st.data())
def test_narrowed_paths_keep_their_values(spec, count, seed, start, m,
                                          length, kstar, data):
    # sending positions narrows the block; each remaining path goes on
    # with the values it has in the whole block
    args = (spec, 0.3, ChangeScenario.at_kstar(1.5, kstar), m, length, seed,
            start, count)
    whole = np.concatenate(list(location_paths(*args)), axis=1)
    rows, col = np.arange(count), 0
    paths = location_paths(*args)
    x = next(paths)
    while True:
        assert np.array_equal(x, whole[rows, col:col + x.shape[1]])
        col += x.shape[1]
        kept = data.draw(st.lists(st.booleans(), min_size=rows.size,
                                  max_size=rows.size).filter(any))
        keep = np.flatnonzero(kept)
        rows = rows[keep]
        try:
            x = paths.send(keep)
        except StopIteration:
            break
    assert col == m + length


def test_started_carry_refuses_a_burn_in_and_keeps_its_streams():
    # burn-in drawn mid-stream would break the concatenation; seed and
    # first_stream are ignored once the carry holds the streams
    spec = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3, burn_in=50)
    carry = GarchCarry()
    head = generate_garch11_batch(spec, 10, 2, 1, carry=carry)
    with pytest.raises(ValidationError, match="burn_in=0"):
        generate_garch11_batch(spec, 10, 2, 1, carry=carry)
    tail = generate_garch11_batch(replace(spec, burn_in=0), 10, 2, 99,
                                  first_stream=7, carry=carry)
    assert np.array_equal(np.concatenate([head, tail], axis=1),
                          generate_garch11_batch(spec, 20, 2, 1))


def sent_pieces(y, widths, drawn=None):
    """A producer for first_stops, started as location_paths is after its
    training: y's columns in pieces of the given widths, each piece cut to
    the rows sent for it (positions among the rows of the piece before).
    drawn, a list, gets each piece's (first column, rows)."""
    def pieces():
        rows, k = np.arange(y.shape[0]), 0
        keep = yield  # where location_paths yields the training
        for n in widths:
            rows = rows[keep]
            if drawn is not None:
                drawn.append((k, rows.tolist()))
            keep = yield y[rows, k:k + n].copy()
            k += n
    gen = pieces()
    next(gen)
    return gen


@SETTINGS
@given(data=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
       mean=st.floats(-10.0, 10.0),
       cuts=st.lists(st.integers(1, 7), min_size=1, max_size=8),
       side=st.sampled_from(["one_sided", "two_sided"]))
def test_chunked_scan_equals_one_chunk(data, mean, cuts, side):
    y = np.array(data)[None, :]
    mean, sd = np.array([mean]), np.ones(1)
    # critical values from "most steps cross" to "none does"
    rules = [(d, c) for d in ("page", "ordinary")
             for c in (1e-3, 0.5, 5.0, 50.0, 1e4)]
    params = MonitoringParams(m=10, gamma=0.25, side=side)
    whole = first_stops(sent_pieces(y, [y.shape[1]]), mean, sd, rules,
                        params, 0)
    widths, k = [], 0
    for n in cuts + [y.shape[1]]:
        if k >= y.shape[1]:
            break
        widths.append(min(n, y.shape[1] - k))
        k += n
    parts = first_stops(sent_pieces(y, widths), mean, sd, rules, params, 0)
    for got, want in zip(parts, whole):
        assert np.array_equal(got, want)


def oracle_bound(lo, hi, q_min, q_max, side, detector):
    """The chunk bound written out for each detector and side."""
    if detector == "ordinary":
        return np.maximum(hi, -lo) if side == "two_sided" else hi
    bound = hi - q_min
    return np.maximum(bound, q_max - lo) if side == "two_sided" else bound


q_values = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf]),
    st.floats(allow_nan=False))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.lists(q_values, min_size=1, max_size=6),
                               q_values, q_values), min_size=1, max_size=5),
       side=st.sampled_from(["one_sided", "two_sided"]),
       detector=st.sampled_from(["page", "ordinary"]))
def test_chunk_bound_is_the_statistic_at_the_chunk_extremes(rows, side,
                                                            detector):
    # first_stops' bound: chunk_statistic on [hi, lo] with the running
    # extremes after the chunk. It equals the written-out bound on finite
    # extremes (up to the sign of a zero, which no comparison sees) and is
    # never below a statistic of the chunk
    width = max(len(q) for q, _, _ in rows)
    q = np.array([q + q[-1:] * (width - len(q)) for q, _, _ in rows])
    before_min = np.array([min(a, 0.0) for _, a, _ in rows])
    before_max = np.array([max(b, 0.0) for _, _, b in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = q.min(axis=1), q.max(axis=1)
        q_min, q_max = np.minimum(before_min, lo), np.maximum(before_max, hi)
        bound = chunk_statistic(np.stack([hi, lo], axis=1), q_min, q_max,
                                side, detector).max(axis=1)
        want = oracle_bound(lo, hi, q_min, q_max, side, detector)
        stat = chunk_statistic(q, before_min, before_max, side, detector)
    finite = np.isfinite(np.stack([lo, hi, q_min, q_max])).all(axis=0)
    assert np.array_equal(bound[finite], want[finite])
    assert not (bound[:, None] < stat).any()


@pytest.mark.parametrize("side", ["one_sided", "two_sided"])
@pytest.mark.parametrize("detector", ["page", "ordinary"])
def test_a_nan_bound_is_scanned_not_skipped(detector, side):
    # Q(m, k) is 5, -1.7e308, -inf: the page bounds take -inf - -inf, a
    # NaN, yet the path crosses at k = 1, before Q(m, k) turns non-finite
    y = np.array([[5.0, -1.7e308, -1.7e308]])
    params = MonitoringParams(m=2, side=side, detector=detector)
    [tau] = first_stops(sent_pieces(y, [3]), np.zeros(1), np.ones(1),
                        [(detector, 1.0)], params, 0)
    assert tau.tolist() == [1]


def test_scan_draws_no_chunk_after_every_path_stops():
    # every live path crosses on its first step, so one chunk decides them
    # all; a dead path (sd 0) is never drawn, and does not keep the scan
    # drawing
    drawn = []
    rules = [(d, 1.0) for d in ("page", "ordinary")]
    sd = np.array([1.0, 0.0, 1.0])
    taus = first_stops(sent_pieces(np.full((3, 4 * CHUNK), 1e3), [CHUNK] * 4,
                                   drawn),
                       np.zeros(3), sd, rules, MonitoringParams(m=50), 0)
    assert drawn == [(0, [0, 2])]
    for tau in taus:
        assert tau.tolist() == [1, 0, 1]


@pytest.mark.parametrize("mean, sd, bad", [
    ([0.0, np.nan, 0.0], [0.0, 1.0, 1.0], 1),
    ([0.0, 0.0, -np.inf], [0.0, 1.0, 1.0], 2),
    # sd * c * g(m, horizon) overflows, with g(50, 1000) about 148
    ([0.0, 0.0, 0.0], [0.0, 1.0, 1e307], 2),
])
def test_a_non_finite_mean_or_horizon_threshold_is_named(mean, sd, bad):
    # path 0 is dead (sd 0), and the error names the bad path, first + bad,
    # before any chunk is drawn
    drawn = []
    chunks = sent_pieces(np.zeros((3, CHUNK)), [CHUNK], drawn)
    with pytest.raises(ValidationError, match=f"^replication {7 + bad}: "
                       "training mean, sd or threshold is non-finite$"):
        first_stops(chunks, np.array(mean), np.array(sd),
                    [("page", 1.0), ("ordinary", 1.0)],
                    MonitoringParams(m=50), 7)
    assert drawn == []


GARCH = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3, burn_in=20)


def test_a_stream_piece_costs_little_beyond_its_output():
    # generate_garch11_batch holds one time-major copy of a piece beside its
    # output, and partial_sums sums in the piece's own array; numpy reports
    # its buffers to tracemalloc
    spec = replace(GARCH, burn_in=0)
    generate_garch11_batch(spec, 8, 2, 0)  # imports Philox before measuring
    tracemalloc.start()
    try:
        x = generate_garch11_batch(spec, CHUNK, 250, 1)
        assert tracemalloc.get_traced_memory()[1] < 2.5 * x.nbytes
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        partial_sums(x, np.zeros(250), np.zeros(250))
        assert tracemalloc.get_traced_memory()[1] - before < x.nbytes / 4
    finally:
        tracemalloc.stop()


def test_a_study_holds_one_training_piece_at_a_time():
    # the training is drawn and summarized CHUNK columns at a time, so a
    # replication's memory does not grow with m: a (50, 20000) training
    # block alone would take 8 MB
    count, m = 50, 20_000
    params = MonitoringParams(m=m, horizon_factor=0.01)
    generate_garch11_batch(GARCH, 8, 2, 0)  # imports Philox before measuring
    tracemalloc.start()
    try:
        experiments._block_taus(params, GARCH, 0.0, 3, 0, count,
                                (("page", 1.7),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * count * (GARCH.burn_in + CHUNK) * 8


M = 40


def study_boundary_calls(calls, c_page, c_q, horizon_factor):
    """Sorted sizes of the g(m, k) evaluations of a study in which every
    path stops at k = 1 under a c below 2 and no statistic reaches its
    floor under c = 1e6; each rule's taus are checked."""
    params = MonitoringParams(m=M, gamma=0.25, horizon_factor=horizon_factor)
    recs = run_replications(params, ChangeScenario.at_kstar(50.0, 1), GARCH,
                            8, c_page, c_q, seed=2)
    for r in recs:
        assert (r.tau_page, r.tau_q) == (1 if c_page < 2 else None,
                                         1 if c_q < 2 else None)
    return sorted(calls)


def test_study_computes_g_only_on_the_chunks_it_scans(boundary_calls):
    # every path stops at k = 1, so g(m, k) is evaluated on the top index of
    # the up-front check, once on the first index of the first chunk for the
    # floors of both rules and once on that chunk for the thresholds of
    # both, never on the whole horizon
    assert MonitoringParams(m=M, horizon_factor=40.0).horizon > 3 * CHUNK
    assert study_boundary_calls(boundary_calls, 1.9, 1.8, 40.0) == \
        [1, 1, CHUNK]


@pytest.mark.parametrize("c_page, c_q", [(1e6, 1.8), (1.9, 1e6)])
def test_a_chunk_that_one_rule_scans_forms_g_once(boundary_calls, c_page,
                                                  c_q):
    # the rule with c = 1e6 never scans, and the horizon of 400 ends the
    # study in the first chunk: one floor g and one chunk g, whichever of
    # the two rules scans
    assert study_boundary_calls(boundary_calls, c_page, c_q, 10.0) == \
        [1, 1, 400]


@st.composite
def change_points(draw):
    """(horizon_factor, kstar): the change before the first chunk edge,
    exactly on a chunk edge, or past the horizon."""
    horizon_factor = draw(st.sampled_from([13.0, 14.1, 27.3]))
    horizon = MonitoringParams(m=M, horizon_factor=horizon_factor).horizon
    case = draw(st.sampled_from(["before_edge", "on_edge", "past_horizon"]))
    if case == "before_edge":
        kstar = draw(st.integers(1, CHUNK - 1))
    elif case == "on_edge":
        # the shift starts on the last step of a chunk or the first of the next
        kstar = draw(st.sampled_from(
            [k for k in (CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1)
             if k <= horizon]))
    else:
        kstar = draw(st.integers(horizon + 1, horizon + 50))
    return horizon_factor, kstar


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@example(change=(13.0, 1), delta=1e6, side="two_sided", gamma=0.25, seed=3)
@example(change=(27.3, CHUNK), delta=1e6, side="one_sided", gamma=0.0,
         seed=4)
@example(change=(27.3, CHUNK + 1), delta=1.0, side="one_sided", gamma=0.0,
         seed=4)
@example(change=(27.3, 2 * CHUNK), delta=0.8, side="two_sided", gamma=0.45,
         seed=5)
@example(change=(14.1, 600), delta=2.0, side="one_sided", gamma=0.25,
         seed=6)
@given(change=change_points(),
       delta=st.one_of(st.floats(0.5, 3.0), st.just(1e6)),
       side=st.sampled_from(["one_sided", "two_sided"]),
       gamma=st.sampled_from([0.0, 0.25, 0.45]),
       seed=st.integers(0, 1000))
def test_replications_equal_full_horizon_monitor(change, delta, side, gamma,
                                                 seed):
    horizon_factor, kstar = change
    params = MonitoringParams(m=M, gamma=gamma, side=side,
                              horizon_factor=horizon_factor)
    scenario = ChangeScenario.at_kstar(delta, kstar)
    c_page, c_q = 1.9, 1.8
    recs = run_replications(params, scenario, GARCH, 4, c_page, c_q,
                            seed=seed)
    n = params.m + params.horizon
    for r in recs:
        x = generate_garch11(GARCH, n, rng_stream(seed, r.rep))
        x[params.m + kstar - 1:] += delta
        train, stream = x[:params.m], x[params.m:].tolist()
        for det, c, tau in (("page", c_page, r.tau_page),
                            ("ordinary", c_q, r.tau_q)):
            p = replace(params, detector=det)
            assert run_monitor(train, iter(stream), p, c).tau == tau
        if delta == 1e6 and kstar == 1:
            assert r.tau_page == r.tau_q == 1


class PresetData:
    """Stands in for generate_garch11_batch in _block_taus: hands out the
    columns of a fixed (paths, m + horizon) array in the order asked for,
    in the rows the carry has kept. The carry's rngs hold the row ids (a
    path's row is its replication less the block's start), which
    GarchCarry.keep narrows as it narrows generators. calls gets each
    call's (n_paths, n)."""

    def __init__(self, data):
        self.data, self.pos, self.calls = data, 0, []

    def __call__(self, spec, n, n_paths, seed, first_stream=0, carry=None):
        if carry.rngs is None:
            carry.rngs = list(range(n_paths))
            carry.streams = carry.sig2 = carry.z_prev = np.zeros(n_paths)
        assert n_paths == len(carry.rngs)
        self.calls.append((n_paths, n))
        out = self.data[carry.rngs, self.pos:self.pos + n]
        self.pos += n
        return out


def study_taus(data, params, mu, rules, shift, start=0, preset=None):
    """_block_taus on the preset data (the GARCH arguments are unused),
    with shift (kstar, delta) or None, as replications [start, start +
    paths); preset, a PresetData of data, records the calls."""
    scenario = None if shift is None else ChangeScenario.at_kstar(
        shift[1], shift[0])
    with mock.patch.object(experiments, "generate_garch11_batch",
                           preset or PresetData(data)):
        return experiments._block_taus(params, GARCH, mu, 0, start,
                                       data.shape[0], rules, scenario)


def training_sd(data, m, mu):
    """Each path's training sd, in the bits of the study's for m <= CHUNK."""
    return np.array([row.std(ddof=1) for row in data[:, :m] + mu])


def unbounded_taus(data, params, mu, rules, shift):
    """The many-path scan without the chunk bound, chunks or early exit:
    chunk_statistic and first_crossings on every path's whole stream."""
    m, horizon = params.m, params.horizon
    x = data + mu
    train, stream = x[:, :m], x[:, m:]
    if shift is not None:
        kstar, delta = shift
        stream[:, kstar - 1:] += delta
    mean = np.array([row.mean() for row in train])
    sd = training_sd(data, m, mu)
    g = boundary_g(m, np.arange(1, horizon + 1), params.gamma)
    q = partial_sums(stream, mean, 0.0)
    zeros = np.zeros(len(data))
    taus = []
    for detector, c in rules:
        stat = chunk_statistic(q, zeros, zeros, params.side, detector)
        j = first_crossings(stat, (sd * c)[:, None] * g)
        taus.append(np.where((j >= 0) & (sd > 0.0), j + 1, 0))
    return taus


def stream_drawn(taus, live, horizon):
    """Stream values a study draws for each path: up to the end of the
    chunk where its last rule stops, the horizon when a rule never stops
    it, and none when its training cannot calibrate it."""
    last = np.max([np.where(tau == 0, horizon, tau) for tau in taus], axis=0)
    return np.where(live, np.minimum(horizon, -(-last // CHUNK) * CHUNK), 0)


@st.composite
def rule_sets(draw):
    """Each detector alone or both together, critical values from 0.3
    (most chunks hold a crossing) to 3 (most hold none)."""
    detectors = draw(st.sampled_from([("page",), ("ordinary",),
                                      ("page", "ordinary")]))
    return tuple((d, draw(st.floats(0.3, 3.0))) for d in detectors)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
# a steady rise or fall that one path crosses in its third chunk, where the
# chunk's own range stays below the thresholds: only the running extremes
# of earlier chunks let the page bound reach them
@example(spec=Garch11Spec(omega=1.0, burn_in=0), n_paths=3, seed=1, m=57,
         horizon_factor=31.1, side="one_sided", gamma=0.0,
         rules=(("page", 3.0),), mu=0.5, shift=(600, 0.8), constant=False,
         jumps=[None] * 6, start=0)
@example(spec=Garch11Spec(omega=1.0, burn_in=0), n_paths=3, seed=1, m=57,
         horizon_factor=31.1, side="two_sided", gamma=0.0,
         rules=(("page", 3.0),), mu=0.5, shift=(600, -0.8), constant=False,
         jumps=[None] * 6, start=0)
@given(spec=specs, n_paths=st.integers(1, 6), seed=st.integers(0, 2**32),
       m=st.sampled_from([20, 40, 57]),
       horizon_factor=st.sampled_from([9.3, 27.0, 31.1]),
       side=st.sampled_from(["one_sided", "two_sided"]),
       gamma=st.sampled_from([0.0, 0.25, 0.45]), rules=rule_sets(),
       mu=st.floats(-3.0, 3.0).filter(lambda v: v != 0.0),
       shift=st.one_of(st.none(), st.tuples(
           st.integers(1, 1800),
           st.floats(-2.0, 2.0).filter(lambda v: v != 0.0))),
       constant=st.booleans(),
       jumps=st.lists(st.one_of(st.none(), st.integers(1, 1800)),
                      min_size=6, max_size=6),
       start=st.sampled_from([0, 37]))
def test_bounded_scan_equals_unbounded_scan(spec, n_paths, seed, m,
                                            horizon_factor, side, gamma,
                                            rules, mu, shift, constant,
                                            jumps, start):
    # a path's level may jump by 4 at its own step, so the paths stop in
    # different chunks and the block narrows as they do; no horizon (186
    # to 1773) is a multiple of CHUNK
    params = MonitoringParams(m=m, gamma=gamma, side=side,
                              horizon_factor=horizon_factor)
    data = generate_garch11_batch(spec, m + params.horizon, n_paths, seed)
    for row, k in zip(data, jumps):
        if k is not None:
            row[m + k - 1:] += 4.0
    if constant:
        data[0, :m] = 0.7  # one path whose training cannot calibrate it
    preset = PresetData(data)
    got = study_taus(data, params, mu, rules, shift, start, preset)
    want = unbounded_taus(data, params, mu, rules, shift)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # every training piece is drawn whole, then each path up to its stop
    pieces = -(-m // CHUNK)
    assert [rows for rows, _ in preset.calls[:pieces]] == [n_paths] * pieces
    live = training_sd(data, m, mu) > 0.0
    assert sum(rows * n for rows, n in preset.calls[pieces:]) == \
        stream_drawn(want, live, params.horizon).sum()


@pytest.mark.parametrize("side", ["one_sided", "two_sided"])
def test_tie_on_the_first_step_of_a_chunk_stops(side):
    # Q(m, k) is 0 up to the chunk edge, equals the threshold exactly on the
    # next step, where the threshold is the chunk's lowest, and is 0 again
    # after it, so the bound of each rule equals its lowest threshold in
    # the chunk, and the tie is a stop
    m, c, k = 50, 1.5, CHUNK + 1
    params = MonitoringParams(m=m, gamma=0.25, side=side,
                              horizon_factor=25.0)
    train = np.tile([1.0, -1.0], m // 2)  # mean exactly 0
    g = boundary_g(m, np.arange(1, params.horizon + 1), params.gamma)
    thresh = train.std(ddof=1) * c * g[k - 1]
    stream = np.zeros(params.horizon)
    stream[k - 1], stream[k] = thresh, -thresh
    rules = (("page", c), ("ordinary", c))
    taus = study_taus(np.concatenate([train, stream])[None, :], params, 0.0,
                      rules, None)
    assert [int(tau[0]) for tau in taus] == [k, k]
    for detector, _ in rules:
        res = run_monitor(train, stream, replace(params, detector=detector),
                          c)
        assert (res.tau, res.stat) == (k, res.threshold)


OVERFLOWING = Garch11Spec(omega=1e306, alpha_g=0.5, beta_g=0.45, burn_in=50)


def test_monitor_rejects_the_thresholds_a_study_rejects():
    # c a few ulps either side of where sd * c * g(m, horizon) overflows:
    # a Monitor on replication 0's training raises where the study does
    params = MonitoringParams(m=40, horizon_factor=5.0)
    train = next(location_paths(GARCH, 0.0, None, params.m, params.horizon,
                                5))[0]
    sd = train.std(ddof=1)
    c = np.finfo(float).max / (sd * boundary_g(params.m, params.horizon,
                                               params.gamma))
    for _ in range(8):
        c = np.nextafter(c, 0.0)
    raised = []
    for _ in range(16):
        try:
            empirical_size(params, GARCH, 1, float(c), seed=5)
        except ValidationError as exc:
            assert "threshold is non-finite" in str(exc)
            raised.append(True)
            with pytest.raises(ValidationError, match="threshold is "
                               f"non-finite at k = {params.horizon}$"):
                Monitor(train, params, float(c))
        else:
            raised.append(False)
            Monitor(train, params, float(c))
        c = np.nextafter(c, np.inf)
    assert False in raised and True in raised


def test_overflowing_training_is_rejected_not_read_as_no_stop():
    # the variance of replication 3 overflows in its training
    assert_study_rejects(OVERFLOWING,
                         "replication 3: the GARCH variance overflows")


def test_training_whose_squares_overflow_is_rejected():
    # finite i.i.d. values whose sum of squared deviations overflows
    assert_study_rejects(Garch11Spec(omega=1e307, burn_in=0),
                         "replication 0: training")


def assert_study_rejects(garch, message):
    """Both studies on garch raise ValidationError matching message."""
    params = MonitoringParams(m=200, horizon_factor=5.0)
    scenario = ChangeScenario.at_kstar(
        1.0, 10, sigma=math.sqrt(garch.unconditional_variance))
    with pytest.raises(ValidationError, match=message):
        run_replications(params, scenario, garch, 20, 2.0, 2.0, seed=1)
    with pytest.raises(ValidationError, match=message):
        empirical_size(params, garch, 20, 2.0, seed=1)


def test_an_overflowing_variance_is_named_not_returned():
    # with seed 36 the variances of streams 10, 13, 12 and 11 overflow at
    # steps 242, 1127, 1772 and 2563, all in the stream pieces after a
    # training of 200 values; the generators raise, naming the first
    # replication to overflow, where they would return infinities (the
    # suite turns a RuntimeWarning into an error, so none is warned of)
    spec = replace(OVERFLOWING, burn_in=0)
    with pytest.raises(ValidationError, match="^replication 10: the GARCH "
                       "variance overflows to a non-finite number$"):
        generate_garch11_batch(spec, 3200, 4, 36, first_stream=10)

    def paths():
        return location_paths(spec, 0.0, None, 200, 3000, 36, 10, 4)
    whole = paths()
    assert next(whole).shape == (4, 200)
    with pytest.raises(ValidationError, match="^replication 10: "):
        next(whole)
    # with path 0 narrowed away, path 3 (now at position 2) overflows in
    # the second stream piece
    narrowed = paths()
    next(narrowed)
    assert narrowed.send([1, 2, 3]).shape == (3, CHUNK)
    with pytest.raises(ValidationError, match="^replication 13: "):
        next(narrowed)


def test_a_shift_that_overflows_is_named_not_returned():
    # mu + delta overflows from the change at stream position 700, value
    # 710 of the series, in the second stream piece; the sums raise,
    # naming the first replication to overflow and the value, where they
    # would return infinities
    def paths():
        return location_paths(GARCH, 1e308, ChangeScenario.at_kstar(
            1e308, 700), 10, 1200, 3, 5, 3)
    whole = paths()
    assert next(whole).shape == (3, 10)
    assert np.isfinite(next(whole)).all()
    with pytest.raises(ValidationError, match="^replication 5: value 710 of "
                       "the series overflows to a non-finite number$"):
        next(whole)
    # with path 0 narrowed away, path 1 (now at position 0) is named
    narrowed = paths()
    next(narrowed)
    assert narrowed.send([1, 2]).shape == (2, CHUNK)
    with pytest.raises(ValidationError, match="^replication 6: value 710 "):
        next(narrowed)


def test_the_pieces_after_the_first_share_one_spec(monkeypatch):
    # location_paths forms the burn-in-free spec of its later pieces once
    specs = []
    monkeypatch.setattr(experiments, "replace",
                        lambda spec, **kw: specs.append(kw) or
                        replace(spec, **kw))
    pieces = list(location_paths(GARCH, 0.0, None, 600, 1100, 4, 0, 2))
    assert len(pieces) == 5 and specs == [{"burn_in": 0}]


BAD_PARAMS = MonitoringParams(m=M, horizon_factor=40.0)  # three chunks


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("side", ["one_sided", "two_sided"])
def test_non_finite_stream_of_an_open_path_is_rejected(bad, side):
    params = replace(BAD_PARAMS, side=side)
    data = generate_garch11_batch(GARCH, M + params.horizon, 3, 7)
    k = CHUNK + 8  # in the second chunk
    data[1, M + k - 1] = bad
    rules = (("page", 1e3), ("ordinary", 1e3))  # no path stops
    with pytest.raises(ValidationError,
                       match=rf"replication 1: Q\(m, k\) is non-finite at "
                             rf"k = {k}$"):
        study_taus(data, params, 0.0, rules, None)


@pytest.mark.parametrize("k", [5, CHUNK + 8])
def test_non_finite_stream_after_the_stop_is_ignored(k):
    data = generate_garch11_batch(GARCH, M + BAD_PARAMS.horizon, 3, 7)
    data[0, M] += 1e6  # path 0 stops at k = 1 under both rules
    rules = (("page", 1e3), ("ordinary", 1e3))
    want = study_taus(data, BAD_PARAMS, 0.0, rules, None)
    assert [int(tau[0]) for tau in want] == [1, 1]
    data[0, M + k - 1] = np.inf
    got = study_taus(data, BAD_PARAMS, 0.0, rules, None)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # the path stopped under page only, so the ordinary rule still reads it
    with pytest.raises(ValidationError, match=f"replication 0: .* k = {k}$"):
        study_taus(data, BAD_PARAMS, 0.0, (("page", 1e3), ("ordinary", 1e9)),
                   None)


def test_non_finite_stream_after_narrowing():
    # path 0 stops at k = 1 and leaves the block after the first chunk:
    # a non-finite value of it in the second is never drawn, and one of
    # path 2, still open there, is named by its replication
    data = generate_garch11_batch(GARCH, M + BAD_PARAMS.horizon, 3, 7)
    data[0, M] += 1e6
    rules = (("page", 1e3), ("ordinary", 1e3))
    k = CHUNK + 8
    want = study_taus(data, BAD_PARAMS, 0.0, rules, None, start=40)
    data[0, M + k - 1] = np.inf
    preset = PresetData(data)
    got = study_taus(data, BAD_PARAMS, 0.0, rules, None, 40, preset)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert [n_paths for n_paths, _ in preset.calls] == [3, 3, 2, 2, 2]
    data[2, M + k - 1] = np.nan
    with pytest.raises(ValidationError,
                       match=rf"^replication 42: Q\(m, k\) is non-finite at "
                             rf"k = {k}$"):
        study_taus(data, BAD_PARAMS, 0.0, rules, None, start=40)


def test_a_size_run_draws_each_path_only_up_to_its_stop(monkeypatch):
    # the GARCH samples drawn equal, path by path, the burn-in, the
    # training and the stream up to the end of the chunk where the path
    # stops (the horizon when it does not, nothing when its training is
    # constant)
    params = MonitoringParams(m=100, horizon_factor=30.0)  # horizon 3000
    reps, dead = 40, 5
    drawn, found = [], []
    generate, stops = experiments.generate_garch11_batch, \
        experiments.first_stops

    def counted(spec, n, n_paths, seed, first_stream=0, carry=None):
        fresh = carry.rngs is None
        x = generate(spec, n, n_paths, seed, first_stream, carry)
        drawn.append(n_paths * (spec.burn_in + n))
        if fresh:  # the whole training of the block, as m <= CHUNK
            x[dead - first_stream] = 0.0
        return x

    def kept(*args):
        found.append(stops(*args))
        return found[-1]

    monkeypatch.setattr(experiments, "generate_garch11_batch", counted)
    monkeypatch.setattr(experiments, "first_stops", kept)
    size = empirical_size(params, GARCH, reps, 1.0, seed=11)
    [(tau,)] = found
    assert size == np.count_nonzero(tau) / reps
    live = np.arange(reps) != dead
    assert sum(drawn) == (GARCH.burn_in + params.m) * reps + \
        stream_drawn([tau], live, params.horizon).sum()
    # the case is not trivial: paths stop in several chunks, and some never
    pieces = set((-(-tau[tau > 0] // CHUNK)).tolist())
    assert len(pieces) >= 2 and np.count_nonzero(live & (tau == 0)) >= 2
