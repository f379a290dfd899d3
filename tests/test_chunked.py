"""Properties of chunked generation and the carried-state scan.

Replication studies and size runs generate GARCH data and scan it CHUNK
steps at a time, stopping early once every path has decided. These
properties pin that the pieces reproduce one-shot generation and the
per-replication monitor exactly, wherever the chunk edges fall, that
the chunk bound skips the exact scan only where no path can cross, and
that non-finite training or stream values raise where they would otherwise
read as a path that never stops.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from garch_loop import generate_garch11
from pagecusum import (ChangeScenario, Garch11Spec, MonitoringParams,
                       ValidationError, boundary_g, empirical_size,
                       experiments, rng_stream, run_monitor, run_replications)
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


@SETTINGS
@given(data=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
       mean=st.floats(-10.0, 10.0),
       cuts=st.lists(st.integers(1, 7), min_size=1, max_size=8),
       side=st.sampled_from(["one_sided", "two_sided"]))
def test_chunked_scan_equals_one_chunk(data, mean, cuts, side):
    y = np.array(data)[None, :]
    mean = np.array([mean])
    # critical values from "most steps cross" to "none does"
    rules = [(d, np.array([c])) for d in ("page", "ordinary")
             for c in (1e-3, 0.5, 5.0, 50.0, 1e4)]
    params = MonitoringParams(m=10, gamma=0.25, side=side)
    live = np.ones(1, dtype=bool)
    whole = first_stops([y.copy()], mean, rules, params, live, 0)
    pieces, k = [], 0
    for n in cuts + [y.shape[1]]:
        if k >= y.shape[1]:
            break
        pieces.append(y[:, k:k + n].copy())
        k += n
    parts = first_stops(pieces, mean, rules, params, live, 0)
    for got, want in zip(parts, whole):
        assert np.array_equal(got, want)


def test_scan_draws_no_chunk_after_every_path_stops():
    # every live path crosses on its first step, so one chunk decides them
    # all; a path that may not stop never does, and does not keep the scan
    # drawing
    drawn = []

    def chunks():
        for k0 in range(0, 4 * CHUNK, CHUNK):
            drawn.append(k0)
            yield np.full((3, CHUNK), 1e3)

    rules = [(d, np.ones(3)) for d in ("page", "ordinary")]
    live = np.array([True, False, True])
    taus = first_stops(chunks(), np.zeros(3), rules, MonitoringParams(m=50),
                       live, 0)
    assert drawn == [0]
    for tau in taus:
        assert tau.tolist() == [1, 0, 1]


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


def test_study_computes_g_only_on_the_chunks_it_scans(boundary_calls):
    # every path stops at k = 1, so g(m, k) is evaluated on the first chunk
    # and on the top index of the up-front check, never on the whole horizon
    params = MonitoringParams(m=M, gamma=0.25, horizon_factor=40.0)
    assert params.horizon > 3 * CHUNK
    recs = run_replications(params, ChangeScenario.at_kstar(50.0, 1), GARCH,
                            8, 1.9, 1.8, seed=2)
    assert all(r.tau_page == r.tau_q == 1 for r in recs)
    assert sorted(boundary_calls) == [1, CHUNK]


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
    columns of a fixed (paths, m + horizon) array in the order asked for."""

    def __init__(self, data):
        self.data, self.pos = data, 0

    def __call__(self, spec, n, n_paths, seed, first_stream=0, carry=None):
        assert n_paths == self.data.shape[0]
        out = self.data[:, self.pos:self.pos + n].copy()
        self.pos += n
        return out


def study_taus(data, params, mu, rules, shift):
    """_block_taus on the preset data (the GARCH arguments are unused),
    with shift (kstar, delta) or None."""
    scenario = None if shift is None else ChangeScenario.at_kstar(
        shift[1], shift[0])
    with mock.patch.object(experiments, "generate_garch11_batch",
                           PresetData(data)):
        return experiments._block_taus(params, GARCH, mu, 0, 0,
                                       data.shape[0], rules, scenario)


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
    sd = np.array([row.std(ddof=1) for row in train])
    g = boundary_g(m, np.arange(1, horizon + 1), params.gamma)
    q = partial_sums(stream, mean, 0.0)
    zeros = np.zeros(len(data))
    taus = []
    for detector, c in rules:
        stat = chunk_statistic(q, zeros, zeros, params.side, detector)
        j = first_crossings(stat, (sd * c)[:, None] * g)
        taus.append(np.where((j >= 0) & (sd > 0.0), j + 1, 0))
    return taus


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
         rules=(("page", 3.0),), mu=0.5, shift=(600, 0.8), constant=False)
@example(spec=Garch11Spec(omega=1.0, burn_in=0), n_paths=3, seed=1, m=57,
         horizon_factor=31.1, side="two_sided", gamma=0.0,
         rules=(("page", 3.0),), mu=0.5, shift=(600, -0.8), constant=False)
@given(spec=specs, n_paths=st.integers(1, 6), seed=st.integers(0, 2**32),
       m=st.sampled_from([20, 40, 57]),
       horizon_factor=st.sampled_from([9.3, 27.0, 31.1]),
       side=st.sampled_from(["one_sided", "two_sided"]),
       gamma=st.sampled_from([0.0, 0.25, 0.45]), rules=rule_sets(),
       mu=st.floats(-3.0, 3.0).filter(lambda v: v != 0.0),
       shift=st.one_of(st.none(), st.tuples(
           st.integers(1, 1800),
           st.floats(-2.0, 2.0).filter(lambda v: v != 0.0))),
       constant=st.booleans())
def test_bounded_scan_equals_unbounded_scan(spec, n_paths, seed, m,
                                            horizon_factor, side, gamma,
                                            rules, mu, shift, constant):
    params = MonitoringParams(m=m, gamma=gamma, side=side,
                              horizon_factor=horizon_factor)
    data = generate_garch11_batch(spec, m + params.horizon, n_paths, seed)
    if constant:
        data[0, :m] = 0.7  # one path whose training cannot calibrate it
    got = study_taus(data, params, mu, rules, shift)
    want = unbounded_taus(data, params, mu, rules, shift)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("side", ["one_sided", "two_sided"])
def test_tie_on_the_first_step_of_a_chunk_stops(side):
    # Q(m, k) is 0 up to the chunk edge, equals the threshold exactly on the
    # next step, where the threshold is the chunk's lowest, and is 0 again
    # after it, so the bound of each rule equals its lowest threshold in
    # the chunk: a strict comparison would skip the path and miss the tie
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


def test_overflowing_training_is_rejected_not_read_as_no_stop():
    params = MonitoringParams(m=200, horizon_factor=5.0)
    with pytest.raises(ValidationError, match="replication 0: training"):
        run_replications(params, ChangeScenario.at_kstar(1.0, 10),
                         OVERFLOWING, 20, 2.0, 2.0, seed=1)
    with pytest.raises(ValidationError, match="replication 0: training"):
        empirical_size(params, OVERFLOWING, 20, 2.0, seed=1)


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
