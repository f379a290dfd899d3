"""Properties of chunked generation and the carried-state scan.

Replication studies and size runs generate GARCH data and scan it CHUNK
steps at a time, stopping early once every path has decided. These
properties pin that the pieces reproduce one-shot generation and the
per-replication monitor exactly, wherever the chunk edges fall.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagecusum import (ChangeScenario, Garch11Spec, MonitoringParams,
                       generate_garch11, rng_stream, run_monitor,
                       run_replications)
from pagecusum.datagen import CHUNK, GarchCarry, generate_garch11_batch
from pagecusum.detectors import ScanCarry, scan_chunk

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
@given(data=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
       mean=st.floats(-10.0, 10.0),
       cuts=st.lists(st.integers(1, 7), min_size=1, max_size=8),
       side=st.sampled_from(["one_sided", "two_sided"]))
def test_chunked_scan_equals_one_chunk(data, mean, cuts, side):
    y = np.array(data)[None, :]
    mean = np.array([mean])
    whole = scan_chunk(y, mean, ScanCarry(1), side, ("page", "ordinary"))
    carry = ScanCarry(1)
    parts, k = [], 0
    for n in cuts + [y.shape[1]]:
        if k >= y.shape[1]:
            break
        parts.append(scan_chunk(y[:, k:k + n], mean, carry, side,
                                ("page", "ordinary")))
        k += n
    for j in range(2):
        assert np.array_equal(np.concatenate([p[j] for p in parts], axis=1),
                              whole[j])


GARCH = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3, burn_in=20)
M = 40


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
