import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagecusum import wiener
from pagecusum import (REFERENCE_CRITICAL_VALUES, ValidationError,
                       estimate_critical_value, functional_ordinary,
                       functional_page, resolve_critical_value, rng_stream,
                       sample_wiener_path, simulate_functional_values)
from pagecusum.rng import BOOTSTRAP_STREAM
from pagecusum.wiener import (CriticalValueEstimate, load_estimate,
                              refine_wiener_path, save_estimate)


class _ZeroRng:
    def standard_normal(self, out):
        out[:] = 0.0


def functional_batch_oracle(w, gamma, side, detector):
    """The former (paths, T) kernel, kept verbatim as the bitwise reference."""
    T = w.shape[1]
    t = np.arange(1, T + 1) / T
    weight = t ** (-gamma)
    if detector == "ordinary":
        x = np.abs(w) if side == "two_sided" else w
        return (x * weight).max(axis=1)

    # page: factor the inner infimum, inf_s ((1-t)/(1-s)) W(s)
    #   = (1-t) * running-min of r(s) = W(s)/(1-s) over s = 0 .. (T-1)/T,
    # evaluated at t = 1/T .. (T-1)/T; at t = 1 only the W(1) term survives.
    s_frac = np.arange(T) / T
    r = np.empty_like(w)
    r[:, 0] = 0.0
    r[:, 1:] = w[:, :-1] / (1.0 - s_frac[1:])
    r_min = np.minimum.accumulate(r, axis=1)
    dev = w[:, :-1] - (1.0 - t[:-1]) * r_min[:, 1:]
    if side == "two_sided":
        r_max = np.maximum.accumulate(r, axis=1)
        dev = np.maximum(dev, (1.0 - t[:-1]) * r_max[:, 1:] - w[:, :-1])
    last = np.abs(w[:, -1]) if side == "two_sided" else w[:, -1]
    return np.maximum((dev * weight[:-1]).max(axis=1), last)


def brute_force_page(values, gamma, side):
    """O(T^2) evaluation of the page functional straight from its definition."""
    T = len(values) - 1
    best = -np.inf
    for j in range(1, T):
        t = j / T
        inner = [((1 - t) / (1 - i / T)) * values[i] for i in range(j + 1)]
        lo, hi = min(inner), max(inner)
        dev = values[j] - lo
        if side == "two_sided":
            dev = max(dev, hi - values[j])
        best = max(best, dev / t ** gamma)
    last = abs(values[T]) if side == "two_sided" else values[T]
    return max(best, last)


class TestPaths:
    def test_zero_increments(self):
        path = sample_wiener_path(2, _ZeroRng())
        assert path.tolist() == [0.0, 0.0, 0.0]

    def test_requires_t_at_least_two(self):
        with pytest.raises(ValidationError):
            sample_wiener_path(1, rng_stream(0, 0))

    def test_terminal_variance_and_covariance(self):
        T, n = 8, 100_000
        w_half = np.empty(n)
        w_one = np.empty(n)
        for i in range(n):
            path = sample_wiener_path(T, rng_stream(2024, i))
            w_half[i] = path[T // 2]
            w_one[i] = path[T]
        assert np.var(w_one) == pytest.approx(1.0, abs=0.02)
        cov = np.mean(w_half * w_one) - w_half.mean() * w_one.mean()
        assert cov == pytest.approx(0.5, abs=0.02)

    def test_refinement_keeps_coarse_values(self):
        path = sample_wiener_path(64, rng_stream(5, 0))
        fine = refine_wiener_path(path, rng_stream(5, 1))
        assert fine.shape == (129,)
        assert np.array_equal(fine[0::2], path)


class TestFunctionals:
    def test_zero_path_gives_zero(self):
        path = np.zeros(5)
        for side in ("one_sided", "two_sided"):
            assert functional_ordinary(path, 0.3, side) == 0.0
            assert functional_page(path, 0.3, side) == 0.0

    def test_ordinary_small_path(self):
        path = np.array([0.0, 0.5, 1.0])
        assert functional_ordinary(path, 0.0) == 1.0
        neg = -path
        assert functional_ordinary(neg, 0.0, "two_sided") == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["one_sided", "two_sided"])
    @pytest.mark.parametrize("functional",
                             [functional_ordinary, functional_page])
    def test_non_finite_path_rejected(self, functional, side, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            functional([0.0, bad, 1.0], 0.0, side)

    def test_page_dominates_ordinary(self):
        for i in range(1000):
            path = sample_wiener_path(64, rng_stream(77, i))
            for gamma in (0.0, 0.45):
                assert functional_page(path, gamma) >= \
                    functional_ordinary(path, gamma) - 1e-12

    @pytest.mark.parametrize("T", [2, 3, 17, 128, 512])
    @pytest.mark.parametrize("side", ["one_sided", "two_sided"])
    def test_linear_page_matches_quadratic_oracle(self, T, side):
        for i in range(3):
            path = sample_wiener_path(T, rng_stream(31, i))
            for gamma in (0.0, 0.25, 0.45):
                fast = functional_page(path, gamma, side)
                slow = brute_force_page(path, gamma, side)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_grid_refinement_never_decreases_functionals(self):
        for i in range(200):
            path = sample_wiener_path(32, rng_stream(99, i))
            fine = refine_wiener_path(path, rng_stream(99, 10_000 + i))
            for gamma in (0.0, 0.25):
                assert functional_ordinary(fine, gamma) >= \
                    functional_ordinary(path, gamma) - 1e-12
                assert functional_page(fine, gamma) >= \
                    functional_page(path, gamma) - 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(T=st.integers(2, 700), n_rows=st.integers(1, 3),
       gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)),
       side=st.sampled_from(["one_sided", "two_sided"]),
       offset=st.floats(-1e6, 1e6), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
@example(T=2, n_rows=2, gamma=0.0, side="two_sided", offset=0.0,
         log_scale=0.0, seed=0)
def test_one_pass_kernel_matches_batch_oracle_bitwise(T, n_rows, gamma, side,
                                                      offset, log_scale, seed):
    z = np.random.default_rng(seed).standard_normal((n_rows, T))
    w = offset + 10.0 ** log_scale * np.cumsum(z, axis=1)
    for detector in ("ordinary", "page"):
        want = functional_batch_oracle(w, gamma, side, detector)
        got = wiener._functional_values(iter(w), len(w), T, gamma, side,
                                        detector)
        assert got.tobytes() == want.tobytes()
    for row in w:
        path = np.concatenate([[0.0], row])
        ordinary = functional_ordinary(path, gamma, side)
        page = functional_page(path, gamma, side)
        want = [functional_batch_oracle(row[None, :], gamma, side, d)[0]
                for d in ("ordinary", "page")]
        assert np.array([ordinary, page]).tobytes() == \
            np.array(want).tobytes()
        assert page >= ordinary


def adversarial_rows(kind, T, n_rows, seed):
    """(n_rows, T) values of W at t = 1/T .. 1 that stress the page scan's
    block bounds: flat, monotone, tied, negative and huge paths."""
    z = np.random.default_rng(seed).standard_normal((n_rows, T))
    walk = np.cumsum(z, axis=1)
    if kind == "zero":
        return np.zeros((n_rows, T))
    if kind == "rising":
        return np.cumsum(np.abs(z), axis=1)
    if kind == "falling":
        return -np.cumsum(np.abs(z), axis=1)
    if kind == "plateaus":  # ties, long runs and zeros of either sign
        return np.round(walk / 3.0)
    if kind == "negative":
        return -np.abs(walk) - 1.0
    if kind == "huge":
        return 1e150 * walk
    if kind == "huge_negative":
        return -1e150 * (np.abs(walk) + 1.0)
    return walk


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(T=st.one_of(st.integers(2, 3000), st.sampled_from([129, 257, 385])),
       n_rows=st.integers(1, 3),
       kind=st.sampled_from(["zero", "rising", "falling", "plateaus",
                             "negative", "huge", "huge_negative", "walk"]),
       gamma=st.sampled_from([0.0, 0.25, 0.45]),
       side=st.sampled_from(["one_sided", "two_sided"]),
       seed=st.integers(0, 2**32 - 1))
@example(T=2, n_rows=1, kind="zero", gamma=0.45, side="one_sided", seed=0)
@example(T=129, n_rows=2, kind="huge", gamma=0.0, side="two_sided", seed=1)
@example(T=3000, n_rows=2, kind="plateaus", gamma=0.25, side="one_sided",
         seed=2)
def test_page_block_scan_matches_unpruned_scan_bitwise(T, n_rows, kind, gamma,
                                                       side, seed):
    w = adversarial_rows(kind, T, n_rows, seed)
    got = wiener._functional_values(iter(w), len(w), T, gamma, side, "page")
    want = functional_batch_oracle(w, gamma, side, "page")
    # a zero supremum takes its sign from the order in which a max reduction
    # meets tied zeros, which neither scan pins; + 0.0 maps -0.0 to 0.0 and
    # leaves every other value's bits alone
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def test_simulation_draws_one_stream_per_path(monkeypatch):
    calls = []

    def counting_stream(seed, index):
        calls.append(index)
        return rng_stream(seed, index)

    monkeypatch.setattr(wiener, "rng_stream", counting_stream)
    vals = simulate_functional_values(0.25, "two_sided", "page", 300, 16,
                                      seed=7)
    assert vals.shape == (300,)
    assert sorted(calls) == list(range(300))


class TestEstimates:
    def test_batch_values_match_per_path_evaluation(self):
        reps, T = 40, 64
        vals = simulate_functional_values(0.25, "one_sided", "page", reps, T,
                                          seed=3)
        for i in range(reps):
            path = sample_wiener_path(T, rng_stream(3, i))
            assert vals[i] == functional_page(path, 0.25)

    def test_reflection_principle_anchor(self):
        est = estimate_critical_value(0.0, 0.1, "one_sided", "ordinary",
                                      reps=4000, T=2048, seed=8)
        assert est.c == pytest.approx(1.6449, abs=0.05)

    def test_two_sided_quantile_dominates_one_sided(self):
        one = estimate_critical_value(0.25, 0.1, "one_sided", "ordinary",
                                      reps=2000, T=256, seed=9)
        two = estimate_critical_value(0.25, 0.1, "two_sided", "ordinary",
                                      reps=2000, T=256, seed=9)
        assert two.c >= one.c

    def test_quantile_nondecreasing_in_gamma(self):
        ests = [estimate_critical_value(g, 0.1, "one_sided", "page",
                                        reps=4000, T=1024, seed=10)
                for g in (0.0, 0.25, 0.45)]
        for lo, hi in zip(ests, ests[1:]):
            assert hi.c >= lo.c - 2.0 * (lo.std_err + hi.std_err)

    def test_deterministic_across_thread_counts(self):
        one = estimate_critical_value(0.25, 0.1, "one_sided", "page",
                                      reps=600, T=128, seed=11, threads=1)
        two = estimate_critical_value(0.25, 0.1, "one_sided", "page",
                                      reps=600, T=128, seed=11, threads=2)
        assert one.c == two.c
        assert one.std_err == two.std_err

    def test_validation(self):
        with pytest.raises(ValidationError):
            estimate_critical_value(0.7, 0.1, "one_sided", "page", reps=200,
                                    T=64)
        with pytest.raises(ValidationError):
            estimate_critical_value(0.1, 0.1, "one_sided", "page", reps=50,
                                    T=64)


@pytest.mark.parametrize("reps", [100, 101, 1024, 4097, 2**15 + 1])
def test_grouped_bootstrap_matches_per_row_loop(monkeypatch, reps):
    # values rounded to two decimals, so quantiles meet ties; at 2**15 + 1
    # each group holds one resample row
    vals = np.round(np.random.default_rng(reps).standard_normal(reps), 2)
    monkeypatch.setattr(wiener, "simulate_functional_values",
                        lambda *args, **kwargs: vals)
    for alpha in (0.1, 0.05, 0.01):
        est = estimate_critical_value(0.0, alpha, "one_sided", "page",
                                      reps=reps, T=2, seed=reps)
        boot_rng = rng_stream(reps, BOOTSTRAP_STREAM)
        boots = np.empty(200)
        for b in range(200):
            idx = boot_rng.integers(0, reps, size=reps)
            boots[b] = np.quantile(vals[idx], 1.0 - alpha)
        assert est.std_err == float(boots.std(ddof=1))
        assert est.c == float(np.quantile(vals, 1.0 - alpha))


class TestCache:
    def make_estimate(self, **overrides):
        base = dict(c=1.7012, std_err=0.004, gamma=0.25, alpha=0.1,
                    side="one_sided", detector="page", reps=2000,
                    grid_size=512, seed=4)
        base.update(overrides)
        return CriticalValueEstimate(**base)

    def test_json_fields_exact(self):
        d = self.make_estimate().to_json_dict()
        assert set(d) == {"gamma", "alpha", "side", "detector", "reps",
                          "grid", "seed", "c", "std_err"}

    def test_save_load_roundtrip(self, tmp_path):
        est = self.make_estimate()
        path = tmp_path / "cv.json"
        save_estimate(est, path)
        assert load_estimate(path) == est

    def test_save_requires_enough_reps(self, tmp_path):
        with pytest.raises(ValidationError):
            save_estimate(self.make_estimate(reps=999), tmp_path / "cv.json")

    @pytest.mark.parametrize("field, value", [
        ("gamma", "0.25"), ("c", math.nan), ("c", math.inf), ("c", "9.99"),
        ("reps", 2000.0), ("seed", True), ("detector", None), ("reps", 999),
    ])
    def test_wrong_typed_or_non_finite_field_is_skipped(self, tmp_path,
                                                         field, value):
        bad = dict(self.make_estimate(c=9.99).to_json_dict(), **{field: value})
        path = tmp_path / "cv.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError, match=field):
            load_estimate(path)
        assert resolve_critical_value(0.25, 0.1, "one_sided", "page",
                                      cache_dir=tmp_path) == \
            REFERENCE_CRITICAL_VALUES[(0.25, 0.10, "one_sided", "page")]

    def test_non_object_file_is_skipped(self, tmp_path):
        (tmp_path / "cv.json").write_text("[1.7]")
        with pytest.raises(ValidationError, match="JSON object"):
            load_estimate(tmp_path / "cv.json")
        assert resolve_critical_value(0.0, 0.05, "one_sided", "ordinary",
                                      cache_dir=tmp_path) == 1.95996

    def test_a_file_not_named_json_is_skipped(self, tmp_path):
        save_estimate(self.make_estimate(c=9.99), tmp_path / "cv.txt")
        assert resolve_critical_value(0.25, 0.1, "one_sided", "page",
                                      cache_dir=tmp_path) == \
            REFERENCE_CRITICAL_VALUES[(0.25, 0.10, "one_sided", "page")]
        os.rename(tmp_path / "cv.txt", tmp_path / "cv.json")
        assert resolve_critical_value(0.25, 0.1, "one_sided", "page",
                                      cache_dir=tmp_path) == 9.99

    def test_resolution_order(self, tmp_path):
        est = self.make_estimate(c=9.99)
        save_estimate(est, tmp_path / "cv.json")
        got = resolve_critical_value(0.25, 0.1, "one_sided", "page",
                                     cache_dir=tmp_path)
        assert got == 9.99
        ref = resolve_critical_value(0.25, 0.1, "one_sided", "page")
        assert ref == REFERENCE_CRITICAL_VALUES[(0.25, 0.10, "one_sided",
                                                 "page")]
        with pytest.raises(ValidationError):
            resolve_critical_value(0.33, 0.1, "one_sided", "page")

    def test_cache_dir_that_is_not_a_directory_is_rejected(self, tmp_path):
        a_file = tmp_path / "cv.json"
        save_estimate(self.make_estimate(c=9.99), a_file)
        for bad in (tmp_path / "missing", a_file):
            with pytest.raises(ValidationError, match="not a directory"):
                resolve_critical_value(0.25, 0.1, "one_sided", "page",
                                       cache_dir=bad)

    def test_reference_values_are_consistent(self):
        # gamma = 0 ordinary entries are normal quantiles
        from scipy.stats import norm
        assert REFERENCE_CRITICAL_VALUES[(0.0, 0.10, "one_sided", "ordinary")] \
            == pytest.approx(norm.ppf(0.95), abs=5e-5)
        assert REFERENCE_CRITICAL_VALUES[(0.0, 0.05, "one_sided", "ordinary")] \
            == pytest.approx(norm.ppf(0.975), abs=5e-5)
        # page dominates ordinary at every gamma
        for g in (0.0, 0.25, 0.45):
            assert REFERENCE_CRITICAL_VALUES[(g, 0.10, "one_sided", "page")] \
                > REFERENCE_CRITICAL_VALUES[(g, 0.10, "one_sided", "ordinary")]
