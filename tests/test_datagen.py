"""GARCH(1,1) innovations and the location model built on them: the
batched recursion against the per-step loop of garch_loop, and
experiments.location_paths against the loop plus mu plus the shift."""

import collections
import math
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garch_loop import generate_garch11
from pagecusum import (ChangeScenario, Garch11Spec, ValidationError,
                       experiments, location_paths, rng_stream,
                       summarize_training)
from pagecusum.datagen import CHUNK, generate_garch11_batch

STUDY_GARCH = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3)


class TestGarchSpec:
    def test_unit_unconditional_variance(self):
        assert STUDY_GARCH.unconditional_variance == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(omega=0.0),
        dict(omega=1.0, alpha_g=0.6, beta_g=0.4),
        dict(omega=1.0, alpha_g=-0.1),
        dict(omega=1.0, beta_g=-0.1),
        dict(omega=1.0, burn_in=-1),
        dict(omega=math.inf),
        dict(omega=1.0, burn_in=2.5),
        dict(omega=1.0, burn_in=True),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            Garch11Spec(**kwargs)

    def test_accepts_numpy_integer_burn_in(self):
        spec = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3,
                           burn_in=np.int64(3))
        want = replace(spec, burn_in=3)
        assert np.array_equal(generate_garch11_batch(spec, 20, 2, seed=4),
                              generate_garch11_batch(want, 20, 2, seed=4))


class TestGarchGenerator:
    # the moment checks pool 1000 paths of 1000 values, each after a burn-in
    # of 500
    def test_collapses_to_iid_normal(self):
        spec = Garch11Spec(omega=4.0, burn_in=0)
        eps = generate_garch11_batch(spec, 50, 1, seed=3)
        z = rng_stream(3, 0).standard_normal(50)
        assert np.array_equal(eps[0], 2.0 * z)

    def test_sample_variance_near_unit(self):
        eps = generate_garch11_batch(STUDY_GARCH, 1000, 1000, seed=2000)
        assert summarize_training(eps.ravel()).sigma_hat == pytest.approx(
            1.0, abs=0.01)

    def test_innovations_are_uncorrelated_at_lag_one(self):
        eps = generate_garch11_batch(STUDY_GARCH, 1000, 1000, seed=2001)
        x, y = eps[:, :-1], eps[:, 1:]
        acf1 = np.mean((x - x.mean()) * (y - y.mean())) / np.var(eps)
        assert abs(acf1) <= 0.005

    def test_squared_innovations_are_dependent(self):
        # volatility clustering: lag-1 autocorrelation of eps^2 is
        # alpha_g*(1 - beta_g^2 - alpha_g*beta_g)/(1 - beta_g^2 - 2*alpha_g*beta_g)
        spec = STUDY_GARCH
        expected = spec.alpha_g * (1 - spec.beta_g ** 2 - spec.alpha_g * spec.beta_g) \
            / (1 - spec.beta_g ** 2 - 2 * spec.alpha_g * spec.beta_g)
        eps = generate_garch11_batch(spec, 1000, 1000, seed=2002)
        s = eps * eps
        x, y = s[:, :-1], s[:, 1:]
        acf1 = np.mean((x - x.mean()) * (y - y.mean())) / np.var(s)
        assert acf1 == pytest.approx(expected, abs=0.02)

    def test_reproducible(self):
        a = generate_garch11_batch(STUDY_GARCH, 500, 2, seed=7,
                                   first_stream=3)
        b = generate_garch11_batch(STUDY_GARCH, 500, 2, seed=7,
                                   first_stream=3)
        assert np.array_equal(a, b)

    def test_prefix_property(self):
        short = generate_garch11_batch(STUDY_GARCH, 200, 2, seed=8)
        long = generate_garch11_batch(STUDY_GARCH, 900, 2, seed=8)
        assert np.array_equal(short, long[:, :200])

    def test_batch_rows_equal_single_paths_exactly(self):
        batch = generate_garch11_batch(STUDY_GARCH, 300, 7, seed=9,
                                       first_stream=5)
        for i in range(7):
            single = generate_garch11(STUDY_GARCH, 300, rng_stream(9, 5 + i))
            assert np.array_equal(batch[i], single)

    @pytest.mark.parametrize("omega", [0.7, 2.0, 1e-3])
    def test_no_garch_terms_give_exactly_scaled_normals(self, omega):
        # with alpha_g = beta_g = 0 every sig2 is omega itself, so a value is
        # sqrt(omega)*z bit for bit, past the burn-in and across CHUNK edges
        spec = Garch11Spec(omega=omega, burn_in=37)
        n = 2 * CHUNK + 5
        batch = generate_garch11_batch(spec, n, 3, seed=12, first_stream=2)
        for i in range(3):
            z = rng_stream(12, 2 + i).standard_normal(37 + n)[37:]
            assert np.array_equal(batch[i], math.sqrt(omega) * z)

    @pytest.mark.parametrize("spec", [
        STUDY_GARCH,
        Garch11Spec(omega=0.01, alpha_g=0.09, beta_g=0.9, burn_in=37),
        Garch11Spec(omega=1e-3, alpha_g=0.6, beta_g=0.39, burn_in=0),
    ])
    @pytest.mark.parametrize("n", [CHUNK - 1, 3 * CHUNK + 7])
    def test_batch_is_close_to_the_textbook_form(self, spec, n):
        # the batch steps sig2 = (alpha_g*z^2 + beta_g)*sig2 + omega, which
        # is sig2 = omega + alpha_g*eps^2 + beta_g*sig2 rounded differently;
        # the bound was fixed before the first run
        batch = generate_garch11_batch(spec, n, 6, seed=21, first_stream=40)
        for i in range(6):
            want = textbook_garch11(spec, n, rng_stream(21, 40 + i))
            assert np.all(np.abs(batch[i] - want) <= 1e-13 * np.abs(want))


def textbook_garch11(spec, n, rng):
    """One path in the textbook form sig2 = omega + alpha_g*eps_prev^2 +
    beta_g*sig2, one Python float step at a time."""
    total = spec.burn_in + n
    z = rng.standard_normal(total)
    eps = np.empty(total)
    sig2 = spec.unconditional_variance
    e_prev = 0.0
    for i in range(total):
        sig2 = spec.omega + spec.alpha_g * e_prev * e_prev + spec.beta_g * sig2
        e_prev = math.sqrt(sig2) * z[i]
        eps[i] = e_prev
    return eps[spec.burn_in:]


def series(*args, **kwargs):
    """location_paths joined into one (count, m + length) array."""
    return np.concatenate(list(location_paths(*args, **kwargs)), axis=1)


def zero_innovations(spec, n, n_paths, *args):
    """Stands in for generate_garch11_batch: all-zero errors."""
    return np.zeros((n_paths, n))


class TestGenerateStream:
    def test_no_change_is_identity_plus_mu(self):
        x = series(STUDY_GARCH, 1.5, None, 20, 30, seed=4)
        eps = generate_garch11_batch(STUDY_GARCH, 50, 1, seed=4)
        assert np.array_equal(x, 1.5 + eps)

    @mock.patch.object(experiments, "generate_garch11_batch",
                       zero_innovations)
    def test_tiny_example(self):
        train, stream = location_paths(
            STUDY_GARCH, 0.0, ChangeScenario.at_kstar(1.0, 3), 4, 5, seed=0)
        assert train.tolist() == [[0.0, 0.0, 0.0, 0.0]]
        assert stream.tolist() == [[0.0, 0.0, 1.0, 1.0, 1.0]]

    @mock.patch.object(experiments, "generate_garch11_batch",
                       zero_innovations)
    def test_off_by_one_guard(self):
        # the change enters at global 1-based index m + kstar, so observation
        # m + kstar - 1 is still unshifted
        m, kstar = 10, 4
        x = series(STUDY_GARCH, 0.0, ChangeScenario.at_kstar(2.5, kstar), m,
                   8, seed=0)[0]
        assert x[m + kstar - 2] == 0.0
        assert x[m + kstar - 1] == 2.5

    def test_change_beyond_length_is_legal_null_stream(self):
        x = series(STUDY_GARCH, 0.0, ChangeScenario.at_kstar(9.0, 50), 5, 10,
                   seed=5)
        assert np.array_equal(x, generate_garch11_batch(STUDY_GARCH, 15, 1,
                                                        seed=5))

    def test_draws_m_plus_length_values(self):
        # the training block with the burn-in, then CHUNK-long pieces of the
        # stream, which continue the recursion without one
        calls = []
        real = experiments.generate_garch11_batch

        def spy(spec, n, n_paths, *args):
            calls.append((spec.burn_in, n, n_paths))
            return real(spec, n, n_paths, *args)

        with mock.patch.object(experiments, "generate_garch11_batch", spy):
            pieces = list(location_paths(STUDY_GARCH, 0.0, None, 30,
                                         2 * CHUNK + 7, seed=1, count=2))
        assert calls == [(500, 30, 2), (0, CHUNK, 2), (0, CHUNK, 2),
                         (0, 7, 2)]
        assert [p.shape for p in pieces] == [(2, n) for _, n, _ in calls]

    def test_keeps_no_piece_it_handed_out(self):
        # the training block is freed before the first piece of the stream
        # is drawn, and each piece before the next one
        pieces, alive = [], []
        real = experiments.generate_garch11_batch

        def spy(*args):
            alive.append([ref() is not None for ref in pieces])
            out = real(*args)
            pieces.append(weakref.ref(out))
            return out

        with mock.patch.object(experiments, "generate_garch11_batch", spy):
            collections.deque(location_paths(
                STUDY_GARCH, 0.3, ChangeScenario.at_kstar(1.0, 2), 40,
                3 * CHUNK, seed=2, count=3), maxlen=0)
        assert alive == [[False] * i for i in range(4)]

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected_at_the_first_piece(self, mu):
        # mu + eps would be all NaN or all inf, with no overflow to flag it
        with pytest.raises(ValidationError, match="^mu must be finite$"):
            next(location_paths(Garch11Spec(omega=1.0, burn_in=0), mu, None,
                                3, 2, seed=0))

    def test_post_change_mean_shift(self):
        delta = 0.75
        _, stream = np.split(series(STUDY_GARCH, 0.2,
                                    ChangeScenario.at_kstar(delta, 5000), 2,
                                    10 ** 4, seed=6)[0], [2])
        pre, post = stream[:4999], stream[4999:]
        se = math.sqrt(np.var(pre) / pre.size + np.var(post) / post.size)
        assert post.mean() - pre.mean() == pytest.approx(delta, abs=3 * se)


@st.composite
def location_cases(draw):
    """(length, kstar): the change on the first value of the stream, on
    the last of its first CHUNK or the first of the next, on its last value,
    or one past it."""
    length = draw(st.integers(CHUNK + 1, 2 * CHUNK + 3))
    kstar = draw(st.sampled_from([1, CHUNK, CHUNK + 1, length, length + 1]))
    return length, kstar


specs = st.builds(Garch11Spec, omega=st.floats(0.1, 4.0),
                  alpha_g=st.floats(0.0, 0.45), beta_g=st.floats(0.0, 0.5),
                  burn_in=st.sampled_from([0, 1, 37]))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(spec=specs, case=location_cases(),
       m=st.one_of(st.integers(2, 60), st.integers(CHUNK - 2, 2 * CHUNK + 3)),
       count=st.sampled_from([1, 3]), start=st.integers(1, 1000),
       seed=st.integers(0, 2**32),
       mu=st.floats(-5.0, 5.0).filter(lambda v: v != 0.0),
       delta=st.one_of(st.none(), st.floats(-3.0, 3.0).filter(
           lambda v: v != 0.0)))
def test_rows_equal_the_loop_plus_mu_plus_the_shift(spec, case, m, count,
                                                   start, seed, mu, delta):
    length, kstar = case
    scenario = None if delta is None else ChangeScenario.at_kstar(delta,
                                                                  kstar)
    pieces = list(location_paths(spec, mu, scenario, m, length, seed, start,
                                 count))
    # the training, then the stream, each cut at multiples of CHUNK
    assert [p.shape[1] for p in pieces] == [
        min(CHUNK, n - k0) for n in (m, length) for k0 in range(0, n, CHUNK)]
    x = np.concatenate(pieces, axis=1)
    for i, row in enumerate(x):
        want = mu + generate_garch11(spec, m + length,
                                     rng_stream(seed, start + i))
        if delta is not None:
            want[m + kstar - 1:] += delta
        assert np.array_equal(row, want)
