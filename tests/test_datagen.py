import math
from dataclasses import replace

import numpy as np
import pytest

from pagecusum import (ChangeScenario, Garch11Spec, StreamSpec,
                       ValidationError, generate_garch11, generate_stream,
                       rng_stream, summarize_training)
from pagecusum.datagen import generate_garch11_batch

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
        assert np.array_equal(generate_garch11(spec, 20, rng_stream(4, 0)),
                              generate_garch11(want, 20, rng_stream(4, 0)))


class TestGarchGenerator:
    def test_collapses_to_iid_normal(self):
        spec = Garch11Spec(omega=4.0, burn_in=0)
        eps = generate_garch11(spec, 50, rng_stream(3, 0))
        z = rng_stream(3, 0).standard_normal(50)
        assert np.array_equal(eps, 2.0 * z)

    def test_sample_variance_near_unit(self):
        eps = generate_garch11(STUDY_GARCH, 10 ** 6, rng_stream(2000, 0))
        assert summarize_training(eps).sigma_hat == pytest.approx(1.0, abs=0.01)

    def test_innovations_are_uncorrelated_at_lag_one(self):
        eps = generate_garch11(STUDY_GARCH, 10 ** 6, rng_stream(2001, 0))
        x, y = eps[:-1], eps[1:]
        acf1 = np.mean((x - x.mean()) * (y - y.mean())) / np.var(eps)
        assert abs(acf1) <= 0.005

    def test_squared_innovations_are_dependent(self):
        # volatility clustering: lag-1 autocorrelation of eps^2 is
        # alpha_g*(1 - beta_g^2 - alpha_g*beta_g)/(1 - beta_g^2 - 2*alpha_g*beta_g)
        spec = STUDY_GARCH
        expected = spec.alpha_g * (1 - spec.beta_g ** 2 - spec.alpha_g * spec.beta_g) \
            / (1 - spec.beta_g ** 2 - 2 * spec.alpha_g * spec.beta_g)
        eps = generate_garch11(spec, 10 ** 6, rng_stream(2002, 0))
        s = eps * eps
        x, y = s[:-1], s[1:]
        acf1 = np.mean((x - x.mean()) * (y - y.mean())) / np.var(s)
        assert acf1 == pytest.approx(expected, abs=0.02)

    def test_reproducible(self):
        a = generate_garch11(STUDY_GARCH, 500, rng_stream(7, 3))
        b = generate_garch11(STUDY_GARCH, 500, rng_stream(7, 3))
        assert np.array_equal(a, b)

    def test_prefix_property(self):
        short = generate_garch11(STUDY_GARCH, 200, rng_stream(8, 0))
        long = generate_garch11(STUDY_GARCH, 900, rng_stream(8, 0))
        assert np.array_equal(short, long[:200])

    def test_batch_rows_equal_single_paths_exactly(self):
        batch = generate_garch11_batch(STUDY_GARCH, 300, 7, seed=9,
                                       first_stream=5)
        for i in range(7):
            single = generate_garch11(STUDY_GARCH, 300, rng_stream(9, 5 + i))
            assert np.array_equal(batch[i], single)


class TestGenerateStream:
    def test_no_change_is_identity_plus_mu(self):
        eps = rng_stream(4, 0).standard_normal(50)
        spec = StreamSpec(mu=1.5, scenario=None, m=20, length=30)
        train, stream = generate_stream(spec, eps)
        assert np.allclose(np.concatenate([train, stream]), 1.5 + eps)

    def test_tiny_example(self):
        spec = StreamSpec(mu=0.0,
                          scenario=ChangeScenario.at_kstar(1.0, 3),
                          m=4, length=5)
        train, stream = generate_stream(spec, np.zeros(9))
        assert train.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert stream.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_off_by_one_guard(self):
        # the change enters at global 1-based index m + kstar, so observation
        # m + kstar - 1 is still unshifted
        m, kstar = 10, 4
        spec = StreamSpec(mu=0.0,
                          scenario=ChangeScenario.at_kstar(2.5, kstar),
                          m=m, length=8)
        train, stream = generate_stream(spec, np.zeros(m + 8))
        assert stream[kstar - 2] == 0.0
        assert stream[kstar - 1] == 2.5

    def test_change_beyond_length_is_legal_null_stream(self):
        spec = StreamSpec(mu=0.0,
                          scenario=ChangeScenario.at_kstar(9.0, 50),
                          m=5, length=10)
        eps = rng_stream(5, 0).standard_normal(15)
        train, stream = generate_stream(spec, eps)
        assert np.allclose(stream, eps[5:15])

    def test_requires_enough_innovations(self):
        spec = StreamSpec(mu=0.0, scenario=None, m=5, length=10)
        with pytest.raises(ValidationError):
            generate_stream(spec, np.zeros(14))

    def test_does_not_mutate_input(self):
        eps = np.zeros(20)
        spec = StreamSpec(mu=0.0, scenario=ChangeScenario.at_kstar(1.0, 1),
                          m=5, length=15)
        generate_stream(spec, eps)
        assert np.all(eps == 0.0)

    def test_post_change_mean_shift(self):
        delta = 0.75
        spec = StreamSpec(mu=0.2,
                          scenario=ChangeScenario.at_kstar(delta, 5000),
                          m=2, length=10 ** 4)
        eps = generate_garch11(STUDY_GARCH, 2 + 10 ** 4, rng_stream(6, 0))
        _, stream = generate_stream(spec, eps)
        pre, post = stream[:4999], stream[4999:]
        se = math.sqrt(np.var(pre) / pre.size + np.var(post) / post.size)
        assert post.mean() - pre.mean() == pytest.approx(delta, abs=3 * se)
