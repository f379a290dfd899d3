import csv
import io
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from garch_loop import generate_garch11
from pagecusum import (ChangeScenario, Garch11Spec, MonitoringParams,
                       ValidationError, emit_table1, empirical_size, kde,
                       rng_stream, run_monitor, run_replications,
                       summarize_training)
from pagecusum import detectors, experiments
from pagecusum.datagen import CHUNK, generate_garch11_batch
from pagecusum.experiments import (RECORD_COLUMNS, DensityEstimate,
                                   ReplicationRecord, densities_from_records,
                                   read_records_csv, simulate_to_dir,
                                   write_density_csv, write_records_csv)

GARCH = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3)


def small_setup(delta=1.0, kstar=1, m=80, gamma=0.0, horizon_factor=6.0):
    params = MonitoringParams(m=m, gamma=gamma, horizon_factor=horizon_factor)
    scenario = ChangeScenario.at_kstar(delta, kstar)
    return params, scenario


class TestRunReplications:
    def test_record_count_and_order(self):
        params, scenario = small_setup()
        recs = run_replications(params, scenario, GARCH, 37, 1.69, 1.64,
                                seed=1)
        assert len(recs) == 37
        assert [r.rep for r in recs] == list(range(37))

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected(self, mu):
        params, scenario = small_setup()
        with pytest.raises(ValidationError, match="mu"):
            run_replications(params, scenario, GARCH, 20, 1.69, 1.64, seed=1,
                             mu=mu)

    def test_huge_shift_stops_at_one(self):
        params, scenario = small_setup(delta=1e6)
        recs = run_replications(params, scenario, GARCH, 10, 1.69, 1.64,
                                seed=2)
        assert all(r.tau_page == 1 and r.tau_q == 1 for r in recs)
        assert all(r.nu_page is not None and r.nu_q is not None
                   and r.nu_tilde is not None for r in recs)

    def test_pathwise_dominance_at_equal_c(self):
        params, scenario = small_setup(delta=0.8, kstar=40)
        recs = run_replications(params, scenario, GARCH, 60, 1.8, 1.8, seed=3)
        for r in recs:
            if r.tau_q is not None:
                assert r.tau_page is not None and r.tau_page <= r.tau_q

    def test_matches_run_monitor_per_replication(self):
        params, scenario = small_setup(delta=0.9, kstar=10, m=50,
                                       gamma=0.25, horizon_factor=5.0)
        c_page, c_q = 1.9, 1.8
        seed = 11
        recs = run_replications(params, scenario, GARCH, 8, c_page, c_q,
                                seed=seed)
        n = params.m + params.horizon
        for r in recs:
            eps = generate_garch11(GARCH, n, rng_stream(seed, r.rep))
            x = eps.copy()
            x[params.m + scenario.kstar - 1:] += scenario.delta
            train, stream = x[:params.m], list(x[params.m:])
            for det, c, tau in (("page", c_page, r.tau_page),
                                ("ordinary", c_q, r.tau_q)):
                p = MonitoringParams(m=params.m, gamma=params.gamma,
                                     detector=det, side=params.side,
                                     horizon_factor=params.horizon_factor)
                res = run_monitor(train, iter(stream), p, c)
                assert res.tau == tau

    def test_normalization_identities(self):
        from pagecusum import compute_b_m, solve_a_m
        params, scenario = small_setup(delta=1.2, kstar=3)
        c_page, c_q = 1.75, 1.66
        recs = run_replications(params, scenario, GARCH, 25, c_page, c_q,
                                seed=4)
        a_p = solve_a_m(c_page, params.m, scenario.kstar, scenario.delta)
        b_p = compute_b_m(a_p, scenario.delta, 1.0, 0.0, scenario.kstar)
        a_q = solve_a_m(c_q, params.m, scenario.kstar, scenario.delta)
        b_q = compute_b_m(a_q, scenario.delta, 1.0, 0.0, scenario.kstar)
        for r in recs:
            if r.tau_page is not None:
                assert r.nu_page == pytest.approx((r.tau_page - a_p) / b_p)
            if r.tau_q is not None:
                assert r.nu_q == pytest.approx((r.tau_q - a_q) / b_q)
                assert r.nu_tilde == pytest.approx((r.tau_q - a_p) / b_p)

    def test_generation_stops_once_every_path_decided(self, monkeypatch):
        # with a huge shift at kstar = 1 both rules stop at k = 1, so each
        # path needs burn-in + m + one chunk of samples, not the horizon
        params, scenario = small_setup(delta=1e6, horizon_factor=40.0)
        assert params.horizon > 4 * CHUNK
        drawn = []

        def counting(spec, n, n_paths, *args, **kwargs):
            drawn.append(n_paths * (spec.burn_in + n))
            return generate_garch11_batch(spec, n, n_paths, *args, **kwargs)

        monkeypatch.setattr(experiments, "generate_garch11_batch", counting)
        recs = run_replications(params, scenario, GARCH, 10, 1.69, 1.64,
                                seed=2)
        assert all(r.tau_page == 1 and r.tau_q == 1 for r in recs)
        assert sum(drawn) == 10 * (GARCH.burn_in + params.m + CHUNK)

    def test_thread_count_does_not_change_records(self):
        params, scenario = small_setup(delta=0.7, kstar=15)
        one = run_replications(params, scenario, GARCH, 300, 1.7, 1.65,
                               seed=5, threads=1)
        two = run_replications(params, scenario, GARCH, 300, 1.7, 1.65,
                               seed=5, threads=2)
        assert one == two

    def test_block_width_does_not_change_records(self, monkeypatch):
        # 600 reps: two blocks at the default width, five at 125
        params, scenario = small_setup(delta=0.7, kstar=15)
        args = (params, scenario, GARCH, 600, 1.7, 1.65)
        want = run_replications(*args, seed=5)
        for block in (125, experiments._BLOCK):
            monkeypatch.setattr(experiments, "_BLOCK", block)
            for threads in (1, 2):
                assert run_replications(*args, seed=5,
                                        threads=threads) == want

    def test_early_change_rules_are_similar(self):
        # with kstar = 1 the two rules differ only through their critical
        # values, so the normalized delays nearly coincide on average
        params = MonitoringParams(m=1000, gamma=0.0, horizon_factor=3.0)
        scenario = ChangeScenario.at_kstar(1.0, 1)
        recs = run_replications(params, scenario, GARCH, 600, 1.69236,
                                1.64485, seed=6)
        nu_p = np.array([r.nu_page for r in recs if r.nu_page is not None])
        nu_q = np.array([r.nu_q for r in recs if r.nu_q is not None])
        assert abs(nu_p.mean() - nu_q.mean()) <= 0.2

    def test_late_change_page_beats_benchmark(self):
        # kstar = floor(m^0.75): page stops markedly earlier than the
        # ordinary rule under the same normalization
        m = 1000
        params = MonitoringParams(m=m, gamma=0.25, horizon_factor=3.0)
        scenario = ChangeScenario.from_exponent(1.0, 1.0, 0.75, m)
        recs = run_replications(params, scenario, GARCH, 400, 1.89922,
                                1.81023, seed=7)
        both = [(r.nu_page, r.nu_tilde) for r in recs
                if r.nu_page is not None and r.nu_tilde is not None]
        diffs = np.array([p - t for p, t in both])
        assert diffs.size >= 390
        paired_se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        assert diffs.mean() < -2.0 * paired_se
        # small positives can occur (c_page > c_q) but most pairs favor page
        assert np.mean(diffs < 0) > 0.6


class TestEmpiricalSize:
    def test_huge_threshold_never_stops(self):
        params = MonitoringParams(m=100, detector="page", horizon_factor=3.0)
        assert empirical_size(params, GARCH, 50, c=1e3, seed=8) == 0.0

    @pytest.mark.parametrize("c, mu", [
        (math.inf, 0.0), (1.7, math.nan), (1.7, math.inf), (1.7, -math.inf),
    ])
    def test_non_finite_inputs_rejected(self, c, mu):
        params = MonitoringParams(m=100, detector="page", horizon_factor=3.0)
        with pytest.raises(ValidationError):
            empirical_size(params, GARCH, 50, c=c, seed=8, mu=mu)

    def test_doubling_horizon_never_decreases_size(self):
        sizes = []
        for hf in (2.0, 4.0, 8.0):
            params = MonitoringParams(m=150, detector="page",
                                      horizon_factor=hf)
            sizes.append(empirical_size(params, GARCH, 150, c=1.69236,
                                        seed=9))
        assert sizes[0] <= sizes[1] <= sizes[2]

    @pytest.mark.parametrize("side", ["one_sided", "two_sided"])
    @pytest.mark.parametrize("detector", ["page", "ordinary"])
    def test_matches_run_monitor_stop_count(self, detector, side):
        # horizon 5.9 * 120 = 708 crosses one chunk edge and is not a
        # multiple of the chunk length
        params = MonitoringParams(m=120, gamma=0.25, side=side,
                                  detector=detector, horizon_factor=5.9)
        assert params.horizon > CHUNK and params.horizon % CHUNK != 0
        reps, c, seed, mu = 60, 1.1, 17, 0.75
        size = empirical_size(params, GARCH, reps, c, seed=seed, mu=mu)
        stops = 0
        for r in range(reps):
            x = mu + generate_garch11(GARCH, params.m + params.horizon,
                                      rng_stream(seed, r))
            res = run_monitor(x[:params.m], x[params.m:], params, c)
            stops += res.stopped
        assert 0 < stops < reps
        assert size == stops / reps

    def test_threads_do_not_change_size(self):
        params = MonitoringParams(m=100, detector="ordinary",
                                  horizon_factor=3.0)
        a = empirical_size(params, GARCH, 200, c=1.64485, seed=10, threads=1)
        b = empirical_size(params, GARCH, 200, c=1.64485, seed=10, threads=2)
        assert a == b

    def test_block_width_does_not_change_size(self, monkeypatch):
        params = MonitoringParams(m=100, detector="ordinary",
                                  horizon_factor=3.0)
        want = empirical_size(params, GARCH, 600, c=1.4, seed=10)
        assert 0.0 < want < 1.0
        for block in (125, experiments._BLOCK):
            monkeypatch.setattr(experiments, "_BLOCK", block)
            for threads in (1, 2):
                assert empirical_size(params, GARCH, 600, c=1.4, seed=10,
                                      threads=threads) == want


class TestKde:
    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValidationError):
            kde(np.zeros(100), -1.0, 1.0, 11)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite sample value"):
            kde([1.0, bad, 2.0], 0.0, 3.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 3.0),
                                        (math.nan, 3.0), (0.0, math.nan)])
    def test_non_finite_grid_rejected(self, lo, hi):
        with pytest.raises(ValidationError, match="must be finite"):
            kde([1.0, 2.0, 3.0], lo, hi)

    def test_integral_near_one(self):
        x = rng_stream(12, 0).standard_normal(10_000)
        est = kde(x, float(x.min()) - 1.0, float(x.max()) + 1.0, 801)
        integral = np.trapezoid(est.density, est.grid)
        assert 0.99 <= integral <= 1.01

    def test_matches_normal_density(self):
        x = rng_stream(13, 0).standard_normal(100_000)
        est = kde(x, -3.0, 3.0, 241)
        from scipy.stats import norm
        assert np.max(np.abs(est.density - norm.pdf(est.grid))) <= 0.01

    def test_silverman_bandwidth(self):
        x = rng_stream(14, 0).standard_normal(5000)
        est = kde(x, -4.0, 4.0, 101)
        sd = x.std(ddof=1)
        iqr = np.subtract(*np.percentile(x, [75, 25]))
        expected = 0.9 * min(sd, iqr / 1.34) * x.size ** (-0.2)
        assert est.bandwidth == pytest.approx(expected, rel=1e-12)


class TestTable1:
    C_PAGE = {0.0: 1.69236, 0.25: 1.89922, 0.45: 2.45924}
    C_Q = {0.0: 1.64485, 0.25: 1.81023, 0.45: 2.28680}

    def test_canonical_layout_row_count(self):
        rows = emit_table1(self.C_PAGE, self.C_Q, (100, 1000, 10000))
        assert len(rows) == 45

    def test_known_rows_at_gamma_zero(self):
        c_q = {0.0: 1.6449}
        c_page = {0.0: 1.6924}
        rows = emit_table1(c_page, c_q, (100, 10000))
        by_key = {(r["rule"], r["m"]): r for r in rows}
        assert by_key[("1", 100)]["a_q"] == pytest.approx(17.45, abs=0.01)
        assert by_key[("1", 100)]["b_q"] == pytest.approx(4.18, abs=0.01)
        assert by_key[("100", 100)]["a_q"] == pytest.approx(116.45, abs=0.01)
        assert by_key[("m^0.75", 10000)]["a_q"] == pytest.approx(1164.49,
                                                                 abs=0.01)
        assert by_key[("m^0.75", 10000)]["kstar"] == 1000

    def test_mismatched_gammas_rejected(self):
        with pytest.raises(ValidationError, match="same gammas"):
            emit_table1(self.C_PAGE, {0.0: 1.64485}, (100,))

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "table.csv"
        rows = emit_table1(self.C_PAGE, self.C_Q, (100, 1000, 10000),
                           out_path=out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rule,gamma,m,kstar,a_page,b_page,a_q,b_q"
        assert len(lines) == len(rows) + 1


class TestRecordsIo:
    def test_round_trip_exact(self, tmp_path):
        params, scenario = small_setup(delta=0.9, kstar=20)
        recs = run_replications(params, scenario, GARCH, 40, 1.7, 1.6, seed=15)
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        assert read_records_csv(path) == recs

    def test_header_is_exact(self, tmp_path):
        params, scenario = small_setup()
        recs = run_replications(params, scenario, GARCH, 3, 1.7, 1.6, seed=16)
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        first = path.read_text().splitlines()[0]
        assert first == "rep,tau_page,tau_q,nu_page,nu_q,nu_tilde"

    @pytest.mark.parametrize("text", [
        "",
        "rep,tau_page,tau_q,nu_page,nu_q\n",
        "rep,tau_page,tau_q,nu_page,nu_q,nu_tilde\n0,1,1,0.5,0.5\n",
        "rep,tau_page,tau_q,nu_page,nu_q,nu_tilde\n0,1,1,0.5,0.5,0.5,9\n",
        "rep,tau_page,tau_q,nu_page,nu_q,nu_tilde\n0,1,1,nan,0.5,0.5\n",
        "rep,tau_page,tau_q,nu_page,nu_q,nu_tilde\n0,1,1,0.5,-inf,0.5\n",
        "rep,tau_page,tau_q,nu_page,nu_q,nu_tilde\n0,1,1,0.5,0.5,inf\n",
    ])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "records.csv"
        path.write_text(text)
        with pytest.raises(ValidationError):
            read_records_csv(path)


def csv_writer_text(rows) -> str:
    """What csv.writer writes for rows: the byte contract of the writers."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                               2.2250738585072014e-308, 0.1, 1e16])
FLOATS = st.one_of(st.floats(), EDGE_FLOATS)
INTS = st.integers(-2**63, 2**63 - 1)
FIELDS = st.one_of(st.none(), INTS, INTS.map(np.int64), FLOATS,
                   FLOATS.map(np.float64))
RECORDS = st.lists(st.builds(ReplicationRecord, *[FIELDS] * 6), max_size=12)
WRITER_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_records_bytes_match_csv_writer(write, records, path):
    write(records, path)
    rows = [RECORD_COLUMNS] + [[getattr(r, name) for name in RECORD_COLUMNS]
                               for r in records]
    assert path.read_bytes() == csv_writer_text(rows).encode()


def repr_records_writer(records, path):
    """write_records_csv with repr in place of str: wrong for numpy
    scalars, whose repr reads np.int64(5)."""
    lines = [",".join(RECORD_COLUMNS)]
    lines += [",".join("" if v is None else repr(v)
                       for v in (getattr(r, name) for name in RECORD_COLUMNS))
              for r in records]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())


class TestStudyFileBytes:
    @WRITER_SETTINGS
    @given(records=RECORDS)
    def test_records_file_equals_csv_writer(self, tmp_path, records):
        assert_records_bytes_match_csv_writer(write_records_csv, records,
                                              tmp_path / "records.csv")

    def test_repr_writer_fails_the_records_property(self, tmp_path):
        # no shrink phase: the failure is expected, and shrinking it took
        # nearly all of the test's 15 s
        @settings(WRITER_SETTINGS,
                  phases=[Phase.explicit, Phase.reuse, Phase.generate])
        @given(records=RECORDS)
        def prop(records):
            assert_records_bytes_match_csv_writer(
                repr_records_writer, records, tmp_path / "records.csv")

        with pytest.raises(AssertionError):
            prop()

    @WRITER_SETTINGS
    @given(values=st.lists(st.tuples(FLOATS, FLOATS), max_size=40))
    def test_density_file_equals_csv_writer(self, tmp_path, values):
        grid = np.array([x for x, _ in values], dtype=float)
        dens = np.array([d for _, d in values], dtype=float)
        path = tmp_path / "density.csv"
        write_density_csv(DensityEstimate(grid, dens, 1.0, 2), path)
        rows = [("x", "density")] + [[float(x), float(d)]
                                     for x, d in zip(grid, dens)]
        assert path.read_bytes() == csv_writer_text(rows).encode()


def chan_summaries(train):
    """Each row's mean and sd by the combination _row_summaries documents,
    computed row by row in Python floats over CHUNK-long slices, from each
    slice's 1-D mean() and sum of squared deviations."""
    means, sds = [], []
    for row in train:
        n = 0
        for k0 in range(0, row.size, CHUNK):
            piece = row[k0:k0 + CHUNK]
            k = piece.size
            mean_p = float(piece.mean())
            ss_p = float(((piece - mean_p) ** 2).sum())
            if n == 0:
                mean, ss = mean_p, ss_p
            else:
                d = mean_p - mean
                mean = mean + d * (k / (n + k))
                ss = (ss + ss_p) + (d * d) * (n * k / (n + k))
            n += k
        means.append(mean)
        sds.append(math.sqrt(ss / (n - 1)))
    return np.array(means), np.array(sds)


# the distance allowed from the exact mean and sd, in units of
# EPS * (|mean| + sd) and of EPS * (1 + |mean| / sd) * sd: combining block
# moments loses about |mean| / sd relative digits of the sd, as each
# block's mean carries a rounding error of order EPS * |mean|
EPS = np.finfo(float).eps
EXACT_TOL = 32.0


def assert_near_exact(row, mean, sd):
    """mean and sd lie within EXACT_TOL of row's exact mean and sd, taken
    with Fraction arithmetic on its float values."""
    values = [Fraction(v) for v in row.tolist()]
    exact_mean = sum(values) / len(values)
    exact_var = sum((v - exact_mean) ** 2 for v in values) / (len(values) - 1)
    exact_sd = math.sqrt(exact_var)
    ratio = abs(float(exact_mean)) / exact_sd
    assert abs(Fraction(mean) - exact_mean) <= EXACT_TOL * EPS * Fraction(
        abs(float(exact_mean)) + exact_sd)
    assert abs(sd - exact_sd) <= EXACT_TOL * EPS * (1.0 + ratio) * exact_sd


def assert_row_summaries(train):
    """_row_summaries over CHUNK-long column slices of train, and
    summarize_training of each row, give numpy's row.mean() and
    row.std(ddof=1) up to CHUNK columns and chan_summaries' bits past it,
    where up to three rows are also checked against their exact moments.
    The references are taken first, as the call consumes the slices."""
    m = train.shape[1]
    if m <= CHUNK:
        want_mean = np.array([row.mean() for row in train])
        want_sd = np.array([row.std(ddof=1) for row in train])
    else:
        want_mean, want_sd = chan_summaries(train)
        for row, mean, sd in list(zip(train, want_mean, want_sd))[:3]:
            assert_near_exact(row, mean, sd)
    singles = [summarize_training(row) for row in train]
    mean, sd = detectors._row_summaries(train[:, k0:k0 + CHUNK]
                                        for k0 in range(0, m, CHUNK))
    assert mean.tobytes() == want_mean.tobytes()
    assert sd.tobytes() == want_sd.tobytes()
    assert np.array([s.mean for s in singles]).tobytes() == want_mean.tobytes()
    assert np.array([s.sigma_hat for s in singles]).tobytes() == \
        want_sd.tobytes()


@pytest.mark.parametrize("m", [2, 3, 7, 8, 9, 127, 128, 129, CHUNK,
                               CHUNK + 1, 1000, 2001])
@pytest.mark.parametrize("count", [1, 3, 250])
def test_block_summaries_equal_row_summaries(m, count):
    # a numpy whose axis reduction sums rows in another order than a 1-D
    # one, or whose std takes other steps, fails here before the goldens do
    rng = rng_stream(31, m)
    assert_row_summaries(rng.standard_normal((count, m)) * 3.7 + 11.3)


@pytest.mark.parametrize("offset, scale", [(1e6, 1e-3), (-1e6, 1e150),
                                           (0.0, 1e-150)])
def test_block_summaries_at_any_offset_and_scale(offset, scale):
    rng = rng_stream(32, 0)
    for m, count in ((2, 250), (129, 3), (5000, 1)):
        assert_row_summaries(rng.standard_normal((count, m)) * scale + offset)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(0, 600),
       count=st.integers(1, 40), m=st.integers(2, 700),
       scale=st.floats(1e-150, 1e150))
def test_row_summaries_of_a_view_past_leading_columns(seed, b, count, m,
                                                      scale):
    # generate_garch11_batch returns a training block as a view past its
    # burn-in columns: the rows of such a view are contiguous, and that is
    # all that _row_summaries needs for row.mean()'s bits
    block = rng_stream(seed, 0).standard_normal((count, b + m)) * scale
    assert_row_summaries(block[:, b:])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(m=st.one_of(st.integers(CHUNK - 8, CHUNK + 8),
                   st.integers(2 * CHUNK - 8, 2 * CHUNK + 8),
                   st.integers(1490, 1510)),
       count=st.integers(1, 4), start=st.integers(0, 1000),
       seed=st.integers(0, 2**32 - 1), mu=st.floats(-50.0, 50.0))
def test_study_sigma_hat_equals_summarize_training(m, count, start, seed, mu):
    # the sd and mean a study path is scaled by are summarize_training's
    # of the same training values, whatever the number of pieces
    seen = []
    real = experiments._row_summaries

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    params = MonitoringParams(m=m, horizon_factor=0.01)
    with mock.patch.object(experiments, "_row_summaries", spy):
        experiments._block_taus(params, GARCH, mu, seed, start, count,
                                (("page", 1.5),))
    (mean, sd), = seen
    for i in range(count):
        row = mu + generate_garch11(GARCH, m, rng_stream(seed, start + i))
        single = summarize_training(row)
        assert single.mean == mean[i]
        assert single.sigma_hat == sd[i]


class TestSimulateDir:
    def test_outputs_and_meta(self, tmp_path):
        params, scenario = small_setup(delta=1.5, kstar=2, m=60,
                                       horizon_factor=4.0)
        meta = simulate_to_dir(params, scenario, GARCH, 50, 1.69236, 1.64485,
                               seed=17, out_dir=tmp_path)
        for name in ("records.csv", "density_page.csv", "density_q.csv",
                     "density_tilde.csv", "meta.json"):
            assert (tmp_path / name).exists()
        assert meta["reps"] == 50
        assert meta["a_page"] > meta["kstar"]
        assert meta["case"]["variant"] == "I"
        recs = read_records_csv(tmp_path / "records.csv")
        assert len(recs) == 50
        assert meta["n_nostop_page"] == sum(1 for r in recs
                                            if r.tau_page is None)

    def test_numpy_integer_counts_write_the_same_meta(self, tmp_path):
        def study(out, to_int, mu=0.0):
            params, scenario = small_setup(delta=1.5, kstar=to_int(2),
                                           m=to_int(60), horizon_factor=4.0)
            garch = Garch11Spec(0.5, 0.2, 0.3, burn_in=to_int(10))
            simulate_to_dir(params, scenario, garch, to_int(20), 1.69236,
                            1.64485, seed=to_int(17), out_dir=out, mu=mu)
            return (out / "meta.json").read_bytes()

        assert study(tmp_path / "np", np.int64) == study(tmp_path / "py", int)
        with pytest.raises(TypeError):
            study(tmp_path / "f32", int, mu=np.float32(0.0))
        assert not (tmp_path / "f32" / "meta.json").exists()

    def test_density_files_integrate_to_one(self, tmp_path):
        params, scenario = small_setup(delta=1.0, kstar=5, m=100,
                                       horizon_factor=6.0)
        meta = simulate_to_dir(params, scenario, GARCH, 300, 1.69236, 1.64485,
                               seed=18, out_dir=tmp_path)
        assert meta["n_nostop_q"] == 0
        import csv as csvmod
        for name in ("density_page.csv", "density_q.csv",
                     "density_tilde.csv"):
            with open(tmp_path / name, newline="") as fh:
                rows = list(csvmod.DictReader(fh))
            x = np.array([float(r["x"]) for r in rows])
            d = np.array([float(r["density"]) for r in rows])
            assert 0.99 <= np.trapezoid(d, x) <= 1.01

    def test_rerun_removes_stale_density_files(self, tmp_path):
        params = MonitoringParams(m=50, horizon_factor=4.0)
        names = ("density_page.csv", "density_q.csv", "density_tilde.csv")
        simulate_to_dir(params, ChangeScenario.at_kstar(3.0, 3), GARCH, 20,
                        1.69236, 1.64485, seed=19, out_dir=tmp_path)
        assert all((tmp_path / name).exists() for name in names)
        meta = simulate_to_dir(params, ChangeScenario.at_kstar(3.0, 500),
                               GARCH, 20, 50.0, 50.0, seed=19,
                               out_dir=tmp_path)
        assert meta["n_nostop_page"] == meta["n_nostop_q"] == 20
        assert not any((tmp_path / name).exists() for name in names)

    def test_densities_skip_missing_values(self):
        from pagecusum import ReplicationRecord
        recs = [ReplicationRecord(0, None, None, None, None, None),
                ReplicationRecord(1, 1, 1, 0.1, 0.2, 0.3)]
        assert densities_from_records(recs) == {}
