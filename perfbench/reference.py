"""Reference computations made apart from the program.

Nothing here imports pagecusum. The replication check redraws each
replication's normals from the documented stream key, runs the GARCH(1,1)
recursion and both detectors with plain Python floats, and finds the first
crossings; the program's stopping times must equal these exactly. The other
helpers give exact normal quantiles, the a_m/b_m defining equations solved by
bisection, and the published normalization entries.
"""

import math
import statistics

import numpy as np

_UINT64 = 1 << 64


def philox_normals(seed: int, index: int, n: int) -> np.ndarray:
    """n standard normals of stream `index`: Philox, key seed*2**64 + index."""
    key = (seed % _UINT64) * _UINT64 + (index % _UINT64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


def boundary(m: int, k: int, gamma: float) -> float:
    """g(m, k) = sqrt(m) * (1 + k/m) * (k/(k+m))**gamma."""
    return math.sqrt(m) * (1.0 + k / m) * (k / (k + m)) ** gamma


def first_crossings(seed, rep, garch, m, horizon, gamma, c_page, c_q,
                    kstar=None, delta=0.0):
    """(tau_page, tau_q) of one replication, one-sided; None = no stop.

    garch is (omega, alpha_g, beta_g, burn_in). The series is the GARCH path
    after burn-in; a shift delta enters at monitoring index kstar (1-based).
    Returns None for both when the training sample is constant.
    """
    omega, a_g, b_g, burn_in = garch
    z = philox_normals(seed, rep, burn_in + m + horizon).tolist()
    sig2 = omega / (1.0 - a_g - b_g)
    e = 0.0
    train = []
    for pos in range(burn_in + m):
        sig2 = omega + a_g * e * e + b_g * sig2
        e = math.sqrt(sig2) * z[pos]
        if pos >= burn_in:
            train.append(e)
    mean = math.fsum(train) / m
    var = math.fsum((t - mean) ** 2 for t in train) / (m - 1)
    if not var > 0.0:
        return None, None
    sd = math.sqrt(var)
    q = q_min = 0.0
    tau_page = tau_q = None
    for k in range(1, horizon + 1):
        sig2 = omega + a_g * e * e + b_g * sig2
        e = math.sqrt(sig2) * z[burn_in + m + k - 1]
        x = e + (delta if kstar is not None and k >= kstar else 0.0)
        q += x - mean
        q_min = min(q_min, q)
        g = boundary(m, k, gamma)
        if tau_page is None and q - q_min >= sd * c_page * g:
            tau_page = k
        if tau_q is None and q >= sd * c_q * g:
            tau_q = k
        if tau_page is not None and tau_q is not None:
            break
    return tau_page, tau_q


def numpy_first_crossing(train, stream, c, gamma, detector, horizon):
    """First k with statistic >= sd*c*g(m, k), one-sided; None = no stop."""
    train = np.asarray(train, dtype=float)
    x = np.asarray(stream, dtype=float)[:horizon]
    m = train.size
    q = np.cumsum(x - train.mean())
    if detector == "page":
        stat = q - np.minimum(np.minimum.accumulate(q), 0.0)
    else:
        stat = q
    k = np.arange(1, x.size + 1, dtype=float)
    g = math.sqrt(m) * (1.0 + k / m) * (k / (k + m)) ** gamma
    hits = np.flatnonzero(stat >= train.std(ddof=1) * c * g)
    return int(hits[0]) + 1 if hits.size else None


def exact_ordinary_quantile(alpha: float) -> float:
    """(1-alpha)-quantile of sup_{t<=1} W(t): Phi^-1(1 - alpha/2)."""
    return statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)


def quantile_std_err(alpha: float, reps: int) -> float:
    """Asymptotic std error of the (1-alpha) sample quantile of sup W.

    The density of sup W = |N(0, 1)| at its quantile c is 2*phi(c).
    """
    c = exact_ordinary_quantile(alpha)
    phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    return math.sqrt(alpha * (1.0 - alpha) / reps) / (2.0 * phi)


def solve_a(c, m, kstar, delta=1.0, sigma=1.0, gamma=0.0) -> float:
    """Root of a = K * a**gamma + kstar, K = sigma*c*m**(1/2-gamma)/|delta|."""
    K = sigma * c * m ** (0.5 - gamma) / abs(delta)
    lo = float(kstar)
    hi = max(lo, (K + kstar) ** (1.0 / (1.0 - gamma))) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - K * mid ** gamma - kstar < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def b_of(a, kstar, delta=1.0, sigma=1.0, gamma=0.0) -> float:
    """b = sigma*sqrt(a)/|delta| / (1 - gamma*(1 - kstar/a))."""
    return (sigma * math.sqrt(a) / abs(delta)
            / (1.0 - gamma * (1.0 - kstar / a)))


def a_residual(a, c, m, kstar, delta=1.0, sigma=1.0, gamma=0.0) -> float:
    """Relative defect of a in its defining equation."""
    K = sigma * c * m ** (0.5 - gamma) / abs(delta)
    return abs(a - (K * a ** gamma + kstar)) / a


# change-time rules of the normalization table: label -> kstar(m)
TABLE_KSTAR = {
    "1": lambda m: 1,
    "100": lambda m: 100,
    "m^0.45": lambda m: math.floor(m ** 0.45),
    "m^0.5": lambda m: math.floor(m ** 0.5),
    "m^(1/3)": lambda m: math.floor(m ** (1.0 / 3.0)),
    "m^(1/11)": lambda m: math.floor(m ** (1.0 / 11.0)),
    "m^0.75": lambda m: math.floor(m ** 0.75),
}

# published normalization entries at alpha = 0.1, m = 1000:
# (rule, gamma) -> (a_page, b_page, a_q, b_q)
PUBLISHED_M1000 = {
    ("1", 0.0): (54.52, 7.38, 53.01, 7.28),
    ("1", 0.25): (24.84, 6.56, 23.39, 6.36),
    ("1", 0.45): (11.37, 5.72, 10.18, 5.37),
    ("100", 0.0): (153.52, 12.39, 152.01, 12.33),
    ("100", 0.25): (136.51, 12.52, 134.68, 12.40),
    ("100", 0.45): (131.18, 12.82, 128.75, 12.61),
    ("m^0.45", 0.0): (75.52, 8.69, 74.01, 8.60),
    ("m^0.45", 0.25): (50.47, 8.27, 48.92, 8.11),
    ("m^0.45", 0.45): (40.34, 7.98, 38.75, 7.73),
    ("m^0.5", 0.0): (84.52, 9.19, 83.01, 9.11),
    ("m^(1/3)", 0.25): (34.97, 7.26, 33.49, 7.08),
    ("m^(1/11)", 0.45): (11.37, 5.72, 10.18, 5.37),
    ("m^0.75", 0.0): (230.52, 15.18, 229.01, 15.13),
    ("m^0.75", 0.25): (218.04, 15.50, 216.03, 15.39),
    ("m^0.75", 0.45): (216.02, 16.00, 213.06, 15.80),
}
