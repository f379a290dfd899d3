"""Shared domain types: monitoring parameters, change scenarios, regime labels.

A mean-shift scenario is classified into one of three asymptotic regimes by
the exponent eta = beta*(1-gamma) - 1/2 + gamma, where kstar ~ theta*m**beta
is the change time and gamma the boundary tuning parameter:

    I   (eta < 0, early change):  normalized delay is asymptotically normal,
    II  (eta = 0, knife edge):    limit is a Brownian supremum over (d1, 1),
    III (eta > 0, late change):   limit is a Brownian supremum over (0, 1).

A local shift delta * m**(-rate), rate > 0, is classified by eta - rate.
d1 also depends on the critical value, so asymptotics.compute_normalization
solves it; this module imports no other module of the package.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

SIDES = ("one_sided", "two_sided")
DETECTORS = ("ordinary", "page")

# |eta| below this is treated as the knife-edge regime II
ETA_TOL = 1e-12

# the largest count: a float holds every integer up to 2**53 exactly
MAX_COUNT = 2 ** 53


class ValidationError(ValueError):
    """A parameter violates its documented domain."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _require_count(value, name: str, least: int) -> None:
    """value must be an integer (not a bool, not a float) >= least and at
    most MAX_COUNT."""
    _require(isinstance(value, numbers.Integral)
             and not isinstance(value, bool) and value >= least,
             f"{name} must be an integer >= {least}")
    _require(value <= MAX_COUNT, f"{name} must be at most 2**53")


def _require_gamma(gamma: float) -> None:
    """The boundary tuning exponent must lie in [0, 0.5)."""
    _require(0.0 <= gamma < 0.5, "gamma must lie in [0, 0.5)")


@dataclass(frozen=True)
class MonitoringParams:
    """Configuration of one open-end monitoring run.

    m: length of the change-free training period (>= 2).
    gamma: boundary tuning exponent in [0, 0.5); values near 0.5 speed up
        detection of early changes, values near 0 of late ones.
    alpha: asymptotic false-alarm probability in (0, 1).
    side: "one_sided" (upward shifts) or "two_sided".
    detector: "ordinary" (plain CUSUM) or "page" (CUSUM against its running
        extremes).
    horizon_factor: monitoring is truncated after ceil(horizon_factor * m)
        observations; open-end behaviour is recovered as the factor grows.
    """

    m: int
    gamma: float = 0.0
    alpha: float = 0.1
    side: str = "one_sided"
    detector: str = "page"
    horizon_factor: float = 20.0

    def __post_init__(self):
        _require_count(self.m, "m", 2)  # sample variance needs two points
        _require_gamma(self.gamma)
        _require(0.0 < self.alpha < 1.0, "alpha must lie in (0, 1)")
        _require(self.side in SIDES, f"side must be one of {SIDES}")
        _require(self.detector in DETECTORS, f"detector must be one of {DETECTORS}")
        _require(0.0 < self.horizon_factor < math.inf,
                 "horizon_factor must be positive and finite")
        _require(self.horizon_factor * self.m <= MAX_COUNT,
                 "the horizon, horizon_factor * m, must be at most 2**53")

    @property
    def horizon(self) -> int:
        return math.ceil(self.horizon_factor * self.m)


def resolve_kstar(theta: float, beta: float, m: int) -> int:
    """Change time floor(theta * m**beta).

    Evaluated in plain floating point, so e.g. beta = 1/3, m = 1000 resolves
    to 9 (1000**(1/3) rounds just below 10).
    """
    _require(0.0 < theta < math.inf, "theta must be positive and finite")
    _require(0.0 <= beta < 1.0, "beta must lie in [0, 1)")
    _require_count(m, "m", 1)
    value = theta * m ** beta
    _require(value <= MAX_COUNT, "theta * m**beta must be at most 2**53")
    kstar = math.floor(value)
    _require_count(kstar, "floor(theta * m**beta)", 1)
    return kstar


@dataclass(frozen=True)
class ChangeScenario:
    """A mean-shift alternative: shift delta entering at monitoring index kstar.

    theta and beta record how kstar scales with the training length
    (kstar = floor(theta * m**beta)); scenarios built from an explicit kstar
    use beta = 0 and theta = kstar. sigma is the long-run noise scale of the
    errors. delta is the shift itself; a shift that shrinks with m is
    described by the rate passed to classify_case, not by the scenario.
    """

    delta: float
    kstar: int
    sigma: float = 1.0
    theta: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        _require(math.isfinite(self.delta) and self.delta != 0.0,
                 "delta must be finite and nonzero")
        _require_count(self.kstar, "kstar", 1)
        _require(0.0 < self.sigma < math.inf,
                 "sigma must be positive and finite")
        _require(0.0 < self.theta < math.inf,
                 "theta must be positive and finite")
        _require(0.0 <= self.beta < 1.0, "beta must lie in [0, 1)")

    @classmethod
    def from_exponent(cls, delta: float, theta: float, beta: float, m: int,
                      sigma: float = 1.0) -> "ChangeScenario":
        """Scenario with kstar resolved from (theta, beta) at training length m."""
        return cls(delta=delta, kstar=resolve_kstar(theta, beta, m),
                   sigma=sigma, theta=theta, beta=beta)

    @classmethod
    def at_kstar(cls, delta: float, kstar: int,
                 sigma: float = 1.0) -> "ChangeScenario":
        """Scenario with a fixed change time (beta = 0, theta = kstar).

        A fixed kstar has no growth rate in m, so classify_case labels it
        with beta = 0: at_kstar(1.0, 177) is regime I at gamma = 0.25 and
        m = 1000, where from_exponent(1.0, 1.0, 0.75, 1000) gives the same
        kstar in regime III. a_m and b_m depend on kstar alone and agree."""
        _require_count(kstar, "kstar", 1)  # before float(kstar) can overflow
        return cls(delta=delta, kstar=kstar, sigma=sigma,
                   theta=float(kstar), beta=0.0)


def validate_scenario(scenario: ChangeScenario, m: int) -> None:
    """Warn when the shift is too weak for the delay asymptotics at this m.

    The theory needs sqrt(m)*|delta| to diverge; that cannot be checked for a
    single m, so a finite-sample proxy threshold of 3 on the scale-free
    sqrt(m)*|delta|/sigma triggers a warning rather than a rejection.
    """
    snr = math.sqrt(m) * abs(scenario.delta) / scenario.sigma
    if snr < 3.0:
        warnings.warn(
            f"sqrt(m)*|delta|/sigma = {snr:.3g} < 3: shift too weak for "
            "reliable delay asymptotics at this training length",
            stacklevel=2)


def compute_eta(gamma: float, beta: float) -> float:
    """Regime exponent eta(gamma, beta) = beta*(1-gamma) - 1/2 + gamma."""
    _require_gamma(gamma)
    _require(0.0 <= beta < 1.0, "beta must lie in [0, 1)")
    return beta * (1.0 - gamma) - 0.5 + gamma


def eta_zero_beta(gamma: float) -> float:
    """The change-time exponent at which eta vanishes: (1/2-gamma)/(1-gamma)."""
    _require_gamma(gamma)
    return (0.5 - gamma) / (1.0 - gamma)


@dataclass(frozen=True)
class CaseLabel:
    """Asymptotic regime of a scenario, with the knife-edge constants if any.

    d1 (regime II only) is the left endpoint of the limiting Brownian
    supremum interval; c1 is the limit of |delta| * m**(gamma-1/2) *
    kstar**(1-gamma).
    """

    variant: str
    eta: float
    d1: float | None = None
    c1: float | None = None

    def __post_init__(self):
        _require(self.variant in ("I", "II", "III"),
                 "variant must be 'I', 'II' or 'III'")
        if self.variant == "II":
            if self.d1 is not None:
                _require(0.0 < self.d1 < 1.0, "d1 must lie in (0, 1)")
        else:
            _require(self.d1 is None, "d1 applies to regime II only")


def classify_case(scenario: ChangeScenario, gamma: float, *,
                  rate: float = 0.0) -> CaseLabel:
    """Classify a scenario into regime I, II or III.

    rate 0 means a fixed shift delta; rate > 0 a local shift
    delta_m = delta * m**(-rate). The decision is the sign of eta - rate,
    with |eta - rate| < ETA_TOL treated as the knife edge. For regime II the
    constant c1 = theta**(1-gamma) * |delta| is reported; d1 depends on the
    critical value and is left to asymptotics.compute_normalization.

    The variant never depends on theta (theta only rescales c1), and for a
    fixed shift every beta < (1/2-gamma)/(1-gamma) lands in regime I.
    """
    _require(rate >= 0.0, "rate must be >= 0")
    eta = compute_eta(gamma, scenario.beta)
    effective = eta - rate
    if abs(effective) < ETA_TOL:
        # m**eta * |delta_m| -> |delta| for fixed and local shifts alike
        c1 = scenario.theta ** (1.0 - gamma) * abs(scenario.delta)
        _require(c1 > 0.0, "regime II requires a positive limit constant c1")
        return CaseLabel(variant="II", eta=eta, c1=c1)
    variant = "I" if effective < 0.0 else "III"
    return CaseLabel(variant=variant, eta=eta)
