"""Normalization sequences and limit laws for the detection delay.

For a scenario (delta, kstar, sigma) and critical value c, the stopping time
tau is centered and scaled by deterministic sequences

    a = a_m(c):  unique root of  a = (sigma*c*m**(1/2-gamma)/|delta|) * a**gamma + kstar,
    b = b_m(c):  sigma*sqrt(a)/|delta| / (1 - gamma*(1 - kstar/a)),

so that (tau - a)/b converges to a regime-dependent law: standard normal for
the ordinary detector, and for the page detector Psi(x) = 1 - Psi_bar(-x)
with Psi_bar the distribution function of a Brownian supremum whose time
interval depends on the regime (see model.CaseLabel). Every regime's Psi_bar
is evaluated in closed form.
"""

import math
from dataclasses import dataclass, replace

from .model import (CaseLabel, ChangeScenario, ValidationError, _numpy,
                    _require, _require_count, _require_gamma, classify_case)

np = _numpy()

# relative residual allowed on the fixed point a = K*a**gamma + kstar
RESIDUAL_BOUND = 1e-10


class ConvergenceError(RuntimeError):
    """The fixed-point solver failed to reach its tolerance."""


def _check_common(c, m, kstar, delta, sigma, gamma):
    _require(0.0 < c < math.inf, "critical value c must be positive and finite")
    _require_count(m, "m", 1)
    _require_count(kstar, "kstar", 1)
    _check_delta_sigma(delta, sigma)
    _require_gamma(gamma)


def _check_delta_sigma(delta, sigma):
    _require(0.0 < abs(delta) < math.inf, "delta must be nonzero and finite")
    _require(0.0 < sigma < math.inf, "sigma must be positive and finite")


def _root_power(base: float, gamma: float, what: str) -> float:
    """base ** (1 / (1 - gamma)) for base >= 0; ValidationError naming what
    when it overflows, to inf or with the OverflowError a float ** raises."""
    try:
        value = base ** (1.0 / (1.0 - gamma))
    except OverflowError:
        value = math.inf
    _require(value < math.inf, f"{what} overflows a float")
    return value


def _coefficient(c, m, delta, sigma, gamma) -> float:
    """K = sigma*c*m**(1/2-gamma)/|delta| of a = K*a**gamma + kstar."""
    return sigma * c * m ** (0.5 - gamma) / abs(delta)


def solve_a_m(c: float, m: int, kstar: int, delta: float, sigma: float = 1.0,
              gamma: float = 0.0) -> float:
    """Centering sequence a_m(c) >= kstar; ValidationError if it overflows.

    The fixed point of x -> (K + kstar/x**gamma)**(1/(1-gamma)) with
    K = sigma*c*m**(1/2-gamma)/|delta| is iterated from
    x0 = max(kstar, K**(1/(1-gamma))); the map is a contraction near the root
    (derivative magnitude (gamma/(1-gamma)) * kstar/a < 1), but slowly when
    gamma nears 1/2 and K is small, as in solve_a_m(1.0, 1000, 1, 100.0, 1.0,
    0.48); Newton on x**(1-gamma) - K - kstar*x**(-gamma) then finishes.
    At gamma = 0 the map is constant, so a_m = K + kstar to the bit.
    """
    _check_common(c, m, kstar, delta, sigma, gamma)
    K = _coefficient(c, m, delta, sigma, gamma)
    x = max(float(kstar), _root_power(K, gamma, "a_m"))
    for _ in range(200):
        x_next = _root_power(K + kstar / x ** gamma, gamma, "a_m")
        if abs(x_next - x) <= 1e-12 * x_next:
            return x_next
        x = x_next
    for _ in range(100):
        h = x ** (1.0 - gamma) - K - kstar * x ** (-gamma)
        dh = (1.0 - gamma) * x ** (-gamma) + gamma * kstar * x ** (-gamma - 1.0)
        step = h / dh
        x -= step
        if abs(step) <= 1e-12 * x:
            return x
    raise ConvergenceError(
        f"a_m fixed point did not converge (c={c}, m={m}, kstar={kstar}, "
        f"delta={delta}, sigma={sigma}, gamma={gamma})")


def a_m_residual(a: float, c: float, m: int, kstar: int, delta: float,
                 sigma: float = 1.0, gamma: float = 0.0) -> float:
    """Defect |a - (K*a**gamma + kstar)| of a candidate centering value."""
    return abs(a - (_coefficient(c, m, delta, sigma, gamma) * a ** gamma
                    + kstar))


def compute_b_m(a_m: float, delta: float, sigma: float, gamma: float,
                kstar: int) -> float:
    """Scaling sequence b_m(c) evaluated at the centering value a_m."""
    _require_count(kstar, "kstar", 1)
    _require(a_m >= kstar, "a_m must be >= kstar")
    _check_delta_sigma(delta, sigma)
    _require_gamma(gamma)
    return sigma * math.sqrt(a_m) / abs(delta) \
        / (1.0 - gamma * (1.0 - kstar / a_m))


def solve_d1(c: float, sigma: float, c1: float, gamma: float) -> float:
    """Root in (0, 1) of d = 1 - (c*sigma/c1) * d**(1-gamma), by bisection.

    f(d) = 1 - (c*sigma/c1)*d**(1-gamma) - d is strictly decreasing with
    f(0+) = 1 and f(1) < 0, so the root is unique; bisection runs until
    |f| <= 1e-12.
    """
    _require(0.0 < c < math.inf, "c must be positive and finite")
    _require(0.0 < sigma < math.inf, "sigma must be positive and finite")
    _require(c1 > 0.0, "c1 must be positive")
    _require_gamma(gamma)
    ratio = c * sigma / c1
    lo, hi = 0.0, 1.0
    mid = 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = 1.0 - ratio * mid ** (1.0 - gamma) - mid
        if abs(f) <= 1e-12:
            return mid
        if f > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def compute_d2(c: float, sigma: float, c1: float, gamma: float,
               d1: float) -> float:
    """Limiting ratio a_m/kstar in the knife-edge regime:
    (sigma*c/c1 + d1**gamma)**(1/(1-gamma))."""
    _require(0.0 < d1 < 1.0, "d1 must lie in (0, 1)")
    _require(0.0 < c < math.inf and 0.0 < sigma < math.inf and c1 > 0.0,
             "c and sigma must be positive and finite, c1 positive")
    _require_gamma(gamma)
    return (sigma * c / c1 + d1 ** gamma) ** (1.0 / (1.0 - gamma))


def compute_N(m: int, x: float, c: float, kstar: int, delta: float,
              sigma: float, gamma: float, a_m: float) -> float:
    """Deterministic index N(m, x) with P(tau > N(m, x)) -> Psi_bar(x).

    Strictly decreasing in x, with N(m, 0) = a_m (at x = 0 the x-term drops
    and the bracket is exactly a_m**(1-gamma)). Raises when x is not finite,
    so large that the bracket is nonpositive, or N overflows a float.
    """
    _check_common(c, m, kstar, delta, sigma, gamma)
    _require(math.isfinite(x), "x must be finite")
    if x == 0.0:
        return a_m
    K = _coefficient(c, m, delta, sigma, gamma)
    u = (1.0 - gamma) / (1.0 - gamma * (1.0 - kstar / a_m))
    bracket = K + kstar / a_m ** gamma \
        - sigma * x * a_m ** (0.5 - gamma) * u / abs(delta)
    if bracket <= 0.0:
        raise ValidationError(
            f"x = {x} is out of range for this scenario (nonpositive bracket)")
    return _root_power(bracket, gamma, f"N(m, x) at x = {x}")


@dataclass(frozen=True)
class AsymptoticNormalization:
    """Centering/scaling pair for a scenario, with its regime label."""

    a_m: float
    b_m: float
    case: CaseLabel
    residual: float

    def __post_init__(self):
        _require(self.residual <= RESIDUAL_BOUND * self.a_m,
                 "fixed-point residual exceeds tolerance")


def compute_normalization(c: float, m: int, scenario: ChangeScenario,
                          gamma: float) -> AsymptoticNormalization:
    """Assemble a_m, b_m and the regime label (d1 included) for a scenario."""
    case = classify_case(scenario, gamma)
    if case.variant == "II":
        case = replace(case, d1=solve_d1(c, scenario.sigma, case.c1, gamma))
    a = solve_a_m(c, m, scenario.kstar, scenario.delta, scenario.sigma, gamma)
    res = a_m_residual(a, c, m, scenario.kstar, scenario.delta,
                       scenario.sigma, gamma)
    b = compute_b_m(a, scenario.delta, scenario.sigma, gamma, scenario.kstar)
    return AsymptoticNormalization(a_m=a, b_m=b, case=case, residual=res)


@dataclass(frozen=True)
class LimitLaw:
    """Limit law of the normalized delay, determined by the regime label."""

    case: CaseLabel

    def __post_init__(self):
        if self.case.variant == "II":
            _require(self.case.d1 is not None,
                     "regime II limit law needs d1")

    @property
    def variant(self) -> str:
        return self.case.variant

    @property
    def d1(self) -> float | None:
        return self.case.d1

    @classmethod
    def for_variant(cls, variant: str, d1: float | None = None) -> "LimitLaw":
        """Limit law from a bare regime name (eta left unspecified)."""
        return cls(CaseLabel(variant=variant, eta=math.nan, d1=d1))


def limit_cdf_upper(x, law: LimitLaw):
    """Psi_bar(x): distribution function of the limiting Brownian supremum.

    Regime I: Phi(x). Regime III: 0 for x < 0 and 2*Phi(x) - 1 for x >= 0.
    Regime II: P(sup over (d1, 1) of W <= x) in closed form,

        Psi_bar(x) = Phi(x) - 2*T(x, sqrt((1 - d1)/d1)),

    with T Owen's T function (Owen 1956, Ann. Math. Statist. 27). By the
    reflection principle, Psi_bar(x) = 2*Phi2(x/sqrt(d1), x; sqrt(d1))
    - Phi(x/sqrt(d1)), Phi2 the standard bivariate normal CDF with the
    correlation sqrt(d1) of W(d1) and W(1); Owen's identity for Phi2 leaves
    one T term, as the other has argument 0. The formula tends to regime I
    as d1 -> 1 and to regime III as d1 -> 0, and Psi_bar(0) =
    asin(sqrt(d1))/pi. Accepts scalars or arrays.
    """
    # imported on first use: scipy.special would dominate the start-up of
    # every command that loads asymptotics
    from scipy import special

    arr = np.asarray(x, dtype=float)
    if law.variant == "I":
        out = special.ndtr(arr)
    elif law.variant == "III":
        out = np.where(arr < 0.0, 0.0, 2.0 * special.ndtr(arr) - 1.0)
    else:
        a = math.sqrt((1.0 - law.d1) / law.d1)
        out = np.clip(special.ndtr(arr) - 2.0 * special.owens_t(arr, a),
                      0.0, 1.0)
    return float(out) if np.isscalar(x) else out


def limit_cdf(x, law: LimitLaw):
    """Psi(x) = 1 - Psi_bar(-x): limit CDF of the normalized delay."""
    arr = np.asarray(x, dtype=float)
    out = 1.0 - limit_cdf_upper(-arr, law)
    return float(out) if np.isscalar(x) else out
