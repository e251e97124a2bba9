"""Battery-assisted conversions: feasibility, swap protocols, and rates.

A conversion rho -> sigma is licensed whenever the chosen measure does not
increase: the battery absorbs the difference.  ``swap_protocol`` builds the
licensing protocol explicitly (battery prepared in the target, local
relabeling of system and battery slots) and checks it is exact.  Rate
planning turns measure ratios into copy counts (m, n) by best rational
approximation from below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    ApplicabilityError,
    InfeasibleError,
    SearchExhaustedError,
    ShapeError,
    UnboundedRateError,
    ValidationError,
)
from .measures import (
    RELATIVE_ENTROPY,
    OptimizerOptions,
    evaluate,
    measure_spec,
)
from .qmat import BipartiteState, binary_entropy, partial_trace, permute_factors, tensor, trace_distance
from .states import PureSchmidtState, product_pure, random_mixed, random_pure

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"

VALUE_RTOL = 1e-9
BATTERY_GAIN_ATOL = 1e-9
SWAP_EXACTNESS_ATOL = 1e-12
RATE_DENOM_MAX = 10**6
RATE_EXACT_ATOL = 1e-12
TARGET_RESOURCE_MIN = 1e-9
SEARCH_BUDGET = 100_000

# Reduced optimizer budget used by the continuity check, which runs the
# variational measure on tensor products up to dimension 16.
CONTINUITY_OPTS = OptimizerOptions(restarts=2, max_iters=1000)
# Screening budget used inside the pair search before full confirmation.
SEARCH_SCREEN_OPTS = OptimizerOptions(restarts=3, max_iters=1500)


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """Outcome of an explicit battery protocol."""

    initial_global: BipartiteState
    final_global: BipartiteState
    battery_measure: str
    e_battery_before: float
    e_battery_after: float
    feasible: bool
    final_system_trace_distance: float

    def __post_init__(self) -> None:
        if self.feasible and self.e_battery_after < self.e_battery_before - BATTERY_GAIN_ATOL:
            raise ValidationError(
                "feasible protocol decreased the battery: "
                f"{self.e_battery_before:.12g} -> {self.e_battery_after:.12g}"
            )


@dataclass(frozen=True)
class RatePlan:
    """Copy counts approximating a conversion rate from below.

    ``m / n <= rate`` up to 1e-12 (the exact case snaps to the nearest
    rational); ``epsilon_gap = rate - m/n``.
    """

    measure: str
    rate: float
    m: int
    n: int
    epsilon_gap: float
    exact: bool
    zero_error: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 0:
            raise ValidationError(f"bad copy counts ({self.m}, {self.n})")
        if self.m / self.n > self.rate + RATE_EXACT_ATOL:
            raise ValidationError(f"{self.m}/{self.n} exceeds rate {self.rate:.12g}")


@dataclass(frozen=True)
class MultiMeasureBound:
    """Rate bounds when two measures must both be monotone."""

    measure_1: str
    measure_2: str
    r_forward: float
    r_backward: float
    product: float


@dataclass(frozen=True)
class ContinuityReport:
    """Two-sided comparison of a measured jump against its continuity bound."""

    epsilon: float
    lhs: float
    rhs: float
    slack: float
    holds: bool
    e_rho_tau: float
    e_sigma_tau: float


@dataclass(frozen=True)
class BalanceReport:
    """System resource drop versus battery gain for a protocol."""

    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True, eq=False)
class PairSearchResult:
    """Pair found by :func:`search_nonequivalent_pair`, its values and their rate bound."""

    rho: BipartiteState
    sigma: BipartiteState
    values_rho: tuple[float, float]
    values_sigma: tuple[float, float]
    samples_used: int
    bound: MultiMeasureBound


def _values(rho, sigma, measure_id: str, opts: OptimizerOptions | None):
    return evaluate(measure_id, rho, opts).value, evaluate(measure_id, sigma, opts).value


def _verdict(e_rho: float, e_sigma: float, value_slack: float) -> str:
    """Verdict from the two values; each value carries ``value_slack``."""
    band = VALUE_RTOL * max(1.0, abs(e_rho), abs(e_sigma))
    slack = 2.0 * value_slack
    diff = e_rho - e_sigma
    if slack > 0.0 and abs(diff) <= band + slack:
        return UNDECIDED
    if diff >= -band:
        return FEASIBLE
    return INFEASIBLE


def feasible(rho, sigma, measure_id: str, opts: OptimizerOptions | None = None) -> str:
    """Verdict for rho -> sigma under one monotone measure.

    Exact-formula measures decide with a relative tolerance of 1e-9;
    optimizer-backed values carry slack, and a gap inside the combined
    slack returns ``"undecided"``.
    """
    spec = measure_spec(measure_id)
    return _verdict(*_values(rho, sigma, measure_id, opts), spec.value_slack)


def _padded_pair(rho: BipartiteState, sigma: BipartiteState):
    """Append product pure states so both operands share dimensions."""
    if (rho.dim_a, rho.dim_b) == (sigma.dim_a, sigma.dim_b):
        return rho, sigma
    return (
        tensor(rho, product_pure(sigma.dim_a, sigma.dim_b)),
        tensor(sigma, product_pure(rho.dim_a, rho.dim_b)),
    )


def swap_protocol(rho, sigma, measure_id: str, opts: OptimizerOptions | None = None) -> ProtocolReport:
    """Run the licensing protocol: battery starts in the target, slots swap.

    The battery is prepared in sigma, the joint state rho (x) sigma is
    rearranged by the local relabeling A<->A', B<->B', and the system ends
    exactly in sigma while the battery keeps rho.  Raises
    :class:`InfeasibleError` unless the conversion is licensed.
    """
    spec = measure_spec(measure_id)
    e_rho, e_sigma = _values(rho, sigma, measure_id, opts)
    verdict = _verdict(e_rho, e_sigma, spec.value_slack)
    if verdict != FEASIBLE:
        raise InfeasibleError(f"conversion is {verdict} under {measure_id}")
    if isinstance(rho, PureSchmidtState):
        rho = rho.to_bipartite()
    if isinstance(sigma, PureSchmidtState):
        sigma = sigma.to_bipartite()

    rho_p, sigma_p = _padded_pair(rho, sigma)
    initial = tensor(rho_p, sigma_p)
    dims = (rho_p.dim_a, sigma_p.dim_a, rho_p.dim_b, sigma_p.dim_b)
    swapped = permute_factors(initial.matrix, dims, (1, 0, 3, 2))
    final = tensor(sigma_p, rho_p)
    exactness = trace_distance(swapped, final.matrix)
    if exactness > SWAP_EXACTNESS_ATOL:
        raise ValidationError(f"swap relabeling missed the target by {exactness:.3e}")

    final_system = partial_trace(final, keep=[0])
    return ProtocolReport(
        initial_global=initial,
        final_global=final,
        battery_measure=measure_id,
        e_battery_before=e_sigma,
        e_battery_after=e_rho,
        feasible=True,
        final_system_trace_distance=trace_distance(final_system, sigma),
    )


def _best_rational_below(x: float):
    """Best fraction m/n <= x with n <= RATE_DENOM_MAX, plus exactness flag.

    The nearest rational within 1e-12 wins outright (exact case); otherwise
    the lower Farey neighbour of the nearest rational is returned, which is
    the optimal one-sided approximant.
    """
    if x < 0.0 or not math.isfinite(x):
        raise ValidationError(f"rate must be finite and nonnegative, got {x!r}")
    exact_x = Fraction(x)
    near = exact_x.limit_denominator(RATE_DENOM_MAX)
    if abs(float(near) - x) <= RATE_EXACT_ATOL:
        return near.numerator, near.denominator, True
    if near < exact_x:
        return near.numerator, near.denominator, False
    p, q = near.numerator, near.denominator
    if q == 1:
        v = RATE_DENOM_MAX
        u = p * v - 1
    else:
        v0 = pow(p, -1, q)
        v = v0 + q * ((RATE_DENOM_MAX - v0) // q)
        u = (p * v - 1) // q
    g = math.gcd(u, v)
    return u // g, v // g, False


def conversion_rate(rho, sigma, measure_id: str, opts: OptimizerOptions | None = None) -> RatePlan:
    """Achievable copy ratio for rho -> sigma under one additive measure."""
    e_rho, e_sigma = _values(rho, sigma, measure_id, opts)
    if e_sigma <= TARGET_RESOURCE_MIN:
        raise UnboundedRateError(
            f"target carries no resource under {measure_id} (value {e_sigma:.3e})"
        )
    rate = e_rho / e_sigma
    m, n, exact = _best_rational_below(rate)
    return RatePlan(
        measure=measure_id,
        rate=rate,
        m=m,
        n=n,
        epsilon_gap=rate - m / n,
        exact=exact,
    )


def zero_error_rate(rho, sigma, measure_id: str, opts: OptimizerOptions | None = None) -> RatePlan:
    """Single-shot exact rate; only defined for measures the registry declares additive."""
    if not measure_spec(measure_id).additive:
        raise ApplicabilityError(f"zero-error rate needs an additive measure, got {measure_id!r}")
    return replace(conversion_rate(rho, sigma, measure_id, opts), zero_error=True)


def multi_measure_bound(
    rho, sigma, measure_1: str, measure_2: str, opts: OptimizerOptions | None = None
) -> MultiMeasureBound:
    """Rate bounds when both measures must be monotone on the battery."""
    return _multi_bound(
        measure_1, measure_2, _values(rho, sigma, measure_1, opts), _values(rho, sigma, measure_2, opts)
    )


def _multi_bound(measure_1: str, measure_2: str, values_1, values_2) -> MultiMeasureBound:
    """Forward and backward rate bounds from each measure's (rho, sigma) values."""
    (v1r, v1s), (v2r, v2s) = values_1, values_2

    def bound(num1, den1, num2, den2):
        ratios = [n / d for n, d in ((num1, den1), (num2, den2)) if d > TARGET_RESOURCE_MIN]
        if not ratios:
            raise UnboundedRateError("both targets carry no resource")
        return min(ratios)

    fwd = bound(v1r, v1s, v2r, v2s)
    bwd = bound(v1s, v1r, v2s, v2r)
    return MultiMeasureBound(
        measure_1=measure_1,
        measure_2=measure_2,
        r_forward=fwd,
        r_backward=bwd,
        product=fwd * bwd,
    )


def _opposite_with_margin(x1, x2, y1, y2, margin) -> bool:
    """x beats y on measure 1 while y beats x on measure 2, with margin."""
    return x1 >= y1 + margin and x2 <= y2 - margin


def search_nonequivalent_pair(
    measure_1: str,
    measure_2: str,
    seed: int = 0,
    budget: int = SEARCH_BUDGET,
    margin: float = 1e-3,
) -> PairSearchResult:
    """Find two-qubit states ordered oppositely by the two measures.

    Samples Haar pure states mixed with white noise and evaluates both
    measures per sample (variational ones at a reduced screening budget).
    Screen-level hits are confirmed at the default budget, including the
    product bound.  Raises :class:`SearchExhaustedError` once ``budget``
    sampled states yield no pair.
    """
    spec1 = measure_spec(measure_1)
    spec2 = measure_spec(measure_2)
    pure_sampling = spec1.pure_only or spec2.pure_only
    expensive = {RELATIVE_ENTROPY}
    rng = np.random.default_rng(seed)

    def sample() -> BipartiteState:
        if pure_sampling:
            return random_pure(2, 2, rng)
        return random_mixed(2, 2, rng)

    def screen(measure_id: str, state) -> float:
        o = SEARCH_SCREEN_OPTS if measure_id in expensive else None
        return evaluate(measure_id, state, o).value

    # Screening uses extra headroom so that confirmation at the default
    # budget rarely overturns a hit.
    screen_margin = margin if (measure_1 not in expensive and measure_2 not in expensive) else max(
        margin, 3e-3
    )

    def confirmed(rho, sigma, used: int) -> PairSearchResult | None:
        values_1 = _values(rho, sigma, measure_1, None)
        values_2 = _values(rho, sigma, measure_2, None)
        (v1r, v1s), (v2r, v2s) = values_1, values_2
        if not _opposite_with_margin(v1r, v2r, v1s, v2s, margin):
            return None
        bound = _multi_bound(measure_1, measure_2, values_1, values_2)
        if bound.product >= 1.0 - margin:
            return None
        return PairSearchResult(
            rho=rho,
            sigma=sigma,
            values_rho=(v1r, v2r),
            values_sigma=(v1s, v2s),
            samples_used=used,
            bound=bound,
        )

    pool: list[BipartiteState] = []
    pool_v1: list[float] = []
    pool_v2: list[float] = []
    pool_cap = 512
    for used in range(1, budget + 1):
        state = sample()
        v1 = screen(measure_1, state)
        v2 = screen(measure_2, state)
        if pool:
            o1 = np.asarray(pool_v1)
            o2 = np.asarray(pool_v2)
            # new state as rho: wins on measure 1, loses on measure 2 (or flipped)
            fwd = np.minimum((v1 - o1), (o2 - v2)) - screen_margin
            bwd = np.minimum((o1 - v1), (v2 - o2)) - screen_margin
            strength = np.maximum(fwd, bwd)
            j = int(np.argmax(strength))
            if strength[j] >= 0.0:
                hit = (
                    confirmed(state, pool[j], used)
                    if fwd[j] >= bwd[j]
                    else confirmed(pool[j], state, used)
                )
                if hit is not None:
                    return hit
        pool.append(state)
        pool_v1.append(v1)
        pool_v2.append(v2)
        if len(pool) > pool_cap:
            pool.pop(0)
            pool_v1.pop(0)
            pool_v2.pop(0)
    raise SearchExhaustedError(
        f"no oppositely ordered pair for ({measure_1}, {measure_2}) in {budget} samples"
    )


def continuity_bound_check(
    rho: BipartiteState,
    sigma: BipartiteState,
    tau: BipartiteState,
    opts: OptimizerOptions | None = None,
) -> ContinuityReport:
    """Check the variational measure obeys its trace-distance continuity bound.

    lhs = |E(rho x tau) - E(sigma x tau)| against
    rhs = eps*log2(d_AB) + (1+eps)*h(eps/(1+eps)), eps the trace distance.
    Optimizer values carry slack, so ``holds`` allows lhs <= rhs + slack.
    The default budget is reduced (``CONTINUITY_OPTS``); the second
    optimization is warm-started from the first certificate so both sides
    share systematic error.
    """
    if (rho.dim_a, rho.dim_b) != (sigma.dim_a, sigma.dim_b):
        raise ShapeError(
            f"operands live on different systems: ({rho.dim_a},{rho.dim_b}) vs ({sigma.dim_a},{sigma.dim_b})"
        )
    opts = opts or CONTINUITY_OPTS
    eps = trace_distance(rho, sigma)
    d_ab = float(rho.dim)
    rhs = eps * math.log2(d_ab) + (1.0 + eps) * binary_entropy(eps / (1.0 + eps)) if eps > 0 else 0.0

    big_rho = tensor(rho, tau)
    big_sigma = tensor(sigma, tau)
    r1 = evaluate(RELATIVE_ENTROPY, big_rho, opts)
    r2 = evaluate(RELATIVE_ENTROPY, big_sigma, replace(opts, warm_start=r1.certificate))
    slack = 2.0 * measure_spec(RELATIVE_ENTROPY).value_slack
    lhs = abs(r1.value - r2.value)
    return ContinuityReport(
        epsilon=eps,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=lhs <= rhs + slack,
        e_rho_tau=r1.value,
        e_sigma_tau=r2.value,
    )


def resource_balance_check(report: ProtocolReport, measure_id: str | None = None) -> BalanceReport:
    """System resource drop must cover the battery gain, for additive measures."""
    measure_id = measure_id or report.battery_measure
    if not measure_spec(measure_id).additive:
        raise ApplicabilityError(f"resource balance needs an additive measure, got {measure_id!r}")
    system_initial = partial_trace(report.initial_global, keep=[0])
    system_final = partial_trace(report.final_global, keep=[0])
    lhs = evaluate(measure_id, system_initial).value - evaluate(measure_id, system_final).value
    rhs = report.e_battery_after - report.e_battery_before
    return BalanceReport(lhs=lhs, rhs=rhs, holds=lhs >= rhs - BATTERY_GAIN_ATOL)
