"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line
(run with ``-s`` or ``-v`` to see them).  Tolerances and runtime budgets
are pinned here and should not be loosened without a corresponding
change to the package's documented contracts.
"""
import math
import subprocess
import sys
import time

import numpy as np
from numpy.testing import assert_allclose

from entbat.battery import (
    FEASIBLE,
    INFEASIBLE,
    continuity_bound_check,
    conversion_rate,
    feasible,
    multi_measure_bound,
    search_nonequivalent_pair,
    swap_protocol,
)
from entbat.dilution import embezzlement_demo, self_dilution_curve
from entbat.measures import (
    OptimizerOptions,
    entanglement_entropy,
    log_negativity,
    relative_entropy_of_entanglement,
)
from entbat.qmat import BipartiteState, tensor
from entbat.states import (
    bell,
    maximally_correlated_lami,
    maximally_mixed,
    pure_alpha,
    random_mixed,
    random_pure,
    save_state,
)
from entbat.thermo import (
    RELATIVE_TO_GIBBS,
    ThermoState,
    compose,
    f_max,
    free_energy,
    renyi_free_energy,
    thermo_self_dilution,
)

from oracles import gibbs_weights, pure_alpha_entropy, pure_alpha_log_negativity

ENTROPY = "entropy-of-entanglement"
LOG_NEG = "log-negativity"
REL_ENT = "relative-entropy"


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def random_density(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def test_c01_log_negativity_exact_and_additive():
    t0 = time.monotonic()
    ok = abs(log_negativity(bell()) - 1.0) <= 1e-10
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        s1 = random_mixed(2, 2, rng)
        s2 = random_mixed(2, 2, rng)
        gap = abs(log_negativity(tensor(s1, s2)) - log_negativity(s1) - log_negativity(s2))
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    ok = ok and worst <= 1e-8 and elapsed < 1.0
    report(
        "log-negativity: Bell value exact, additive on 50 random pairs",
        ok,
        f"worst additivity gap {worst:.3e}, {elapsed:.2f}s",
    )


def test_c02_self_dilution_curve():
    t0 = time.monotonic()
    pts = self_dilution_curve(alpha_min=0.01, alpha_max=math.pi / 4.0, steps=200)
    ok = len(pts) == 200
    ok = ok and abs(pts[-1].ratio - 1.0) <= 1e-9
    ok = ok and all(p.ratio > 1.0 for p in pts[:-1])
    worst = 0.0
    for p in pts:
        closed = pure_alpha_log_negativity(p.alpha) / pure_alpha_entropy(p.alpha)
        worst = max(worst, abs(p.ratio - closed))
    ok = ok and worst <= 1e-9

    def ratio_at(alpha):
        s = pure_alpha(alpha).to_bipartite()
        return log_negativity(s) / entanglement_entropy(s)

    ok = ok and ratio_at(0.01) > ratio_at(0.1) > ratio_at(0.5)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(
        "dilution curve: 200 points, ratio 1 at pi/4, >1 below, diverging toward 0, "
        "numeric matches closed form",
        ok,
        f"worst closed-form gap {worst:.3e}, {elapsed:.2f}s",
    )


def test_c03_swap_mechanics_on_random_pairs():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)

    def npt_mixed():
        while True:
            s = random_mixed(2, 2, rng)
            if log_negativity(s) > 1e-3:
                return s

    pairs = [(random_pure(2, 2, rng), random_pure(2, 2, rng), ENTROPY) for _ in range(100)]
    pairs += [(npt_mixed(), npt_mixed(), LOG_NEG) for _ in range(100)]

    ok = True
    for rho, sigma, measure in pairs:
        e_rho = (log_negativity if measure == LOG_NEG else entanglement_entropy)(rho)
        e_sigma = (log_negativity if measure == LOG_NEG else entanglement_entropy)(sigma)
        want = FEASIBLE if e_rho >= e_sigma else INFEASIBLE
        ok = ok and feasible(rho, sigma, measure) == want
        src, dst = (rho, sigma) if e_rho >= e_sigma else (sigma, rho)
        rep = swap_protocol(src, dst, measure)
        ok = ok and rep.final_system_trace_distance <= 1e-12
        ok = ok and rep.e_battery_after >= rep.e_battery_before - 1e-12
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report(
        "swap mechanics: verdict = value ordering, exact system delivery, "
        "battery never drops (100 pure + 100 mixed pairs)",
        ok,
        f"{elapsed:.1f}s",
    )


def test_c04_rate_plans():
    plan2 = conversion_rate(tensor(bell(), bell()), bell(), LOG_NEG)
    ok = plan2.exact and (plan2.m, plan2.n) == (2, 1) and plan2.epsilon_gap == 0.0

    plan_irr = conversion_rate(pure_alpha(math.pi / 8.0), bell(), ENTROPY)
    ok = ok and plan_irr.m / plan_irr.n <= plan_irr.rate + 1e-12
    ok = ok and 0.0 <= plan_irr.epsilon_gap < 1e-6
    ok = ok and plan_irr.n <= 10**6
    report(
        "rate plans: double Bell -> Bell is exactly 2/1; irrational ratio bracketed "
        "from below with gap < 1e-6",
        ok,
        f"irrational plan {plan_irr.m}/{plan_irr.n}, gap {plan_irr.epsilon_gap:.3e}",
    )


def test_c05_relative_entropy_calibration():
    t0 = time.monotonic()
    opts = OptimizerOptions()  # the documented default: 8 restarts
    v_bell = relative_entropy_of_entanglement(bell(), opts).value
    v_lami = relative_entropy_of_entanglement(maximally_correlated_lami(), opts).value
    v_mixed = relative_entropy_of_entanglement(maximally_mixed(2, 2), opts).value
    elapsed = time.monotonic() - t0
    ok = 0.995 <= v_bell <= 1.005
    ok = ok and abs(v_lami - math.log2(1.5)) <= 5e-3
    ok = ok and v_mixed <= 1e-4
    ok = ok and elapsed < 60.0
    report(
        "relative-entropy optimizer calibration on Bell / maximally-correlated / I/4",
        ok,
        f"bell {v_bell:.6f}, corr {v_lami:.6f} (target {math.log2(1.5):.6f}), "
        f"I/4 {v_mixed:.2e}, {elapsed:.1f}s",
    )


def test_c06_continuity_bound_on_random_triples():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    ok = True
    worst_slack = math.inf
    for i in range(100):
        rho = random_mixed(2, 2, rng)
        if i % 2:
            # nearby second operand: the regime where the bound is tight
            noise = random_density(4, rng)
            mix = 0.92 * rho.matrix + 0.08 * noise
            sigma = BipartiteState(2, 2, (mix + mix.conj().T) / 2.0)
        else:
            sigma = random_mixed(2, 2, rng)
        tau = random_mixed(2, 2, rng)
        rep = continuity_bound_check(rho, sigma, tau)
        worst_slack = min(worst_slack, rep.rhs + rep.slack - rep.lhs)
        ok = ok and rep.holds
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    report(
        "continuity: measured jump within dimension-scaled bound on 100 triples (dim 16)",
        ok,
        f"worst remaining slack {worst_slack:.4f}, {elapsed:.1f}s",
    )


def test_c07_oppositely_ordered_pair_exists():
    t0 = time.monotonic()
    res = search_nonequivalent_pair(LOG_NEG, REL_ENT, seed=0, budget=100_000)
    bound = multi_measure_bound(res.rho, res.sigma, LOG_NEG, REL_ENT)
    elapsed = time.monotonic() - t0
    ok = res.samples_used <= 100_000 and bound.product < 1.0 - 1e-3
    report(
        "irreversibility: log-negativity and relative-entropy order a pair oppositely, "
        "round-trip product < 1",
        ok,
        f"{res.samples_used} samples, product {bound.product:.4f}, {elapsed:.1f}s",
    )


def test_c08_embezzlement_table():
    rows = embezzlement_demo(tuple(range(2, 18)))
    ok = all(abs(r.e_g - 0.5) <= 1e-12 for r in rows)
    by_d = {r.d: r for r in rows}
    ok = ok and by_d[5].amplification == 2.0
    ok = ok and by_d[17].amplification == 3.0
    report(
        "embezzlement: geometric value pinned at 1/2 for d=2..17 while the "
        "entropy amplification hits 2 (d=5) and 3 (d=17) exactly",
        ok,
        f"e_g range [{min(r.e_g for r in rows):.12f}, {max(r.e_g for r in rows):.12f}]",
    )


def test_c09_thermo_properties():
    rng = np.random.default_rng(909)
    ok = True
    for i in range(200):
        dim = 2 if i % 2 == 0 else 3
        s = ThermoState(
            rho=random_density(dim, rng),
            energies=rng.uniform(0.0, 2.0, dim),
            beta=float(rng.uniform(0.3, 2.0)),
        )
        ok = ok and f_max(s).f >= free_energy(s, RELATIVE_TO_GIBBS).f - 1e-9
        if not ok:
            break

    def qubit(p):
        return ThermoState(
            rho=np.diag([1.0 - p, p]).astype(complex),
            energies=np.array([0.0, 1.0]),
            beta=1.0,
        )

    ok = ok and thermo_self_dilution(qubit(0.0)).product == 1.0
    ok = ok and thermo_self_dilution(qubit(1.0)).product == 1.0
    g1 = float(gibbs_weights((0.0, 1.0), 1.0)[1])
    at_gibbs = thermo_self_dilution(qubit(g1))
    ok = ok and at_gibbs.at_gibbs and at_gibbs.product == 1.0
    for p in (0.02, 0.2, 0.5, 0.8, 0.98):
        ok = ok and thermo_self_dilution(qubit(p)).product > 1.0

    grid = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]
    for _ in range(20):
        s = qubit(float(rng.uniform(0.01, 0.99)))
        vals = [renyi_free_energy(s, a).f for a in grid]
        ok = ok and all(hi >= lo - 1e-12 for lo, hi in zip(vals, vals[1:]))

    for _ in range(20):
        s1 = ThermoState(
            rho=random_density(2, rng), energies=rng.uniform(0.0, 2.0, 2), beta=1.0
        )
        s2 = ThermoState(
            rho=random_density(3, rng), energies=rng.uniform(0.0, 2.0, 3), beta=1.0
        )
        joint = compose(s1, s2)
        ok = ok and abs(free_energy(joint).f - free_energy(s1).f - free_energy(s2).f) <= 1e-9

    report(
        "thermodynamics: F_max dominates F on 200 states, self-dilution product "
        "= 1 exactly only at the endpoints and at Gibbs, Renyi family monotone, F additive",
        ok,
    )


def test_c10_cli_determinism(tmp_path):
    state_path = tmp_path / "bell.json"
    save_state(bell(), state_path)
    commands = [
        [
            "measure",
            "--measure",
            "relative-entropy",
            "--state",
            str(state_path),
            "--restarts",
            "2",
            "--max-iters",
            "400",
            "--seed",
            "7",
        ],
        ["search-pair", "--measure-1", "log-negativity", "--measure-2", "squashed-upper", "--seed", "0"],
        ["dilution-curve", "--alpha-min", "0.05", "--steps", "40"],
    ]
    ok = True
    for argv in commands:
        cmd = [sys.executable, "-m", "entbat.cli"] + argv
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout and first.stderr == second.stderr
        if not ok:
            break
    report("determinism: repeated seeded CLI invocations are byte-identical", ok)
