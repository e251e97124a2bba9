"""The four workloads: seeded inputs, the operations, and their checks.

A workload is a list of rounds; a round is a fixed sequence of operations
(``Op``), each a call into ``entbat`` plus a check of its output against
values computed beforehand by ``reference`` (numpy only).  Inputs come from
``numpy.random.default_rng([seed, k])``; the program receives only the
generated states, scenarios and state files.

Operations look ``entbat`` functions up through their modules at call time
(``battery.feasible``, not a bound name), so the traced run sees them.

Every check raises ``CheckError`` with the quantity, the value and the
bound it broke.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import entbat.battery as battery
import entbat.cli as cli
import entbat.dilution as dilution
import entbat.measures as measures
import entbat.qmat as qmat
import entbat.thermo as thermo
import reference as ref

EOE = "entropy-of-entanglement"
LOG_NEG = "log-negativity"
REL_ENT = "relative-entropy"
SQUASHED = "squashed-upper"
GEOMETRIC = "geometric"

# Calibrated one-sided accuracy of the program's REE value; the ree-battery
# checks accept values this close to the closed form.
REE_TOL = 5e-3
EXACT_TOL = 1e-9
SWAP_TOL = 1e-12


class CheckError(AssertionError):
    """A program output disagrees with its reference value."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    rounds: list[list[Op]]
    warmup: Callable[[], None]
    ree_exact: dict[int, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Checks.  Each one is a plain function of the output and the reference, so
# the benchmark's own tests can feed it a value just outside its tolerance.
# ---------------------------------------------------------------------------


def expect_close(what: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckError(f"{what}: got {got!r}, want {want!r} within {tol:g}")


def expect_between(what: str, got: float, lo: float, hi: float) -> None:
    if not (lo <= got <= hi):
        raise CheckError(f"{what}: {got!r} outside [{lo!r}, {hi!r}]")


def expect(what: str, ok: bool) -> None:
    if not ok:
        raise CheckError(what)


def check_verdict(verdict: str, e_rho: float, e_sigma: float) -> None:
    """Verdict must follow the reference order of the two values."""
    want = battery.FEASIBLE if e_rho >= e_sigma else battery.INFEASIBLE
    expect(f"verdict {verdict!r}, reference values {e_rho:.9g} vs {e_sigma:.9g} want {want!r}", verdict == want)


def rate_tolerance(e_rho: float, e_sigma: float, tol: float) -> float:
    """Largest |a'/b' - a/b| when a and b are each off by at most ``tol``."""
    return (tol + (e_rho / e_sigma) * tol) / (e_sigma - tol) + 1e-12


def check_rate(plan, e_rho: float, e_sigma: float, tol: float) -> None:
    expect_close("rate", plan.rate, e_rho / e_sigma, rate_tolerance(e_rho, e_sigma, tol))
    expect(f"plan {plan.m}/{plan.n} exceeds rate {plan.rate!r}", plan.m * 1.0 / plan.n <= plan.rate + 1e-12)
    expect_close("plan gap", plan.epsilon_gap, plan.rate - plan.m / plan.n, 1e-12)
    expect_between("plan gap", plan.epsilon_gap, -1e-12, 1e-5)


def min_ratio(*pairs) -> float:
    """Smallest num/den over pairs whose target carries resource (den > 1e-9)."""
    return min(n / d for n, d in pairs if d > 1e-9)


def check_multi(bound, values_1, values_2, tol_1: float, tol_2: float) -> None:
    """values_k = (E_k(rho), E_k(sigma)) from the reference."""
    (a1, b1), (a2, b2) = values_1, values_2
    fwd = min_ratio((a1, b1), (a2, b2))
    bwd = min_ratio((b1, a1), (b2, a2))
    t_fwd = max(rate_tolerance(a1, b1, tol_1), rate_tolerance(a2, b2, tol_2))
    t_bwd = max(rate_tolerance(b1, a1, tol_1), rate_tolerance(b2, a2, tol_2))
    expect_close("r_forward", bound.r_forward, fwd, t_fwd)
    expect_close("r_backward", bound.r_backward, bwd, t_bwd)
    expect_close("product", bound.product, bound.r_forward * bound.r_backward, 1e-12)


def padded(mat: np.ndarray, dims, other_dims) -> tuple[np.ndarray, tuple[int, int]]:
    """The program pads unequal operands with |00><00| of the other's size."""
    if tuple(dims) == tuple(other_dims):
        return mat, tuple(dims)
    d = other_dims[0] * other_dims[1]
    pad = np.zeros((d, d), dtype=complex)
    pad[0, 0] = 1.0
    out = ref.kron_cut(mat, dims, pad, other_dims)
    return out, (dims[0] * other_dims[0], dims[1] * other_dims[1])


def check_swap(report, rho: np.ndarray, rho_dims, sigma: np.ndarray, sigma_dims) -> None:
    """The swap starts in rho (x) sigma and delivers sigma to the system."""
    rho_p, rp = padded(rho, rho_dims, sigma_dims)
    sigma_p, sp = padded(sigma, sigma_dims, rho_dims)
    initial = report.initial_global.matrix
    expect_between("initial state vs rho (x) sigma", ref.max_abs_diff(initial, ref.kron_cut(rho_p, rp, sigma_p, sp)), 0.0, SWAP_TOL)
    swapped = ref.swap_halves(initial, rp, sp)
    expect_between("final state vs swapped initial", ref.max_abs_diff(report.final_global.matrix, swapped), 0.0, SWAP_TOL)
    system = ref.first_factor(swapped, sp, rp)
    if tuple(sp) != tuple(sigma_dims):
        system = ref.first_factor(system, sigma_dims, rho_dims)
    expect_between("delivered system vs sigma", ref.trace_distance(system, sigma), 0.0, SWAP_TOL)
    expect_between("reported system distance", report.final_system_trace_distance, 0.0, SWAP_TOL)


def check_battery_values(report, e_rho: float, e_sigma: float, tol: float) -> None:
    """The battery starts holding sigma and ends holding rho."""
    expect_close("battery before", report.e_battery_before, e_sigma, tol)
    expect_close("battery after", report.e_battery_after, e_rho, tol)


def continuity_reference(rho: np.ndarray, sigma: np.ndarray, tau: np.ndarray) -> dict:
    eps = ref.trace_distance(rho, sigma)
    rt = ref.kron_cut(rho, (2, 2), tau, (2, 2))
    st = ref.kron_cut(sigma, (2, 2), tau, (2, 2))
    return {
        "eps": eps,
        "rhs": ref.continuity_rhs(eps, 4),
        "rho_tau": (ref.coherent_information_bound(rt, 4, 4), ref.dephasing_bound(rt)),
        "sigma_tau": (ref.coherent_information_bound(st, 4, 4), ref.dephasing_bound(st)),
    }


def check_continuity(report, want: dict) -> None:
    expect_close("epsilon", report.epsilon, want["eps"], 1e-10)
    expect_close("rhs", report.rhs, want["rhs"], 1e-10)
    for label, value in (("rho_tau", report.e_rho_tau), ("sigma_tau", report.e_sigma_tau)):
        lo, hi = want[label]
        expect_between(f"REE of {label} vs [coherent information, dephasing]", value, lo - EXACT_TOL, hi + EXACT_TOL)
    expect_close("lhs", report.lhs, abs(report.e_rho_tau - report.e_sigma_tau), 1e-12)
    expect("continuity bound reported as not holding", report.holds is True)


def check_search_output(text: str, rho: np.ndarray, sigma: np.ndarray, margin: float = 1e-3) -> None:
    """``entbat search-pair`` for (log-negativity, relative-entropy)."""
    lines = dict(line.split(" ", 1) for line in text.strip().splitlines())
    expect(f"search-pair output lines {sorted(lines)}", set(lines) == {"samples", "rho", "sigma", "product"})
    ln_r, ree_r = (float(x) for x in lines["rho"].split())
    ln_s, ree_s = (float(x) for x in lines["sigma"].split())
    product = float(lines["product"])
    expect_close("log-negativity of rho", ln_r, ref.log_negativity(rho, 2, 2), 1e-9)
    expect_close("log-negativity of sigma", ln_s, ref.log_negativity(sigma, 2, 2), 1e-9)
    expect(f"log-negativity order {ln_r:.9g} vs {ln_s:.9g}", ref.log_negativity(rho, 2, 2) >= ref.log_negativity(sigma, 2, 2) + margin - 1e-9)
    expect(f"relative-entropy order {ree_r:.9g} vs {ree_s:.9g}", ree_r <= ree_s - margin + 1e-9)
    for label, value, mat in (("rho", ree_r, rho), ("sigma", ree_s, sigma)):
        lo, hi = ref.coherent_information_bound(mat, 2, 2), ref.dephasing_bound(mat)
        expect_between(f"REE of {label} vs [coherent information, dephasing]", value, lo - 1e-9, hi + 1e-9)
    fwd = min_ratio((ln_r, ln_s), (ree_r, ree_s))
    bwd = min_ratio((ln_s, ln_r), (ree_s, ree_r))
    expect_close("product", product, fwd * bwd, 1e-9)
    expect(f"product {product!r} not below 1", product < 1.0 - margin)


# ---------------------------------------------------------------------------
# Input helpers.
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """A program input with its matrix and reference values by measure id."""

    state: qmat.BipartiteState
    mat: np.ndarray
    dims: tuple[int, int]
    values: dict[str, float]


def bstate(mat: np.ndarray, da: int, db: int) -> qmat.BipartiteState:
    return qmat.BipartiteState(dim_a=da, dim_b=db, matrix=mat)


def schmidt_vector(probs) -> np.ndarray:
    """sum_i sqrt(p_i) |ii> on d x d."""
    d = len(probs)
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * (d + 1)] = np.sqrt(np.asarray(probs, dtype=float))
    return vec


def cli_call(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"entbat {' '.join(argv[:1])} exited with {code}")
    return buf.getvalue()


def write_matrix_state(path: Path, mat: np.ndarray, da: int, db: int) -> str:
    payload = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    path.write_text(json.dumps({"kind": "matrix", "dims": [da, db], "payload": payload}) + "\n", encoding="utf-8")
    return str(path)


def read_matrix_state(path: str) -> np.ndarray:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    arr = np.asarray(doc["payload"], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# ---------------------------------------------------------------------------
# ree-continuity: c06-style triples, each side a 16-dimensional REE.
# ---------------------------------------------------------------------------

CONTINUITY_POOL = 8  # rounds; each holds the same triples in fresh frames
CONTINUITY_PAIRS = 2  # (far, near) pairs per round


def monomial_frame(rng: np.random.Generator) -> np.ndarray:
    """Random local unitary that maps the computational basis to itself."""
    frames = []
    for _ in range(2):
        phases = np.exp(2j * np.pi * rng.uniform(size=2))
        frames.append(np.eye(2)[rng.permutation(2)] * phases)
    return np.kron(*frames)


def framed(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u m u^dag, Hermitian to the last bit."""
    out = u @ m @ u.conj().T
    return (out + out.conj().T) / 2.0


def build_ree_continuity(seed: int, workdir: Path) -> Workload:
    # The triples are drawn as acceptance c06 draws them, from its seed 606,
    # and --seed picks a local frame for each triple in each round.  A random
    # triple costs from 2.7 s to 9 s here (the descent's iteration count and
    # line-search trials swing with the state) and a run holds only four to
    # six, so with fresh triples per seed or per round the figures would
    # follow the draw, not the code.  A local permutation-and-phase frame
    # maps the computational basis to itself, so the optimizer's dephasing
    # starts, its iteration counts and every value stay the same while the
    # matrices the program gets differ.
    base = np.random.default_rng(606)
    triples = []
    for _ in range(CONTINUITY_PAIRS):
        for near in (False, True):
            rho = ref.noisy_pure(4, base.uniform(), base)
            if near:
                mix = 0.92 * rho + 0.08 * ref.random_density(4, base)
                sigma = (mix + mix.conj().T) / 2.0
            else:
                sigma = ref.noisy_pure(4, base.uniform(), base)
            tau = ref.noisy_pure(4, base.uniform(), base)
            triples.append((near, rho, sigma, tau))

    rng = np.random.default_rng([seed, 1])
    rounds = []
    for _ in range(CONTINUITY_POOL):
        ops = []
        for near, rho, sigma, tau in triples:
            u, w = monomial_frame(rng), monomial_frame(rng)
            rho_f, sigma_f, tau_f = framed(rho, u), framed(sigma, u), framed(tau, w)
            want = continuity_reference(rho_f, sigma_f, tau_f)
            states = tuple(bstate(m, 2, 2) for m in (rho_f, sigma_f, tau_f))
            ops.append(
                Op(
                    "continuity-near" if near else "continuity-far",
                    lambda s=states: battery.continuity_bound_check(*s),
                    lambda out, w=want: check_continuity(out, w),
                )
            )
        rounds.append(ops)

    def warmup() -> None:
        big = qmat.tensor(bstate(np.eye(4) / 4.0, 2, 2), bstate(np.eye(4) / 4.0, 2, 2))
        measures.relative_entropy_of_entanglement(big, measures.OptimizerOptions(restarts=1, max_iters=2))
        qmat.trace_distance(big, big)

    return Workload(rounds, warmup)


# ---------------------------------------------------------------------------
# ree-battery: battery calls at the default optimizer budget on states whose
# REE is known in closed form, plus the pair search through the CLI.
# ---------------------------------------------------------------------------


BATTERY_POOL = 4  # rounds; each holds the same states in fresh frames


def build_ree_battery(seed: int, workdir: Path) -> Workload:
    # The states are fixed (drawn once from seed 2405) and --seed picks a
    # fresh local permutation-and-phase frame, in each round, for the states
    # of the feasible calls, of the swap and for the rate's Werner target.
    # The frame keeps every closed-form value; it changes the
    # optimizer's path only through its random restarts, which moves the
    # cost of one mixed-state REE between 0.2 s and 0.8 s.  Drawing the
    # parameters per seed instead moved the per-seed throughput by 25% (the
    # default-budget descent costs 0.2 s to 13 s depending on the state),
    # more than any change to the code should have to beat.
    #
    # The pure states keep one frame, drawn once from seed (2405, 1): one
    # pure-state REE costs 1.4 s to 4.2 s by frame (4,000 to 12,000
    # iterations), and with fresh frames the rate and the multi-measure
    # bound each doubled on some seeds.
    base = np.random.default_rng(2405)
    pure_frames = np.random.default_rng([2405, 1])
    eye2 = np.eye(2, dtype=complex)

    def werner(p: float) -> tuple[np.ndarray, float, float]:
        lam = (1.0 + 3.0 * p) / 4.0
        off = (1.0 - lam) / 3.0
        mat = ref.bell_diagonal([lam, off, off, off], eye2, eye2)
        return mat, ref.bell_diagonal_ree(lam), ref.bell_diagonal_log_negativity(lam)

    def bell_diagonal(lam: float) -> tuple[np.ndarray, float, float]:
        lams = np.concatenate([[lam], base.dirichlet(np.ones(3)) * (1.0 - lam)])
        lams = lams[base.permutation(4)]
        mat = ref.bell_diagonal(lams, ref.haar_unitary(2, base), ref.haar_unitary(2, base))
        return mat, ref.bell_diagonal_ree(lam), ref.bell_diagonal_log_negativity(lam)

    def pure(p0: float) -> tuple[np.ndarray, float, float]:
        vec = schmidt_vector([p0, 1.0 - p0])
        mat = framed(np.outer(vec, vec.conj()), monomial_frame(pure_frames))
        return mat, ref.schmidt_entropy(vec, 2, 2), ref.pure_log_negativity(vec, 2, 2)

    # The feasible and swap pairs differ by more than 0.4 bit, far above the
    # 0.01 bit inside which the program answers "undecided".
    strong, weak = werner(0.85), bell_diagonal(0.65)
    swap_pair = (bell_diagonal(0.9), werner(0.575))
    rate_pair = (pure(0.875), werner(0.75))
    mm_pair = (bell_diagonal(0.8), pure(0.915))

    rng = np.random.default_rng([seed, 2])
    exact: dict[int, float] = {}

    def known(spec, reframe: bool = True) -> Sample:
        mat, ree, ln = spec
        if reframe:
            mat = framed(mat, monomial_frame(rng))
        k = Sample(bstate(mat, 2, 2), mat, (2, 2), {REL_ENT: ree, LOG_NEG: ln})
        exact[id(k.state)] = ree
        return k

    rho_file = str(workdir / "search-rho.json")
    sigma_file = str(workdir / "search-sigma.json")
    # The search is seeded with 0, as acceptance c07 seeds it: its cost
    # swings from 3 s to 15 s between seeds (8 to 31 samples), which would
    # drown the rest of the round, so every run makes the same search.
    search_argv = [
        "search-pair", "--measure-1", LOG_NEG, "--measure-2", REL_ENT, "--seed", "0",
        "--save-rho", rho_file, "--save-sigma", sigma_file,
    ]
    def feasible_op(hi: Sample, lo: Sample) -> Op:
        """``feasible`` both ways in one operation, so both verdicts occur."""

        def check(out):
            down, up = out
            check_verdict(down, hi.values[REL_ENT], lo.values[REL_ENT])
            check_verdict(up, lo.values[REL_ENT], hi.values[REL_ENT])

        return Op(
            "feasible",
            lambda: (battery.feasible(hi.state, lo.state, REL_ENT), battery.feasible(lo.state, hi.state, REL_ENT)),
            check,
        )

    # Five operations.  The round's two feasible calls are one operation, so
    # that in a run of two rounds the swaps and feasible pairs lie below the
    # two multi-measure bounds and the rates and searches above them: the
    # median is the mean of the two multi-measure bounds.  Their states keep
    # their frames (the Bell-diagonal one as drawn from seed 2405), so that
    # figure does not follow the frames drawn for the other operations.
    rounds = []
    for _ in range(BATTERY_POOL):
        hi, lo = known(strong), known(weak)
        swap_src, swap_dst = (known(x) for x in swap_pair)
        rate_src, rate_dst = known(rate_pair[0], reframe=False), known(rate_pair[1])
        mm_src, mm_dst = known(mm_pair[0], reframe=False), known(mm_pair[1], reframe=False)
        rounds.append([
            feasible_op(hi, lo),
            Op(
                "swap",
                lambda a=swap_src, b=swap_dst: battery.swap_protocol(a.state, b.state, REL_ENT),
                lambda out, a=swap_src, b=swap_dst: (
                    check_swap(out, a.mat, (2, 2), b.mat, (2, 2)),
                    check_battery_values(out, a.values[REL_ENT], b.values[REL_ENT], REE_TOL),
                ),
            ),
            Op(
                "rate",
                lambda a=rate_src, b=rate_dst: battery.conversion_rate(a.state, b.state, REL_ENT),
                lambda out, a=rate_src, b=rate_dst: check_rate(out, a.values[REL_ENT], b.values[REL_ENT], REE_TOL),
            ),
            Op(
                "multi-measure",
                lambda a=mm_src, b=mm_dst: battery.multi_measure_bound(a.state, b.state, LOG_NEG, REL_ENT),
                lambda out, a=mm_src, b=mm_dst: check_multi(
                    out, (a.values[LOG_NEG], b.values[LOG_NEG]), (a.values[REL_ENT], b.values[REL_ENT]), EXACT_TOL, REE_TOL
                ),
            ),
            Op(
                "cli-search-pair",
                lambda argv=search_argv: cli_call(argv),
                lambda out, rf=rho_file, sf=sigma_file: check_search_output(out, read_matrix_state(rf), read_matrix_state(sf)),
            ),
        ])
    warm_file = write_matrix_state(workdir / "warm.json", np.eye(4, dtype=complex) / 4.0, 2, 2)

    def warmup() -> None:
        warm = bstate(np.eye(4, dtype=complex) / 4.0, 2, 2)
        measures.relative_entropy_of_entanglement(warm, measures.OptimizerOptions(restarts=1, max_iters=2))
        cli_call(["measure", "--measure", LOG_NEG, "--state", warm_file])

    return Workload(rounds, warmup, exact)


# ---------------------------------------------------------------------------
# closed-form: ~1 ms operations with the closed-form measures, the thermo
# battery, the dilution curve and the CLI over JSON files.
# ---------------------------------------------------------------------------

CLOSED_POOL = 128
TIE_GAP = 1e-6  # pairs closer than this would put the verdict at the tolerance edge
RESOURCE_MIN = 0.05


def build_closed_form(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])

    def pure(d: int) -> Sample:
        vec = ref.haar_vector(d * d, rng)
        mat = np.outer(vec, vec.conj())
        values = {
            EOE: ref.schmidt_entropy(vec, d, d),
            LOG_NEG: ref.pure_log_negativity(vec, d, d),
            GEOMETRIC: ref.geometric_pure(vec, d, d),
        }
        return Sample(bstate(mat, d, d), mat, (d, d), values)

    def mixed(d: int) -> Sample:
        mat = ref.noisy_pure(d * d, rng.uniform(0.5, 1.0), rng)
        mat = (mat + mat.conj().T) / 2.0
        values = {
            LOG_NEG: ref.log_negativity(mat, d, d),
            SQUASHED: ref.half_mutual_information(mat, d, d),
        }
        return Sample(bstate(mat, d, d), mat, (d, d), values)

    def pair(make, d: int, measure: str, ordered: bool = False, floor: float = 0.0):
        """Two samples whose values differ by TIE_GAP or more, both >= floor."""
        while True:
            a, b = make(d), make(d)
            va, vb = a.values[measure], b.values[measure]
            if abs(va - vb) >= TIE_GAP and min(va, vb) >= floor:
                return (a, b) if (va > vb or not ordered) else (b, a)

    def scenario(d: int, beta: float):
        energies = rng.uniform(0.0, 2.0, d)
        pops = rng.dirichlet(np.ones(d))
        s = thermo.ThermoState(rho=np.diag(pops).astype(complex), energies=energies, beta=beta)
        return s, pops, energies

    def thermo_pair(beta: float):
        while True:
            (s1, p1, e1), (s2, p2, e2) = scenario(2, beta), scenario(3, beta)
            f1, f2 = ref.free_energy(p1, e1, beta), ref.free_energy(p2, e2, beta)
            if abs(f1 - f2) >= TIE_GAP:
                return ((s1, p1, e1, f1), (s2, p2, e2, f2)) if f1 > f2 else ((s2, p2, e2, f2), (s1, p1, e1, f1))

    def closed_round(r: int) -> list[Op]:
        beta = float(rng.uniform(0.3, 2.0))
        f_eoe = pair(pure, 2, EOE)
        f_ln = pair(mixed, 3, LOG_NEG, floor=RESOURCE_MIN)
        f_sq = pair(mixed, 2, SQUASHED)
        f_geo = pair(pure, 3, GEOMETRIC)
        sw_ln = pair(mixed, 2, LOG_NEG, ordered=True, floor=RESOURCE_MIN)
        sw_eoe = pair(pure, 3, EOE, ordered=True)
        rt_ln = pair(mixed, 2, LOG_NEG, floor=RESOURCE_MIN)
        ze_eoe = pair(pure, 3, EOE, floor=RESOURCE_MIN)
        mm = pair(pure, 2, EOE, floor=RESOURCE_MIN)
        hot, cold = thermo_pair(beta)
        single, single_p, single_e = scenario(3, beta)
        cli_ln = pair(mixed, 2, LOG_NEG)
        cli_rate = pair(pure, 2, EOE, floor=RESOURCE_MIN)
        cli_sq = mixed(2)
        cli_scn = scenario(3, beta)
        alpha_min = float(rng.uniform(0.02, 0.3))
        distill = mixed(2)

        files = {}
        for key, s in (("ln-a", cli_ln[0]), ("ln-b", cli_ln[1]), ("sq", cli_sq)):
            files[key] = write_matrix_state(workdir / f"{key}-{r}.json", s.mat, *s.dims)
        for key, s in (("rate-a", cli_rate[0]), ("rate-b", cli_rate[1])):
            vec = np.linalg.eigh(s.mat)[1][:, -1]
            probs = ref.schmidt_probs(vec, *s.dims)
            path = workdir / f"{key}-{r}.json"
            path.write_text(json.dumps({"kind": "pure-schmidt", "dims": list(s.dims), "payload": [float(x) for x in probs]}), encoding="utf-8")
            files[key] = str(path)
        scn_path = workdir / f"scenario-{r}.json"
        scn_path.write_text(json.dumps({"beta": beta, "energies": [float(x) for x in cli_scn[2]], "rho": [float(x) for x in cli_scn[1]]}), encoding="utf-8")

        def feasible_op(label, two, measure):
            a, b = two
            return Op(
                label,
                lambda: battery.feasible(a.state, b.state, measure),
                lambda out: check_verdict(out, a.values[measure], b.values[measure]),
            )

        def swap_op(label, two, measure):
            a, b = two

            def run():
                rep = battery.swap_protocol(a.state, b.state, measure)
                return rep, battery.resource_balance_check(rep)

            def check(out):
                rep, bal = out
                check_swap(rep, a.mat, a.dims, b.mat, b.dims)
                check_battery_values(rep, a.values[measure], b.values[measure], EXACT_TOL)
                drop = a.values[measure] - b.values[measure]
                expect_close("system drop", bal.lhs, drop, EXACT_TOL)
                expect_close("battery gain", bal.rhs, drop, EXACT_TOL)
                expect(f"battery gain {bal.rhs!r} exceeds system drop {bal.lhs!r}", bal.rhs <= bal.lhs + EXACT_TOL and bal.holds)

            return Op(label, run, check)

        def rate_op(label, two, measure, fn):
            a, b = two

            def check(out):
                check_rate(out, a.values[measure], b.values[measure], EXACT_TOL)
                expect("zero_error flag", out.zero_error == (fn == "zero_error_rate"))

            return Op(label, lambda: getattr(battery, fn)(a.state, b.state, measure), check)

        def thermo_free_energy_op():
            want_f = ref.free_energy(single_p, single_e, beta)
            want_max = ref.f_max(single_p, single_e, beta)
            log2_z = ref.log2_partition(single_e, beta)

            def check(out):
                f, fm = out
                expect_close("free energy", f.f, want_f, EXACT_TOL)
                expect_close("F_max", fm.f, want_max, EXACT_TOL)
                expect("F_max below F", fm.f >= f.f + log2_z - EXACT_TOL)

            return Op("thermo-free-energy", lambda: (thermo.free_energy(single), thermo.f_max(single)), check)

        def thermo_swap_op():
            (s1, p1, e1, f1), (s2, p2, e2, f2) = hot, cold

            def run():
                return thermo.thermo_feasible(s1, s2), thermo.thermo_feasible(s2, s1), thermo.thermo_swap_protocol(s1, s2)

            def check(out):
                fwd, bwd, rep = out
                check_verdict(fwd, f1, f2)
                check_verdict(bwd, f2, f1)
                expect_close("battery before", rep.e_battery_before, f2, EXACT_TOL)
                expect_close("battery after", rep.e_battery_after, f1, EXACT_TOL)
                d1, d2 = len(p1), len(p2)
                init = rep.initial_global.matrix
                expect_between("initial vs rho1 (x) rho2", ref.max_abs_diff(init, np.kron(np.diag(p1), np.diag(p2))), 0.0, SWAP_TOL)
                swapped = init.reshape(d1, d2, d1, d2).transpose(1, 0, 3, 2).reshape(d1 * d2, d1 * d2)
                expect_between("final vs swapped initial", ref.max_abs_diff(rep.final_global.matrix, swapped), 0.0, SWAP_TOL)
                system = ref.reduce_a(swapped, d2, d1)
                expect_between("delivered system", ref.trace_distance(system, np.diag(p2)), 0.0, SWAP_TOL)
                expect_between("reported system distance", rep.final_system_trace_distance, 0.0, SWAP_TOL)

            return Op("thermo-swap", run, check)

        def thermo_compose_op():
            (s1, p1, e1, f1), (s2, p2, e2, f2) = hot, cold

            def check(out):
                expect_close("F of composition", out, f1 + f2, EXACT_TOL)

            return Op("thermo-compose", lambda: thermo.free_energy(thermo.compose(s1, s2)).f, check)

        def cli_ops():
            a, b = cli_ln
            ra, rb = cli_rate
            (_, scn_p, scn_e) = cli_scn
            rate_want = ra.values[EOE] / rb.values[EOE]

            def check_rate_text(out):
                lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
                expect_close("cli rate", float(lines["rate"]), rate_want, 1e-11 + 1e-11 * rate_want)
                m, n = (int(x) for x in lines["plan"].split("/"))
                expect(f"cli plan {m}/{n} exceeds rate", m / n <= rate_want + 1e-11)

            return [
                Op(
                    "cli-feasible",
                    lambda: cli_call(["feasible", "--measure", LOG_NEG, "--from", files["ln-a"], "--to", files["ln-b"]]),
                    lambda out: check_verdict(out.strip(), a.values[LOG_NEG], b.values[LOG_NEG]),
                ),
                Op(
                    "cli-rate",
                    lambda: cli_call(["rate", "--measure", EOE, "--from", files["rate-a"], "--to", files["rate-b"]]),
                    check_rate_text,
                ),
                Op(
                    "cli-measure",
                    lambda: cli_call(["measure", "--measure", SQUASHED, "--state", files["sq"]]),
                    lambda out: expect_close("cli squashed-upper", float(out), cli_sq.values[SQUASHED], 1e-11),
                ),
                Op(
                    "cli-thermo-free-energy",
                    lambda: cli_call(["thermo", "free-energy", "--scenario", str(scn_path)]),
                    lambda out: expect_close("cli free energy", float(out), ref.free_energy(scn_p, scn_e, beta), 1e-11),
                ),
            ]

        def dilution_op():
            steps = 8

            def check(out):
                curve, bound = out
                expect("curve length", len(curve) == steps)
                for p in curve:
                    c = math.cos(p.alpha) ** 2
                    e_c = ref.h2(c)
                    e_n = math.log2(1.0 + math.sin(2.0 * p.alpha))
                    expect_close(f"E_n at alpha {p.alpha:.4f}", p.e_n, e_n, EXACT_TOL)
                    expect_close(f"ratio at alpha {p.alpha:.4f}", p.ratio, e_n / e_c, 1e-8)
                expect_close("distillation bound", bound, distill.values[LOG_NEG], EXACT_TOL)

            return Op(
                "dilution",
                lambda: (dilution.self_dilution_curve(alpha_min, math.pi / 4.0, steps), dilution.distillation_bound(distill.state)),
                check,
            )

        mm_a, mm_b = mm
        return [
            feasible_op("feasible-eoe", f_eoe, EOE),
            feasible_op("feasible-ln", f_ln, LOG_NEG),
            feasible_op("feasible-squashed", f_sq, SQUASHED),
            feasible_op("feasible-geometric", f_geo, GEOMETRIC),
            # The same pairs the other way round: the verdict must flip.
            # These keep 13 of the 21 operations under 0.2 ms, so the median
            # falls inside that cluster and not at its edge, where the next
            # operation takes 0.5 ms and a few slow calls would move it.
            feasible_op("feasible-eoe-back", f_eoe[::-1], EOE),
            feasible_op("feasible-ln-back", f_ln[::-1], LOG_NEG),
            feasible_op("feasible-squashed-back", f_sq[::-1], SQUASHED),
            feasible_op("feasible-geometric-back", f_geo[::-1], GEOMETRIC),
            swap_op("swap-ln", sw_ln, LOG_NEG),
            swap_op("swap-eoe", sw_eoe, EOE),
            rate_op("rate-ln", rt_ln, LOG_NEG, "conversion_rate"),
            rate_op("zero-error-eoe", ze_eoe, EOE, "zero_error_rate"),
            Op(
                "multi-measure",
                lambda a=mm_a, b=mm_b: battery.multi_measure_bound(a.state, b.state, EOE, LOG_NEG),
                lambda out, a=mm_a, b=mm_b: check_multi(
                    out, (a.values[EOE], b.values[EOE]), (a.values[LOG_NEG], b.values[LOG_NEG]), EXACT_TOL, EXACT_TOL
                ),
            ),
            thermo_free_energy_op(),
            thermo_swap_op(),
            thermo_compose_op(),
            *cli_ops(),
            dilution_op(),
        ]

    # One function call per round, so each round's closures keep their own inputs.
    rounds = [closed_round(r) for r in range(CLOSED_POOL)]

    def warmup() -> None:
        for op in rounds[0]:
            op.check(op.run())

    return Workload(rounds, warmup)


# ---------------------------------------------------------------------------
# large-dim: few large matrices -- padded swaps at global dimension 1296,
# tensor/partial-trace chains to 256 and 1024, log-negativity at those sizes.
# ---------------------------------------------------------------------------

LARGE_POOL = 16


def build_large_dim(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    bell_vec = schmidt_vector([0.5, 0.5])
    bell = np.outer(bell_vec, bell_vec.conj())
    emb_vec = schmidt_vector([0.5, 0.25, 0.25])
    embezzler = np.outer(emb_vec, emb_vec.conj())

    def schmidt_state(d: int, lo: float):
        while True:
            probs = rng.dirichlet(np.ones(d))
            vec = schmidt_vector(probs)
            e = ref.schmidt_entropy(vec, d, d)
            if e >= lo:
                return np.outer(vec, vec.conj()), e

    def swap_op(label, rho, rho_dims, sigma, sigma_dims, measure, e_rho, e_sigma):
        rs, ss = bstate(rho, *rho_dims), bstate(sigma, *sigma_dims)

        def check(out):
            check_swap(out, rho, rho_dims, sigma, sigma_dims)
            check_battery_values(out, e_rho, e_sigma, EXACT_TOL)

        return Op(label, lambda: battery.swap_protocol(rs, ss, measure), check)

    def chain_op(label, mats, d=2):
        states = [bstate(m, d, d) for m in mats]
        want_ln = sum(ref.log_negativity(m, d, d) for m in mats)

        def run():
            t = states[0]
            for s in states[1:]:
                t = qmat.tensor(t, s)
            first = qmat.partial_trace(t, [0])
            last = qmat.partial_trace(t, [len(states) - 1])
            return first.matrix, last.matrix, measures.log_negativity(t), t.dim

        def check(out):
            first, last, ln, dim = out
            expect(f"chain dimension {dim}", dim == (d * d) ** len(mats))
            expect_between("partial_trace(tensor(a, b), [0]) vs a", ref.max_abs_diff(first, mats[0]), 0.0, SWAP_TOL)
            expect_between("last factor", ref.max_abs_diff(last, mats[-1]), 0.0, SWAP_TOL)
            expect_close("log-negativity additivity", ln, want_ln, 1e-8)

        return Op(label, run, check)

    def bell_power_op(k: int):
        b = bstate(bell, 2, 2)

        def run():
            t = b
            for _ in range(k - 1):
                t = qmat.tensor(t, b)
            return measures.log_negativity(t)

        return Op(f"bell-power-{k}", run, lambda out: expect_close(f"log-negativity of Bell^{k}", out, float(k), 1e-9))

    def embezzle_check(rows):
        expect("row count", [r.d for r in rows] == [2, 3])
        for row in rows:
            expect_close(f"E_g at d={row.d}", row.e_g, 0.5, 1e-12)
            expect_close(f"entropy at d={row.d}", row.entropy, ref.embezzler_entropy(row.d), 1e-12)
            expect(f"swap not executed at d={row.d}", row.swap_checked)
            expect_close(f"battery change at d={row.d}", row.battery_delta, 0.0, 1e-12)

    rounds = []
    for _ in range(LARGE_POOL):
        big3, e_big3 = schmidt_state(3, 0.9)
        p0 = rng.uniform(0.9, 0.98)
        small_vec = schmidt_vector([p0, 1.0 - p0])
        small = np.outer(small_vec, small_vec.conj())
        e_small = ref.schmidt_entropy(small_vec, 2, 2)
        q0 = rng.uniform(0.5, 0.6)
        strong_vec = schmidt_vector([q0, 1.0 - q0])
        strong = np.outer(strong_vec, strong_vec.conj())
        weak3, e_weak3 = schmidt_state(3, 0.0)
        while e_weak3 > ref.schmidt_entropy(strong_vec, 2, 2) - 0.05:
            weak3, e_weak3 = schmidt_state(3, 0.0)
        chain4 = [ref.noisy_pure(4, rng.uniform(0.6, 1.0), rng) for _ in range(4)]
        chain5 = [ref.noisy_pure(4, rng.uniform(0.6, 1.0), rng) for _ in range(5)]
        pair6 = [ref.noisy_pure(36, rng.uniform(0.6, 1.0), rng) for _ in range(2)]
        rounds.append([
            swap_op("swap-embezzler", bell, (2, 2), embezzler, (3, 3), GEOMETRIC, 0.5, 0.5),
            swap_op("swap-pure-3to2", big3, (3, 3), small, (2, 2), EOE, e_big3, e_small),
            swap_op("swap-pure-2to3", strong, (2, 2), weak3, (3, 3), EOE, ref.schmidt_entropy(strong_vec, 2, 2), e_weak3),
            Op("embezzlement-demo", lambda: dilution.embezzlement_demo((2, 3)), embezzle_check),
            chain_op("chain-256", chain4),
            chain_op("chain-1024", chain5),
            chain_op("pair-1296", pair6, d=6),
            bell_power_op(4),
            bell_power_op(5),
        ])

    def warmup() -> None:
        s = bstate(bell, 2, 2)
        t = qmat.tensor(s, s)
        qmat.partial_trace(t, [0])
        measures.log_negativity(qmat.tensor(t, t))

    return Workload(rounds, warmup)


WORKLOADS = {
    "ree-continuity": build_ree_continuity,
    "ree-battery": build_ree_battery,
    "closed-form": build_closed_form,
    "large-dim": build_large_dim,
}
