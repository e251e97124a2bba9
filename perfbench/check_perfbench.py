"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/check_perfbench.py -q`` from the
repository root.  The file name keeps it out of the repository's own test
run, which it would slow by about three minutes.  The first group runs
every workload for one round in both modes and parses the last line of
standard output.  The second feeds each correctness check a value just
outside its tolerance and expects ``CheckError``, next to the same input
inside the tolerance, which must pass.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _p in (str(BENCH), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from entbat import battery  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


# ---------------------------------------------------------------------------
# The result line.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_ends_stdout_with_the_result_line(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout  # nothing but the result line on stdout
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace == "1" else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "closed-form", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_wrapped_function():
    import entbat.cli
    import entbat.qmat

    before = (battery.feasible, entbat.cli.feasible, entbat.qmat.BipartiteState.__post_init__, np.einsum)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert battery.feasible is not before[0] and entbat.cli.feasible is battery.feasible
        tracer.active = True
        battery.swap_protocol(W.bstate(np.eye(4) / 4.0, 2, 2), W.bstate(np.eye(4) / 4.0, 2, 2), W.LOG_NEG)
        tracer.active = False
    finally:
        tracer.uninstall()
    after = (battery.feasible, entbat.cli.feasible, entbat.qmat.BipartiteState.__post_init__, np.einsum)
    assert after == before
    m = tracer.metrics()
    assert set(m) == set(spans.PER_LAYER_UNITS)
    assert m["battery.ops"] == 1 and m["battery.evals_per_op"] >= 2 and m["qmat.states_built"] > 0


# ---------------------------------------------------------------------------
# Every check rejects a value just outside its tolerance.
# ---------------------------------------------------------------------------


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except W.CheckError:
        return True
    return False


def test_verdict_check_rejects_a_flipped_verdict():
    W.check_verdict(battery.FEASIBLE, 0.5, 0.3)
    assert rejects(W.check_verdict, battery.INFEASIBLE, 0.5, 0.3)
    assert rejects(W.check_verdict, battery.FEASIBLE, 0.3, 0.5)
    assert rejects(W.check_verdict, battery.UNDECIDED, 0.5, 0.3)


def test_werner_ree_shifted_by_a_hundredth_of_a_bit_is_rejected():
    p = 0.8
    exact = ref.bell_diagonal_ree((1.0 + 3.0 * p) / 4.0)
    ok = SimpleNamespace(e_battery_before=exact + 4e-3, e_battery_after=0.7)
    W.check_battery_values(ok, 0.7, exact, W.REE_TOL)
    off = SimpleNamespace(e_battery_before=exact + 0.01, e_battery_after=0.7)
    assert rejects(W.check_battery_values, off, 0.7, exact, W.REE_TOL)


def test_rate_and_multi_measure_checks_reject_values_past_their_tolerance():
    e_rho, e_sigma = 0.6, 0.3
    tol = W.rate_tolerance(e_rho, e_sigma, W.REE_TOL)

    def plan(rate: float) -> SimpleNamespace:
        n = 10**6
        m = math.floor(rate * n)
        return SimpleNamespace(rate=rate, m=m, n=n, epsilon_gap=rate - m / n)

    W.check_rate(plan(2.0 + 0.9 * tol), e_rho, e_sigma, W.REE_TOL)
    assert rejects(W.check_rate, plan(2.0 + 1.1 * tol), e_rho, e_sigma, W.REE_TOL)
    over = SimpleNamespace(rate=2.0, m=2000001, n=1000000, epsilon_gap=-1e-6)
    assert rejects(W.check_rate, over, e_rho, e_sigma, W.REE_TOL)

    values_ln, values_ree = (0.8, 0.4), (0.6, 0.3)
    good = SimpleNamespace(r_forward=2.0, r_backward=0.5, product=1.0)
    W.check_multi(good, values_ln, values_ree, W.EXACT_TOL, W.REE_TOL)
    bad = SimpleNamespace(r_forward=2.2, r_backward=0.5, product=1.1)
    assert rejects(W.check_multi, bad, values_ln, values_ree, W.EXACT_TOL, W.REE_TOL)


def test_swap_check_rejects_an_output_off_by_1e_10():
    rng = np.random.default_rng(5)
    rho = ref.noisy_pure(4, 0.9, rng)
    sigma = ref.noisy_pure(9, 0.2, rng)
    rs, ss = W.bstate(rho, 2, 2), W.bstate(sigma, 3, 3)
    values = sorted([(ref.log_negativity(rho, 2, 2), rho, rs, (2, 2)), (ref.log_negativity(sigma, 3, 3), sigma, ss, (3, 3))], key=lambda t: -t[0])
    (_, m_a, s_a, d_a), (_, m_b, s_b, d_b) = values
    report = battery.swap_protocol(s_a, s_b, W.LOG_NEG)
    W.check_swap(report, m_a, d_a, m_b, d_b)
    nudged = report.final_global.matrix.copy()
    nudged[0, 0] += 1e-10
    fake = SimpleNamespace(
        initial_global=report.initial_global,
        final_global=SimpleNamespace(matrix=nudged),
        final_system_trace_distance=report.final_system_trace_distance,
    )
    assert rejects(W.check_swap, fake, m_a, d_a, m_b, d_b)
    late = SimpleNamespace(
        initial_global=report.initial_global,
        final_global=report.final_global,
        final_system_trace_distance=1e-10,
    )
    assert rejects(W.check_swap, late, m_a, d_a, m_b, d_b)


def test_continuity_check_rejects_values_outside_the_bracket():
    rng = np.random.default_rng(6)
    rho, sigma, tau = (ref.noisy_pure(4, w, rng) for w in (0.9, 0.7, 0.8))
    want = W.continuity_reference(rho, sigma, tau)
    lo1, hi1 = want["rho_tau"]
    lo2, hi2 = want["sigma_tau"]
    e1, e2 = max(lo1, 0.0) + 0.5 * (hi1 - max(lo1, 0.0)), max(lo2, 0.0) + 0.5 * (hi2 - max(lo2, 0.0))

    def report(**kw):
        base = dict(epsilon=want["eps"], rhs=want["rhs"], e_rho_tau=e1, e_sigma_tau=e2, lhs=abs(e1 - e2), holds=True)
        base.update(kw)
        return SimpleNamespace(**base)

    W.check_continuity(report(), want)
    assert rejects(W.check_continuity, report(epsilon=want["eps"] + 1e-9), want)
    assert rejects(W.check_continuity, report(e_rho_tau=hi1 + 1e-8, lhs=abs(hi1 + 1e-8 - e2)), want)
    assert rejects(W.check_continuity, report(e_sigma_tau=lo2 - 1e-8, lhs=abs(e1 - lo2 + 1e-8)), want)
    assert rejects(W.check_continuity, report(holds=False), want)


def test_search_check_rejects_a_misreported_pair(tmp_path):
    rho_file, sigma_file = str(tmp_path / "rho.json"), str(tmp_path / "sigma.json")
    text = W.cli_call([
        "search-pair", "--measure-1", W.LOG_NEG, "--measure-2", W.REL_ENT, "--seed", "0",
        "--save-rho", rho_file, "--save-sigma", sigma_file,
    ])
    rho, sigma = W.read_matrix_state(rho_file), W.read_matrix_state(sigma_file)
    W.check_search_output(text, rho, sigma)
    lines = dict(line.split(" ", 1) for line in text.strip().splitlines())
    ln_r, ree_r = (float(x) for x in lines["rho"].split())

    def with_rho(ln: float, ree: float) -> str:
        return text.replace(f"rho {lines['rho']}", f"rho {ln:.12f} {ree:.12f}")

    assert rejects(W.check_search_output, with_rho(ln_r + 1e-8, ree_r), rho, sigma)
    assert rejects(W.check_search_output, text, sigma, rho)  # pair handed back in the wrong order
    product = float(lines["product"])
    assert rejects(W.check_search_output, text.replace(lines["product"], f"{product + 1e-8:.12f}"), rho, sigma)


def test_exact_value_checks_reject_a_billionth_past_tolerance():
    W.expect_close("Bell^5 log-negativity", 5.0 + 0.9e-9, 5.0, 1e-9)
    assert rejects(W.expect_close, "Bell^5 log-negativity", 5.0 + 1.1e-9, 5.0, 1e-9)
    assert rejects(W.expect_close, "nan", math.nan, 5.0, 1e-9)
    assert rejects(W.expect_between, "distance", 1.1e-12, 0.0, W.SWAP_TOL)


def test_large_dim_embezzler_rows_are_checked():
    wl = W.build_large_dim(0, Path("."))
    check = next(op for op in wl.rounds[0] if op.label == "embezzlement-demo").check
    rows = [
        SimpleNamespace(d=d, e_g=0.5, entropy=ref.embezzler_entropy(d), swap_checked=True, battery_delta=0.0)
        for d in (2, 3)
    ]
    check(rows)
    rows[1].e_g = 0.5 + 1e-11
    assert rejects(check, rows)
