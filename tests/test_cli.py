import json
import math
import subprocess
import sys

import pytest
from numpy.testing import assert_allclose

from entbat.cli import main
from entbat.states import PureSchmidtState, bell, load_state, product_pure, pure_alpha, save_state, werner

from oracles import gibbs_weights, shannon_bits


@pytest.fixture
def state_file(tmp_path):
    def write(name, state):
        path = tmp_path / name
        save_state(state, path)
        return str(path)

    return write


@pytest.fixture
def scenario_file(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasureCommand:
    def test_bell_entropy_prints_twelve_decimals(self, capsys, state_file):
        path = state_file("bell.json", bell())
        code, out, err = run_cli(
            capsys, "measure", "--measure", "entropy-of-entanglement", "--state", path
        )
        assert code == 0
        assert out == "1.000000000000\n"
        assert err == ""

    def test_bell_log_negativity(self, capsys, state_file):
        path = state_file("bell.json", bell())
        code, out, _ = run_cli(capsys, "measure", "--measure", "log-negativity", "--state", path)
        assert code == 0
        assert out == "1.000000000000\n"

    def test_ppt_state_prints_plain_zero(self, capsys, state_file):
        path = state_file("sep.json", werner(0.2))
        code, out, _ = run_cli(capsys, "measure", "--measure", "log-negativity", "--state", path)
        assert code == 0
        assert out == "0.000000000000\n"

    def test_optimizer_flags_reach_the_measure(self, capsys, state_file):
        path = state_file("bell.json", bell())
        code, out, _ = run_cli(
            capsys,
            "measure",
            "--measure",
            "relative-entropy",
            "--state",
            path,
            "--restarts",
            "2",
            "--max-iters",
            "500",
        )
        assert code == 0
        assert out == "1.000000000000\n"


class TestFeasibleCommand:
    def test_verdicts(self, capsys, state_file):
        b = state_file("bell.json", bell())
        a = state_file("alpha.json", pure_alpha(0.3).to_bipartite())
        code, out, _ = run_cli(
            capsys, "feasible", "--measure", "entropy-of-entanglement", "--from", b, "--to", a
        )
        assert (code, out) == (0, "feasible\n")
        code, out, _ = run_cli(
            capsys, "feasible", "--measure", "entropy-of-entanglement", "--from", a, "--to", b
        )
        assert (code, out) == (0, "infeasible\n")


class TestRateCommands:
    def test_integer_rate_plan(self, capsys, state_file):
        two = state_file("two.json", PureSchmidtState([0.25] * 4))
        b = state_file("bell.json", bell())
        code, out, _ = run_cli(
            capsys, "rate", "--measure", "entropy-of-entanglement", "--from", two, "--to", b
        )
        assert code == 0
        assert out.splitlines() == ["rate 2.000000000000", "plan 2/1", "gap 0", "exact 1"]

    def test_irrational_rate_plan_reports_gap(self, capsys, state_file):
        b = state_file("bell.json", bell())
        a = state_file("alpha.json", pure_alpha(0.3).to_bipartite())
        code, out, _ = run_cli(
            capsys, "rate", "--measure", "entropy-of-entanglement", "--from", b, "--to", a
        )
        assert code == 0
        lines = out.splitlines()
        rate = float(lines[0].split()[1])
        m, n = (int(x) for x in lines[1].split()[1].split("/"))
        assert_allclose(rate, 1.0 / shannon_bits(pure_alpha(0.3).probs), atol=1e-9)
        assert m / n <= rate + 1e-12
        assert float(lines[2].split()[1]) < 1e-6

    def test_log_negativity_rate_plan(self, capsys, state_file):
        b = state_file("bell.json", bell())
        a = state_file("alpha.json", pure_alpha(math.pi / 8).to_bipartite())
        code, out, _ = run_cli(capsys, "rate", "--measure", "log-negativity", "--from", b, "--to", a)
        assert code == 0
        lines = out.splitlines()
        rate = float(lines[0].split()[1])
        m, n = (int(x) for x in lines[1].split()[1].split("/"))
        assert_allclose(rate, 1.0 / math.log2(1.0 + math.sin(math.pi / 4)), atol=1e-9)
        assert m / n <= rate + 1e-12

    def test_zero_error_needs_additive_measure(self, capsys, state_file):
        b = state_file("bell.json", bell())
        a = state_file("alpha.json", pure_alpha(0.3).to_bipartite())
        code, out, err = run_cli(capsys, "zero-error", "--measure", "geometric", "--from", b, "--to", a)
        assert code == 1
        assert out == ""
        assert err.startswith("error: applicability:")

    def test_unbounded_rate_is_an_error(self, capsys, state_file):
        b = state_file("bell.json", bell())
        p = state_file("prod.json", product_pure(2, 2))
        code, _, err = run_cli(capsys, "rate", "--measure", "log-negativity", "--from", b, "--to", p)
        assert code == 1
        assert err.startswith("error: unbounded-rate:")


class TestSwapCommand:
    def test_reports_battery_balance(self, capsys, state_file):
        b = state_file("bell.json", bell())
        a = state_file("alpha.json", pure_alpha(0.4).to_bipartite())
        code, out, _ = run_cli(
            capsys, "swap", "--measure", "entropy-of-entanglement", "--from", b, "--to", a
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "battery-after 1.000000000000"
        assert lines[0].startswith("battery-before 0.")
        assert float(lines[2].split()[1]) <= 1e-12

    def test_infeasible_swap_fails(self, capsys, state_file):
        b = state_file("bell.json", bell())
        a = state_file("alpha.json", pure_alpha(0.4).to_bipartite())
        code, _, err = run_cli(
            capsys, "swap", "--measure", "entropy-of-entanglement", "--from", a, "--to", b
        )
        assert code == 1
        assert err.startswith("error: infeasible:")


class TestMultiMeasureCommand:
    def test_self_pair_has_unit_product(self, capsys, state_file):
        b = state_file("bell.json", bell())
        code, out, _ = run_cli(
            capsys,
            "multi-measure",
            "--measure-1",
            "entropy-of-entanglement",
            "--measure-2",
            "log-negativity",
            "--from",
            b,
            "--to",
            b,
        )
        assert code == 0
        assert out.splitlines() == [
            "r-forward 1.000000000000",
            "r-backward 1.000000000000",
            "product 1.000000000000",
        ]


class TestContinuityCommand:
    def test_nearby_states_hold(self, capsys, state_file):
        r = state_file("w90.json", werner(0.9))
        s = state_file("w85.json", werner(0.85))
        t = state_file("tau.json", product_pure(2, 2))
        code, out, _ = run_cli(capsys, "continuity-check", "--from", r, "--to", s, "--tau", t)
        assert code == 0
        lines = out.splitlines()
        assert [ln.split()[0] for ln in lines] == ["epsilon", "lhs", "rhs", "slack", "holds"]
        assert lines[-1] == "holds 1"


class TestThermoCommands:
    def test_free_energy_variants(self, capsys, scenario_file):
        g = gibbs_weights((0.0, 1.0), 1.0)
        doc = {"beta": 1.0, "energies": [0.0, 1.0], "rho": [float(g[0]), float(g[1])]}
        path = scenario_file("gibbs.json", doc)
        code, out, _ = run_cli(
            capsys, "thermo", "free-energy", "--scenario", path, "--variant", "relative-to-gibbs"
        )
        assert (code, out) == (0, "0.000000000000\n")
        code, out, _ = run_cli(capsys, "thermo", "free-energy", "--scenario", path)
        want = -math.log2(1.0 + math.exp(-1.0))
        assert out == f"{want:.12f}\n"

    def test_f_max_of_excited_state(self, capsys, scenario_file):
        path = scenario_file("exc.json", {"beta": 1.0, "energies": [0.0, 1.0], "rho": [0.0, 1.0]})
        code, out, _ = run_cli(capsys, "thermo", "f-max", "--scenario", path)
        assert code == 0
        assert out == f"{math.log2(math.e + 1.0):.12f}\n"

    def test_feasible_verdicts(self, capsys, scenario_file):
        g = gibbs_weights((0.0, 1.0), 1.0)
        hot = scenario_file("hot.json", {"beta": 1.0, "energies": [0.0, 1.0], "rho": [0.0, 1.0]})
        cold = scenario_file(
            "cold.json", {"beta": 1.0, "energies": [0.0, 1.0], "rho": [float(g[0]), float(g[1])]}
        )
        code, out, _ = run_cli(capsys, "thermo", "feasible", "--from", hot, "--to", cold)
        assert (code, out) == (0, "feasible\n")
        code, out, _ = run_cli(capsys, "thermo", "feasible", "--from", cold, "--to", hot)
        assert (code, out) == (0, "infeasible\n")

    def test_self_dilution_output(self, capsys, scenario_file):
        path = scenario_file("half.json", {"beta": 1.0, "energies": [0.0, 1.0], "rho": [0.5, 0.5]})
        code, out, _ = run_cli(capsys, "thermo", "self-dilution", "--scenario", path)
        assert code == 0
        lines = out.splitlines()
        assert [ln.split()[0] for ln in lines] == ["r", "r-prime", "product", "at-gibbs"]
        assert float(lines[2].split()[1]) > 1.0
        assert lines[3] == "at-gibbs 0"

    def test_self_dilution_endpoint_is_exactly_one(self, capsys, scenario_file):
        path = scenario_file("exc.json", {"beta": 1.0, "energies": [0.0, 1.0], "rho": [0.0, 1.0]})
        code, out, _ = run_cli(capsys, "thermo", "self-dilution", "--scenario", path)
        lines = out.splitlines()
        assert lines[0] == "r 1.000000000000"
        assert lines[2] == "product 1.000000000000"


class TestCsvCommands:
    def test_dilution_curve_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "dilution-curve", "--alpha-min", "0.2", "--steps", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,e_n,e_c,ratio"
        assert len(lines) == 6

    def test_dilution_curve_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys,
            "dilution-curve",
            "--alpha-min",
            "0.2",
            "--steps",
            "5",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("alpha,e_n,e_c,ratio\n")
        assert len(text.splitlines()) == 6

    def test_embezzle_demo(self, capsys):
        code, out, _ = run_cli(capsys, "embezzle-demo", "--dims", "2,5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,e_g,entropy,amplification,swap_checked"
        assert lines[1].startswith("2,0.5,")
        assert lines[2] == "5,0.5,2,2,0"

    def test_embezzle_demo_bad_dims_is_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "embezzle-demo", "--dims", "x,2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: parse:")


class TestSearchPairCommand:
    def test_finds_and_saves_pair(self, capsys, tmp_path):
        rho_path = tmp_path / "rho.json"
        sigma_path = tmp_path / "sigma.json"
        code, out, _ = run_cli(
            capsys,
            "search-pair",
            "--measure-1",
            "log-negativity",
            "--measure-2",
            "squashed-upper",
            "--seed",
            "0",
            "--save-rho",
            str(rho_path),
            "--save-sigma",
            str(sigma_path),
        )
        assert code == 0
        lines = out.splitlines()
        assert [ln.split()[0] for ln in lines] == ["samples", "rho", "sigma", "product"]
        assert float(lines[3].split()[1]) < 1.0 - 1e-3
        rho = load_state(rho_path)
        assert (rho.dim_a, rho.dim_b) == (2, 2)
        load_state(sigma_path)

    def test_exhausted_search_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "search-pair",
            "--measure-1",
            "entropy-of-entanglement",
            "--measure-2",
            "entanglement-cost-pure",
            "--budget",
            "40",
        )
        assert code == 1
        assert err.startswith("error: search-exhausted:")


class TestErrorReporting:
    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "measure",
            "--measure",
            "log-negativity",
            "--state",
            str(tmp_path / "nope.json"),
        )
        assert code == 1
        assert err.startswith("error: io:")

    def test_broken_json_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "measure", "--measure", "log-negativity", "--state", str(path))
        assert code == 1
        assert err.startswith("error: parse:")

    def test_invalid_state_is_validation_error(self, capsys, tmp_path):
        doc = {
            "kind": "matrix",
            "dims": [2, 2],
            "payload": [
                [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.443, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [-0.003, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.04, 0.0]],
            ],
        }
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "measure", "--measure", "log-negativity", "--state", str(path))
        assert code == 1
        assert err.startswith("error: validation: not positive semidefinite")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--measure", "not-a-measure", "--state", "x.json"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, tmp_path):
        path = tmp_path / "bell.json"
        save_state(bell(), path)
        cmd = [
            sys.executable,
            "-m",
            "entbat.cli",
            "measure",
            "--measure",
            "relative-entropy",
            "--state",
            str(path),
            "--restarts",
            "2",
            "--max-iters",
            "300",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout == b"1.000000000000\n"
