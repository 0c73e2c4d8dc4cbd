import json
import subprocess
import sys

import pytest

from transientmdp.cli import main
from transientmdp.verify import random_finite_mdp


def run_cli(args):
    return main([str(a) for a in args])


def test_list_gadgets(capsys):
    assert run_cli(["list-gadgets"]) == 0
    out = capsys.readouterr().out
    assert "gamblers_ruin" in out
    assert "no_optimal_ladder" in out


def test_sweep_is_byte_identical(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 5,
                "mdp": {"gadget": "gamblers_ruin", "params": {"p": 0.5}},
                "task": {
                    "kind": "sweep",
                    "gadget": "gamblers_ruin",
                    "param": "p",
                    "values": [0.4, 0.6, 0.8],
                    "state": 0,
                    "estimate": {
                        "horizon": 800,
                        "runs": 200,
                        "proxy": {"type": "revisit_cap", "max_visits": 25},
                    },
                },
            }
        )
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["--out-dir", out1, "run", scenario]) == 0
    assert run_cli(["--out-dir", out2, "run", scenario]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    # Pinned bytes: a change to the vector engine must keep its streams.
    assert (out1 / "sweep.csv").read_text() == (
        "p,estimate,half_width_95\n"
        "0.4,0.0,0.0\n"
        "0.6,0.7,0.06351125884439704\n"
        "0.8,1.0,0.0\n"
    )


def test_documented_argument_order(tmp_path, capsys):
    # README: transientmdp [--seed N] [--out-dir DIR] run scenario.json
    def scenario(name, seed):
        path = tmp_path / name
        path.write_text(json.dumps({
            "seed": seed,
            "mdp": {"gadget": "gamblers_ruin", "params": {"p": 0.6}},
            "task": {"kind": "simulate", "state": 0, "horizon": 200, "runs": 50},
        }))
        return path

    assert run_cli(["--seed", 3, "--out-dir", tmp_path / "a", "run", scenario("s1.json", 1)]) == 0
    assert run_cli(["--out-dir", tmp_path / "b", "run", scenario("s3.json", 3)]) == 0
    assert (tmp_path / "a" / "estimate.json").read_bytes() == (
        tmp_path / "b" / "estimate.json"
    ).read_bytes()


def test_solve_interval_on_gadget(tmp_path, capsys):
    scenario = tmp_path / "solve.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 1,
                "mdp": {"gadget": "gamblers_ruin", "params": {"p": 0.6}},
                "task": {
                    "kind": "solve",
                    "objective": {"type": "reach", "states": [0]},
                    "state": 1,
                    "radii": [100],
                },
            }
        )
    )
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    doc = json.loads((tmp_path / "interval.json").read_text())
    assert abs(doc["lower"] - 2.0 / 3.0) < 1e-4


def test_solve_exact_on_finite_file(tmp_path):
    fm = random_finite_mdp(9, n_states=7)
    fm.dump(tmp_path / "mdp.json")
    scenario = tmp_path / "solve.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 1,
                "mdp": {"file": str(tmp_path / "mdp.json")},
                "task": {
                    "kind": "solve",
                    "objective": {
                        "type": "reach",
                        "states": [fm.states[-1].ordinal],
                    },
                    "state": 0,
                },
            }
        )
    )
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    doc = json.loads((tmp_path / "values.json").read_text())
    assert str(fm.states[-1].ordinal) in doc


def test_synthesize_transience_md_scenario(tmp_path, capsys):
    scenario = tmp_path / "syn.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 3,
                "mdp": {"gadget": "no_optimal_ladder"},
                "task": {
                    "kind": "synthesize",
                    "method": "transience_md",
                    "state": 1,
                    "epsilon": 0.1,
                    "radius": 40,
                    "proxy": {"type": "revisit_cap", "max_visits": 60},
                },
            }
        )
    )
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    strategy = json.loads((tmp_path / "strategy.json").read_text())
    assert strategy  # explicit choices on the truncation
    report = json.loads((tmp_path / "synthesis_report.json").read_text())
    assert report["bad_states"] == [0]  # the bottom sink
    assert report["attained_estimate"] >= 0.9


def test_synthesize_plastering_on_finite_file(tmp_path):
    fm = random_finite_mdp(4, n_states=8)
    fm.dump(tmp_path / "mdp.json")
    scenario = tmp_path / "plaster.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 1,
                "mdp": {"file": str(tmp_path / "mdp.json")},
                "task": {
                    "kind": "synthesize",
                    "method": "plastering",
                    "epsilon": 0.05,
                    "objective": {"type": "reach", "states": [fm.states[-1].ordinal]},
                },
            }
        )
    )
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    audit = json.loads((tmp_path / "plastering_audit.json").read_text())
    assert len(audit["rounds"]) == len(fm.states)


def test_verify_suite_exit_codes(tmp_path, capsys):
    assert run_cli(["--out-dir", tmp_path, "verify", "solvers"]) == 0
    reports = json.loads((tmp_path / "check_reports.json").read_text())
    assert all(r["passed"] for r in reports)


def test_verify_scenario_merges_suites_by_name(tmp_path, capsys):
    scenario = tmp_path / "verify.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 2,
                "task": {"kind": "verify", "suites": ["solvers", "transience"]},
            }
        )
    )
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    reports = json.loads((tmp_path / "check_reports.json").read_text())
    names = [r["name"] for r in reports]
    assert names == sorted(names)  # deterministic merge order


def test_bad_scenario_exits_one(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text("{not json")
    assert run_cli(["run", scenario]) == 1
    scenario.write_text(json.dumps({"seed": 1, "task": {"kind": "nope"}}))
    assert run_cli(["run", scenario]) == 1


def test_relative_mdp_file_resolves_against_scenario(tmp_path, monkeypatch):
    scen_dir, elsewhere = tmp_path / "scenarios", tmp_path / "elsewhere"
    scen_dir.mkdir()
    elsewhere.mkdir()
    fm = random_finite_mdp(9, n_states=7)
    fm.dump(scen_dir / "mdp.json")
    scenario = scen_dir / "solve.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 1,
                "mdp": {"file": "mdp.json"},
                "task": {
                    "kind": "solve",
                    "objective": {"type": "reach", "states": [fm.states[-1].ordinal]},
                    "state": 0,
                },
            }
        )
    )
    monkeypatch.chdir(elsewhere)
    assert run_cli(["--out-dir", tmp_path / "out", "run", scenario]) == 0
    assert (tmp_path / "out" / "values.json").exists()


GADGET = {"gadget": "gamblers_ruin", "params": {"p": 0.6}}
SOLVE = {"kind": "solve", "objective": {"type": "reach", "states": [0]}, "state": 0}


@pytest.mark.parametrize(
    "mdp, task",
    [
        ({"file": "absent.json"}, SOLVE),
        ({"file": "broken.json"}, SOLVE),
        (GADGET, {"kind": "simulate", "state": 0, "runs": 0}),
        (GADGET, {"kind": "simulate", "state": 0, "horizon": 50,
                  "proxy": {"type": "fresh_tail", "window": 50}}),
        (GADGET, {**SOLVE, "objective": {"type": "reach", "states": ["w0"]}}),
        (GADGET, {"kind": "synthesize", "method": "transience_md", "state": 0,
                  "epsilon": "x"}),
        (3, SOLVE),
        ({"file": None}, SOLVE),
        ({"gadget": "nope"}, SOLVE),
        ({"gadget": {}}, SOLVE),
        ({"gadget": "gamblers_ruin", "params": {"p": 2}}, SOLVE),
        ({"gadget": "gamblers_ruin", "params": {"p": "x"}}, SOLVE),
        ({"gadget": "gamblers_ruin", "params": {"q": 0.6}}, SOLVE),
        (GADGET, {"kind": "simulate", "state": 0, "runs": None}),
        (GADGET, {"kind": "simulate", "state": 0, "horizon": float("inf")}),
        (GADGET, {"kind": "simulate", "state": float("inf")}),
        (GADGET, {"kind": "simulate", "state": 0, "proxy": {"type": "revisit_cap",
                                                             "max_visits": None}}),
        (GADGET, {**SOLVE, "objective": 0.5}),
        (GADGET, {**SOLVE, "objective": {"type": "reach", "states": 3}}),
        (GADGET, {**SOLVE, "objective": {"type": "reach", "label_prefix": 3}}),
        (GADGET, {**SOLVE, "objective": {"type": "transience"}}),
        (GADGET, {**SOLVE, "radii": 50}),
        (GADGET, {**SOLVE, "radii": []}),
        (GADGET, {**SOLVE, "radii": [float("inf")]}),
        (GADGET, {"kind": "simulate", "state": -1}),
        (GADGET, {**SOLVE, "state": -1}),
        ({"gadget": "geometric_fan"}, {"kind": "simulate", "state": 0}),
        (GADGET, {**SOLVE, "state": 2.7}),
        (GADGET, {**SOLVE, "state": "3"}),
        ({"file": "finite.json"}, {**SOLVE, "state": True}),
    ],
    ids=["missing_mdp_file", "malformed_mdp_file", "zero_runs", "horizon_within_window",
         "non_numeric_objective_state", "non_numeric_epsilon", "mdp_not_an_object",
         "mdp_file_not_a_path", "unknown_gadget", "unhashable_gadget_name",
         "gadget_param_out_of_range", "gadget_param_not_a_number", "unknown_gadget_param",
         "null_runs", "infinite_horizon", "infinite_state", "null_max_visits",
         "objective_not_an_object", "objective_states_not_a_list",
         "label_prefix_not_a_string", "solve_transience", "radii_not_a_list", "empty_radii",
         "infinite_radius", "negative_gadget_state", "solve_negative_gadget_state",
         "ordinal_not_a_gadget_state", "fractional_gadget_state", "string_gadget_state",
         "boolean_file_state"],
)
def test_bad_scenario_input_is_a_scenario_error(tmp_path, capsys, mdp, task):
    (tmp_path / "broken.json").write_text('{"states": [')
    random_finite_mdp(4, n_states=8).dump(tmp_path / "finite.json")
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({"seed": 1, "mdp": mdp, "task": task}))
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 1
    assert capsys.readouterr().err.startswith("scenario error: ")


def test_non_numeric_seed_is_a_scenario_error(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({"seed": "x", "mdp": GADGET, "task": SOLVE}))
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 1
    assert capsys.readouterr().err.startswith("scenario error: ")


@pytest.mark.parametrize(
    "task",
    [{"kind": "simulate", "state": 99}, {"kind": "simulate"}],
    ids=["unknown_state", "missing_state"],
)
def test_bad_state_is_a_scenario_error(tmp_path, capsys, task):
    random_finite_mdp(9, n_states=7).dump(tmp_path / "mdp.json")
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({"seed": 1, "mdp": {"file": "mdp.json"}, "task": task}))
    assert run_cli(["--out-dir", tmp_path / "out", "run", scenario]) == 1
    assert capsys.readouterr().err.startswith("scenario error: ")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "transientmdp.cli", "list-gadgets"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gamblers_ruin" in proc.stdout
