import json
import subprocess
import sys

import pytest

from transientmdp import LazyMdp, StateKind, cli
from transientmdp.cli import main
from transientmdp.core import _Layers, successor_states
from transientmdp.gadgets import REGISTRY, build_gadget
from transientmdp.synthesis import BubbleSchedule, _one_bit_on
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


def test_synthesize_transience_md_reports_the_input_fan(tmp_path):
    # The fan is synthesized on its finite-branching reduction; the strategy
    # and the report speak of the fan's own states.  The trap (ordinal 2) is
    # the one bad state; its embedding in the reduction has ordinal 4, which
    # is a_1 on the fan.
    scenario = tmp_path / "fan.json"
    scenario.write_text(json.dumps({
        "seed": 3,
        "mdp": {"gadget": "transience_fan"},
        "task": {"kind": "synthesize", "method": "transience_md", "state": 0,
                 "epsilon": 0.2, "radius": 12},
    }))
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    strategy = json.loads((tmp_path / "strategy.json").read_text())
    assert list(strategy) == ["0"] and strategy["0"] % 3 == 0  # a branch b_j = 3j
    report = json.loads((tmp_path / "synthesis_report.json").read_text())
    assert report["bad_states"] == [2]
    meta = build_gadget("transience_fan")[1]
    assert report["good_prime"] and all(meta.is_state(o) for o in report["good_prime"])
    assert 2 not in report["good_prime"]
    assert 0.0 <= report["one_bit_attainment"] <= 1.0


def test_synthesize_one_bit_asks_each_state_once(tmp_path, monkeypatch):
    # The strategy table is read off the plan's own truncation, so the CLI
    # does not search the region again.
    ladder, meta = build_gadget("no_optimal_ladder")
    asked = []

    def successors(s):
        asked.append(s.ordinal)
        return ladder.successors_of(s)

    counted = LazyMdp(ladder.kind_of, successors)
    monkeypatch.setattr(cli, "build_gadget", lambda name, params: (counted, meta))
    scenario = tmp_path / "one_bit.json"
    scenario.write_text(json.dumps({
        "seed": 3,
        "mdp": {"gadget": "no_optimal_ladder"},
        "task": {"kind": "synthesize", "method": "one_bit", "state": 1, "epsilon": 0.1,
                 "objective": {"type": "buechi", "label_prefix": ""}},
    }))
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    assert asked and len(asked) == len(set(asked))
    assert json.loads((tmp_path / "strategy.json").read_text())["update"]


def test_synthesize_one_bit_records_mode_flips(tmp_path):
    # On the walk every goal state is random, so the strategy acts only by
    # flipping its mode there; strategy.json records those flips.
    scenario = tmp_path / "one_bit.json"
    scenario.write_text(json.dumps({
        "seed": 3,
        "mdp": {"gadget": "gamblers_ruin", "params": {"p": 0.7}},
        "task": {"kind": "synthesize", "method": "one_bit", "state": 0, "epsilon": 0.1,
                 "objective": {"type": "buechi", "label_prefix": "w_"}},
    }))
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    doc = json.loads((tmp_path / "strategy.json").read_text())
    plan = json.loads((tmp_path / "bubble_plan.json").read_text())
    assert doc["update"] == {} and len(plan["levels"]) == 2

    walk, meta = build_gadget("gamblers_ruin", {"p": 0.7})
    w0 = cli._state(walk, meta, 0)
    strategy, _, region = _one_bit_on(_Layers(walk, [w0]), [w0],
                                      lambda s: s.label.startswith("w_"), 0.1, BubbleSchedule())
    flips = {}
    for s in region.states:
        if region.kind_of(s) is StateKind.RANDOM:
            for mode in (0, 1):
                changed = [t.ordinal for t in successor_states(region, s)
                           if strategy.random_update(mode, s, t) != mode]
                if changed:
                    flips[f"{mode}:{s.ordinal}"] = sorted(changed)
    assert flips and doc["flip"] == flips
    assert doc["initial_mode"] == strategy.initial_mode


def test_gadget_start_state_keeps_its_label(tmp_path):
    # The start state is the walk's own w_0, so the label-prefix goal counts
    # it: the first level's goal frontier holds w_0 as well as w_1, and in
    # mode 1 the strategy flips its mode on the step from w_0 to w_1.
    scenario = tmp_path / "one_bit.json"
    scenario.write_text(json.dumps({
        "seed": 3,
        "mdp": {"gadget": "gamblers_ruin", "params": {"p": 0.7}},
        "task": {"kind": "synthesize", "method": "one_bit", "state": 0, "epsilon": 0.1,
                 "objective": {"type": "buechi", "label_prefix": "w_"}},
    }))
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    plan = json.loads((tmp_path / "bubble_plan.json").read_text())
    assert plan["levels"][0]["F_size"] == 2
    assert json.loads((tmp_path / "strategy.json").read_text())["flip"]["1:0"] == [1]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_gadget_states_carry_their_labels(name):
    mdp, meta = build_gadget(name, {"p": 0.7} if name == "gamblers_ruin" else None)
    for o in filter(meta.is_state, range(12)):
        s = cli._state(mdp, meta, o)
        assert s.ordinal == o and s.label, (name, o)
        assert s is cli._state(mdp, meta, o)


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


@pytest.mark.parametrize("p_win", [5e-10, 5e-8])
def test_synthesize_optimal_md_on_tiny_values(tmp_path, p_win):
    # State 0 picks state 1, which wins with probability p_win, or state 2,
    # which loses; below 1e-9 the two values are within the value tolerance.
    kinds = ["C", "R", "R", "R", "R"]
    edges = [(0, 1, None), (0, 2, None), (1, 3, p_win), (1, 4, 1.0 - p_win),
             (2, 4, 1.0), (3, 3, 1.0), (4, 4, 1.0)]
    model = {
        "states": [{"id": i, "label": str(i), "kind": k} for i, k in enumerate(kinds)],
        "transitions": [{"from": a, "to": b, "p": p} for a, b, p in edges],
        "sinks": [[3], [4]],
    }
    (tmp_path / "mdp.json").write_text(json.dumps(model))
    scenario = tmp_path / "optimal.json"
    scenario.write_text(json.dumps({
        "seed": 1,
        "mdp": {"file": "mdp.json"},
        "task": {"kind": "synthesize", "method": "optimal_md",
                 "objective": {"type": "reach", "states": [3]}},
    }))
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    assert json.loads((tmp_path / "strategy.json").read_text()) == {"0": 1}


def _write_model(path, states, edges, sinks):
    # states: (label, kind) by ordinal; edges: (from, to, p), p None when
    # controlled.
    path.write_text(json.dumps({
        "states": [{"id": i, "label": label, "kind": kind}
                   for i, (label, kind) in enumerate(states)],
        "transitions": [{"from": a, "to": b, "p": p} for a, b, p in edges],
        "sinks": sinks,
    }))


def test_solve_safety_on_finite_file(tmp_path, capsys):
    # s0 picks r, which stays safe with probability 3/4, or r', which falls
    # into the bad sink surely.
    _write_model(tmp_path / "mdp.json",
                 [("s0", "C"), ("r", "R"), ("r'", "R"), ("safe", "R"), ("bad", "R")],
                 [(0, 1, None), (0, 2, None), (1, 3, 0.75), (1, 4, 0.25), (2, 4, 1.0),
                  (3, 3, 1.0), (4, 4, 1.0)],
                 [[3], [4]])
    scenario = tmp_path / "solve.json"
    scenario.write_text(json.dumps({
        "seed": 1,
        "mdp": {"file": "mdp.json"},
        "task": {"kind": "solve", "objective": {"type": "safety", "states": [4]}, "state": 0},
    }))
    assert run_cli(["--out-dir", tmp_path, "run", scenario]) == 0
    values = json.loads((tmp_path / "values.json").read_text())
    want = {"0": 0.75, "1": 0.75, "2": 0.0, "3": 1.0, "4": 0.0}
    assert values.keys() == want.keys()
    assert all(abs(values[k] - v) <= 1e-12 for k, v in want.items())
    assert "val(s0) = 0.750000" in capsys.readouterr().out


def _safety_md_scenario(tmp_path):
    scenario = tmp_path / "safety.json"
    scenario.write_text(json.dumps({
        "seed": 1,
        "mdp": {"file": "mdp.json"},
        "task": {"kind": "synthesize", "method": "safety_md", "state": 0, "epsilon": 0.1,
                 "objective": {"type": "safety", "states": [2]}},
    }))
    return scenario


def test_synthesize_safety_md_on_finite_file(tmp_path):
    # Acyclic: s0 picks the safe or the bad absorbing sink.
    _write_model(tmp_path / "mdp.json", [("s0", "C"), ("safe", "R"), ("bad", "R")],
                 [(0, 1, None), (0, 2, None), (1, 1, 1.0), (2, 2, 1.0)], [[1], [2]])
    assert run_cli(["--out-dir", tmp_path, "run", _safety_md_scenario(tmp_path)]) == 0
    assert json.loads((tmp_path / "strategy.json").read_text()) == {"0": 1}


def test_synthesize_safety_md_refuses_a_return_to_s0(tmp_path, capsys):
    # s0 can pick r, which moves back to s0: it returns with probability 1.
    _write_model(tmp_path / "mdp.json", [("s0", "C"), ("r", "R"), ("bad", "R")],
                 [(0, 1, None), (0, 2, None), (1, 0, 1.0), (2, 2, 1.0)], [[2]])
    assert run_cli(["--out-dir", tmp_path, "run", _safety_md_scenario(tmp_path)]) == 1
    assert "error: certified return probability 1 at s0" in capsys.readouterr().err
    assert not (tmp_path / "strategy.json").exists()


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
        (GADGET, {"kind": "simulate", "state": 0, "horizon": -4}),
        ({"gadget": "gamblers_ruin", "params": {"p": 0.3}},
         {"kind": "simulate", "state": 0, "horizon": 50, "runs": 20,
          "proxy": {"type": "fresh_tail", "window": -5}}),
        ({"gadget": "gamblers_ruin", "params": {"p": 0.9}},
         {"kind": "simulate", "state": 0, "horizon": 50, "runs": 20,
          "proxy": {"type": "revisit_cap", "max_visits": -3}}),
        ({"file": "nan.json"}, {**SOLVE, "objective": {"type": "reach", "states": [7]}}),
        ({"file": "finite.json"}, {**SOLVE, "objective": {"type": "reach", "states": [99]}}),
        ({"file": "finite.json"}, {"kind": "synthesize", "method": "optimal_md",
                                   "objective": {"type": "reach", "states": [7, 99]}}),
        (GADGET, {"kind": "synthesize", "method": "one_bit", "state": 0,
                  "objective": {"type": "transience"}}),
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
         "boolean_file_state", "negative_horizon", "negative_fresh_tail_window",
         "negative_max_visits", "nan_probability_file", "objective_state_not_in_file",
         "synthesis_objective_state_not_in_file", "one_bit_transience_goal"],
)
def test_bad_scenario_input_is_a_scenario_error(tmp_path, capsys, mdp, task):
    (tmp_path / "broken.json").write_text('{"states": [')
    random_finite_mdp(4, n_states=8).dump(tmp_path / "finite.json")
    doc = random_finite_mdp(4, n_states=8).to_json()
    doc["transitions"][-1]["p"] = float("nan")  # the self-loop of the win sink
    (tmp_path / "nan.json").write_text(json.dumps(doc))
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
