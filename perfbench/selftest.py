"""Self-tests of the benchmark (about a minute):

    python3 perfbench/selftest.py

They check that the traced run restores every name it rebinds, that inputs
depend on the seed only and keep their strata, that spans nest, and that
every metric the benchmark declares is reported, and is non-zero on the
workloads its layer should be busy on.
"""
from __future__ import annotations

import collections
import json
import shutil
import sys
import unittest

import run

run.import_package()

import inputs  # noqa: E402
import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import PassContext  # noqa: E402

WORK = run.BUILD / "selftest"

# Metrics that must be non-zero on a traced pass of each workload.
BUSY = {
    "finite_solvers": [
        "solvers.optimal_boundary_value.calls",
        "solvers.evaluate_md.calls",
        "solvers.min_expected_cost_md.calls",
        "solvers.linsolve.calls",
        "solvers.md_policy_oracle.self_s",
        "synthesis.plastering_uniformize.rounds",
        "synthesis.optimal_md_where_exists.self_s",
        "transforms.conditioned.self_s",
        "transforms.plus_variant.self_s",
        "verify.run_suite.self_s",
    ],
    "countable_bounds": [
        "core.truncate.calls",
        "core.truncate.states",
        "core.bubble.calls",
        "core.oracle.calls",
        "solvers.linsolve.calls",
        "solvers.linsolve.gflops_per_s",
        "solvers.interval_value.calls",
        "solvers.interval_value.width_mean",
        "solvers.return_probability.calls",
        "synthesis.safety_md_universally_transient.self_s",
        "synthesis.safety.interval_calls_per_choice",
        "verify.certify_universal_transience.self_s",
    ],
    "mc_synthesis": [
        "core.oracle.calls",
        "simulate.simulate.calls",
        "simulate.simulate.steps_per_s",
        "simulate.scalar.runs",
        "simulate.scalar.steps_per_s",
        "synthesis.transience_md.self_s",
        "synthesis.buchi_transience_one_bit.self_s",
        "transforms.reduce_to_finitely_branching.self_s",
    ],
    "chain_sweep": [
        "simulate.vector.runs",
        "simulate.vector.steps_per_s",
        "simulate.vector.bytes",
        "cli.run_scenario.calls",
    ],
}


def package_bindings() -> dict:
    """Every attribute of every package module, plus numpy.linalg.solve."""
    bound = {("numpy.linalg", "solve"): numpy.linalg.solve}
    for name, module in list(sys.modules.items()):
        if name == "transientmdp" or name.startswith("transientmdp."):
            for attr, value in vars(module).items():
                bound[(name, attr)] = value
    return bound


def traced_pass(name: str, seed: int = 3, keep=None):
    """Prepare a workload and run one traced pass over its tasks (or the
    ones ``keep`` selects); returns the recorder, metrics and failures."""
    prepared = workloads.WORKLOADS[name](seed, WORK / name / "setup")
    tasks = [t for t in prepared.tasks if keep is None or keep(t.ident)]
    rec = spans.Recorder()
    ctx = PassContext(WORK / name / "traced")
    with rec.installed(prepared.oracle_mdps):
        rec.task = spans.REFERENCE_TASK
        reference = prepared.reference()
        wall, _ = run.run_pass(tasks, ctx, rec)
    failures = run.check_pass(prepared, reference, ctx, ctx)
    return rec, spans.layer_metrics(rec, wall, wall), failures


def _finite_sample(ident: str) -> bool:
    # One small and one mid-size instance, and the suites; the infinite-cost
    # instance alone takes longer than the rest of the self-tests.
    return ident in ("n8-fin-0", "n40-fin-0") or ident.startswith("suite-")


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        cls.results = {}
        for name in workloads.WORKLOADS:
            keep = _finite_sample if name == "finite_solvers" else None
            before = package_bindings()
            cls.results[name] = traced_pass(name, keep=keep)
            cls.results[name] += (before, package_bindings())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_every_rebinding_is_restored(self):
        for name, (rec, _, _, before, after) in self.results.items():
            self.assertTrue(rec.spans, name)
            self.assertEqual(before.keys(), after.keys(), name)
            moved = [k for k in before if before[k] is not after[k]]
            self.assertEqual(moved, [], name)
        prepared = workloads.WORKLOADS["countable_bounds"](1, WORK / "mdps")
        for mdp in prepared.oracle_mdps:
            self.assertNotIn("kind_of", vars(mdp))
            self.assertNotIn("successors_of", vars(mdp))

    def test_traced_pass_is_correct(self):
        for name, (_, _, failures, _, _) in self.results.items():
            self.assertEqual(failures, {}, name)

    def test_spans_nest(self):
        for name, (rec, _, _, _, _) in self.results.items():
            for s, own in zip(rec.spans, rec.self_times()):
                self.assertGreaterEqual(own, -1e-9, (name, s.name))
                self.assertLessEqual(s.start, s.end, (name, s.name))
                if s.parent is not None:
                    parent = rec.spans[s.parent]
                    self.assertLessEqual(parent.start, s.start, (name, s.name))
                    self.assertLessEqual(s.end, parent.end, (name, s.name))
                    self.assertEqual(parent.task, s.task, (name, s.name))

    def test_every_metric_is_reported(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
            spans.PER_LAYER,
        )
        self.assertEqual(
            [w["name"] for w in declared["workloads"]], list(workloads.WORKLOADS)
        )
        for name, (_, metrics, _, _, _) in self.results.items():
            self.assertEqual(list(metrics), [m for m, _, _ in spans.PER_LAYER], name)
            self.assertGreater(metrics["trace.coverage_frac"], 0.9, name)
            for metric in BUSY[name]:
                self.assertGreater(metrics[metric], 0.0, (name, metric))


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = [i.to_json() for i in inputs.finite_corpus(5)]
        b = [i.to_json() for i in inputs.finite_corpus(5)]
        self.assertEqual(json.dumps(a), json.dumps(b))
        self.assertEqual(inputs.gambler_start(5), inputs.gambler_start(5))
        self.assertEqual(inputs.synthesis_inputs(5), inputs.synthesis_inputs(5))
        first = inputs.chain_scenarios(5, WORK / "scen-a")
        second = inputs.chain_scenarios(5, WORK / "scen-b")
        for key in first:
            self.assertEqual(first[key].read_bytes(), second[key].read_bytes())
        shutil.rmtree(WORK, ignore_errors=True)

    def test_other_seed_same_strata(self):
        a, b = inputs.finite_corpus(5), inputs.finite_corpus(6)

        def strata(corpus):
            return collections.Counter((i.n_states, i.infinite_cost) for i in corpus)

        want = {k: v for k, v in inputs.STRATA.items() if v}
        self.assertEqual(strata(a), want)
        self.assertEqual(strata(b), want)
        self.assertNotEqual(
            json.dumps([i.to_json()["mdp"] for i in a]),
            json.dumps([i.to_json()["mdp"] for i in b]),
        )
        for inst in a + b:
            shape = inputs.infinite_cost_shape(inst.fm, inst.cost)
            self.assertEqual(shape, inputs.INFINITE_SHAPE if inst.infinite_cost else None)
        self.assertNotEqual(
            inputs.synthesis_inputs(5), inputs.synthesis_inputs(6)
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
