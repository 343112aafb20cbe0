"""Fast self-test of the benchmark on tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench -q

It pins the exact counters the benchmark reports at a fixed seed. A change
that moves one of them changes the work the library does; re-pin it on
purpose and say so in CHANGES.md.
"""

import copy
import json

import pytest

import run as bench
from spans import Tracer
from speed import SpeedMeter
from workloads import WORKLOADS, Workload, nll_loss, replay_steps, run_workflow

from sbikit.estimators import EstimatorConfig, build_estimator
from sbikit.simulators import DDMSimulator, LinearGaussianSimulator, generate_dataset

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, **sizes) -> Workload:
    w = copy.copy(WORKLOADS[name])
    defaults = {"n_sims": 400, "epochs": 2, "n_obs": 4, "n_draws": 20}
    for key, value in {**defaults, **sizes}.items():
        setattr(w, key, value)
    return w


def traced_run(w: Workload, seed: int, tmp_path) -> bench.Run:
    run = bench.Run(w, seed, 0.0, True, str(tmp_path), SpeedMeter())
    run.execute(w.setup(seed))
    assert run.failures == []
    return run


def nodes_after_loss(kind: str, data) -> int:
    theta_is_target = kind != "mixed"
    target, context = (data.theta, data.x) if theta_is_target else (data.x, data.theta)
    est = build_estimator(EstimatorConfig(kind=kind), target.shape[1], context.shape[1], seed=0)
    est.initialize_standardization(target, context)
    loss = nll_loss(est, theta_is_target)
    return replay_steps(est.store, loss, data.theta, data.x, steps=1)["nodes"]


@pytest.mark.parametrize("kind, pinned", [("mdn", 152), ("flow", 119), ("mixed", 165)])
def test_tape_nodes_per_step_at_200_rows(kind, pinned):
    sim = DDMSimulator() if kind == "mixed" else LinearGaussianSimulator(dim=2, noise_std=0.1)
    data = generate_dataset(sim.default_prior(), sim, 200, seed=0)
    assert nodes_after_loss(kind, data) == pinned


def test_simulator_calls_are_rows_plus_discards_on_the_pool(tmp_path):
    w = tiny("ddm_bank")
    w.workers = lambda: 2
    run = traced_run(w, 0, tmp_path)
    layer = run.per_layer()
    rep = run.reps[0]
    assert layer["simulators.calls"] == rep.rows + rep.discards == 400
    assert layer["simulators.discards"] == 0
    assert layer["samplers.target_calls"] == 0


@pytest.mark.parametrize("name, pinned_evals, pinned_calls", [
    ("nre_ball_throw", 140124, 5874),
    ("nle_ddm", 23080, 8768),
])
def test_sampler_counts_match_chain_diagnostics(name, pinned_evals, pinned_calls, tmp_path):
    w = tiny(name, n_obs=2)
    run = traced_run(w, 0, tmp_path)   # fails on any traced/diagnostic mismatch
    layer = run.per_layer()
    assert layer["samplers.target_evals"] == sum(d.n_target_evals for d in run.diagnostics)
    assert (layer["samplers.target_evals"], layer["samplers.target_calls"]) == (
        pinned_evals, pinned_calls)


def test_workflow_digests_repeat_at_a_seed(tmp_path):
    w = tiny("nle_ddm")

    def digests(seed):
        rep = run_workflow(w, w.setup(seed), seed, str(tmp_path), Tracer(False), SpeedMeter())
        assert rep.failures == []
        return rep.digests

    first, again, other = digests(3), digests(3), digests(4)
    assert set(first) == {"dataset", "train_report", "posterior_draws"}
    assert first == again
    assert all(first[key] != other[key] for key in first)


def test_every_declared_metric_is_reported(tmp_path):
    w = tiny("ddm_bank")
    run = traced_run(w, 0, tmp_path)
    e2e, detail = run.end_to_end([], [])
    assert {m["name"] for m in SPEC["end_to_end"]} == set(e2e)
    assert {m["name"] for m in SPEC["per_layer"]} == set(run.per_layer())
    assert detail["queries"] >= bench.MIN_QUERIES
    assert detail["queries"] % w.n_obs == 0     # whole cycles over the observations
