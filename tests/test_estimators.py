import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special, stats

from sbikit.estimators import (
    AffineCouplingFlow,
    ClassifierNet,
    ConditionalMDN,
    EnsembleEstimator,
    EstimatorConfig,
    EstimatorError,
    MixedEstimator,
    NllTask,
    Standardizer,
    build_estimator,
)
from sbikit.ndiff import EVALUATOR, Tape, Tensor, sigmoid
from sbikit.simulators import DDMSimulator, LinearGaussianSimulator, generate_dataset

from .oracles import mixture_log_density


def loss_gradient_fd(model, theta, x, h=1e-5):
    """Central finite differences of the training loss w.r.t. every parameter."""
    out = {}
    for name in model.store.names():
        p = model.store[name].data.copy()
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            losses = []
            for value in (orig + h, orig - h):
                flat[i] = value
                model.store.load({name: p})
                losses.append(float(model.loss(Tape(), theta, x)))
            flat[i] = orig
            model.store.load({name: p})
            gflat[i] = (losses[0] - losses[1]) / (2.0 * h)
        out[name] = g
    return out


def randomize_parameters(store, rng):
    """Draw every parameter of ``store`` from N(0, 0.3^2), in name order."""
    store.load({n: rng.normal(scale=0.3, size=store[n].data.shape) for n in store.names()})


def assert_gradients_match_fd(model, theta, x, names=None):
    """Taped loss gradients agree with ``loss_gradient_fd`` for every named
    parameter (all by default): relative error below 1e-4, with the finite
    difference floored at 1e-3 in the denominator."""
    tape = Tape()
    grads = tape.backward(model.loss(tape, theta, x))
    fd = loss_gradient_fd(model, theta, x)
    for name in names or model.store.names():
        numeric = fd[name]
        denom = np.maximum(np.abs(numeric), 1e-3)
        assert np.max(np.abs(grads[model.store[name]] - numeric) / denom) < 1e-4, name


def small_mdn(target_dim=2, context_dim=2, k=3, seed=0, randomize=True):
    cfg = EstimatorConfig(kind="mdn", n_components=k, hidden=(8,))
    m = ConditionalMDN(target_dim, context_dim, cfg, seed=seed)
    if randomize:
        randomize_parameters(m.store, np.random.default_rng(seed + 1))
    return m


def small_flow(target_dim=2, context_dim=2, layers=3, seed=0, randomize=True):
    cfg = EstimatorConfig(kind="flow", hidden=(8,), n_layers=layers)
    f = AffineCouplingFlow(target_dim, context_dim, cfg, seed=seed)
    if randomize:
        randomize_parameters(f.store, np.random.default_rng(seed + 1))
    return f


def components(head, feats):
    """``head.params`` on the evaluator, means and log-stds shaped (n, K, D)."""
    log_w, mu, log_std = head.params(EVALUATOR, feats)
    shape = (log_w.shape[0], head.n_components, head.target_dim)
    return log_w, mu.reshape(shape), log_std.reshape(shape)


def test_mdn_fixed_standard_gaussian_head():
    m = ConditionalMDN(1, 1, EstimatorConfig(kind="mdn", n_components=1, hidden=(4,)), seed=0)
    # zero the head layers so the single component is N(0, 1)
    zeroed = {n: np.zeros_like(m.store[n].data) for n in m.store.names()
              if n.startswith(("mdn.weights", "mdn.means", "mdn.logstds"))}
    m.store.load(zeroed)
    pts = np.linspace(-3, 3, 7)[:, None]
    ctx = np.zeros((7, 1))
    np.testing.assert_allclose(m.log_prob(pts, ctx), stats.norm.logpdf(pts[:, 0]), atol=1e-12)


def test_mdn_log_prob_matches_brute_force_mixture_formula():
    m = small_mdn(target_dim=2, context_dim=3, k=4, seed=5)
    rng = np.random.default_rng(2)
    theta = rng.normal(size=(20, 2))
    x = rng.normal(size=(20, 3))
    m.initialize_standardization(theta, x)
    log_w, mu, log_std = components(m.head, m.context_net.forward(EVALUATOR, x))
    y_z, log_det = m.target_standardizer.transform(theta), m.target_standardizer.log_det
    expected = mixture_log_density(log_w, mu, log_std, y_z) + log_det
    np.testing.assert_allclose(m.log_prob(theta, x), expected, atol=1e-12)
    # the prepared i.i.d. scorer: all 20 rows as trials, at each of 4 contexts
    iid = [mixture_log_density(log_w[c:c + 1], mu[c:c + 1], log_std[c:c + 1], y_z).sum()
           + 20 * log_det for c in range(4)]
    np.testing.assert_allclose(m.iid_log_lik(m.iid_trials(theta), x[:4]), iid, rtol=1e-12)


def test_mdn_tape_and_numpy_paths_agree():
    m = small_mdn(seed=3)
    rng = np.random.default_rng(4)
    theta, x = rng.normal(size=(15, 2)), rng.normal(size=(15, 2))
    m.initialize_standardization(theta, x)
    taped = m.log_prob_tape(Tape(), theta, x)[:, 0]
    np.testing.assert_allclose(taped, m.log_prob(theta, x), atol=1e-12)


def test_mdn_degenerate_weights_sample_single_component():
    m = ConditionalMDN(1, 1, EstimatorConfig(kind="mdn", n_components=2, hidden=(4,)), seed=0)
    values = {n: np.zeros_like(m.store[n].data) for n in m.store.names()}
    values["mdn.weights.b0"] = np.array([50.0, -50.0])   # weights (1, 0)
    values["mdn.means.b0"] = np.array([5.0, -5.0])
    m.store.load(values)
    draws = m.sample(np.zeros(1), 500, np.random.default_rng(0))
    assert np.all(draws > 0), "all samples must come from the weight-1 component"


def test_mdn_gradient_matches_finite_differences():
    m = small_mdn(target_dim=1, context_dim=1, k=2, seed=7)
    rng = np.random.default_rng(8)
    theta, x = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    m.initialize_standardization(theta, x)
    assert_gradients_match_fd(NllTask(m, theta_is_target=True), theta, x)


def test_flow_zero_initialized_is_identity():
    f = AffineCouplingFlow(2, 2, EstimatorConfig(kind="flow", hidden=(8,), n_layers=4), seed=0)
    rng = np.random.default_rng(1)
    theta, x = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
    base = np.sum(stats.norm.logpdf(theta), axis=1)
    np.testing.assert_allclose(f.log_prob(theta, x), base, atol=1e-12)
    draws = f.sample(np.zeros(2), 10_000, np.random.default_rng(2))
    assert np.abs(draws.mean(axis=0)).max() < 0.05
    assert np.abs(draws.var(axis=0) - 1.0).max() < 0.06


@pytest.mark.parametrize("dim,ctx", [(1, 1), (2, 2), (3, 1), (5, 2)])
def test_flow_invertibility(dim, ctx):
    f = small_flow(target_dim=dim, context_dim=ctx, seed=dim * 7 + ctx)
    rng = np.random.default_rng(dim)
    theta = rng.normal(size=(1000, dim), scale=2.0)
    x = rng.normal(size=(1000, ctx))
    feats = f.context_net.forward(EVALUATOR, x)
    u, _ = f._inverse(EVALUATOR, theta, feats)
    back = f._to_target(u, feats)
    assert np.max(np.abs(back - theta)) < 1e-6


def test_flow_logdet_matches_numerical_jacobian():
    f = small_flow(target_dim=2, context_dim=1, seed=11)
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(50):
        theta = rng.normal(size=(1, 2))
        x = rng.normal(size=(1, 1))
        feats = f.context_net.forward(EVALUATOR, x)
        logdet = sum(f._inverse(EVALUATOR, theta, feats)[1])[:, 0]
        jac = np.zeros((2, 2))
        for j in range(2):
            up, dn = theta.copy(), theta.copy()
            up[0, j] += h
            dn[0, j] -= h
            jac[:, j] = (f._inverse(EVALUATOR, up, feats)[0]
                         - f._inverse(EVALUATOR, dn, feats)[0])[0] / (2 * h)
        expected = math.log(abs(np.linalg.det(jac)))
        assert abs(logdet[0] - expected) / max(abs(expected), 1e-3) < 1e-4


def test_flow_tape_and_numpy_paths_agree():
    for dim, ctx in [(1, 1), (2, 2), (4, 1)]:
        f = small_flow(target_dim=dim, context_dim=ctx, seed=dim)
        rng = np.random.default_rng(dim + 20)
        theta = rng.normal(size=(9, dim))
        x = rng.normal(size=(9, ctx))
        f.initialize_standardization(theta, x)
        taped = f.log_prob_tape(Tape(), theta, x)[:, 0]
        np.testing.assert_allclose(taped, f.log_prob(theta, x), atol=1e-12)


def test_flow_gradient_matches_finite_differences():
    f = small_flow(target_dim=2, context_dim=1, layers=2, seed=13)
    rng = np.random.default_rng(14)
    theta, x = rng.normal(size=(5, 2)), rng.normal(size=(5, 1))
    f.initialize_standardization(theta, x)
    assert_gradients_match_fd(NllTask(f, theta_is_target=True), theta, x)


@pytest.mark.parametrize("builder", [
    pytest.param(lambda: small_mdn(target_dim=1, context_dim=1, k=3, seed=21), id="mdn"),
    pytest.param(lambda: small_flow(target_dim=1, context_dim=1, seed=22), id="flow"),
])
def test_1d_density_normalizes_by_quadrature_at_a_fixed_context(builder):
    model = builder()
    grid = np.linspace(-10, 10, 8001)[:, None]
    for context in (-1.3, 0.0, 0.8):
        dens = np.exp(model.log_prob(grid, np.full_like(grid, context)))
        mass = np.trapezoid(dens, grid[:, 0])
        assert 0.999 <= mass <= 1.001


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed"])
def test_build_estimator_rejects_a_context_free_estimator(kind):
    with pytest.raises(EstimatorError, match="context_dim must be at least 1, got 0"):
        build_estimator(EstimatorConfig(kind=kind), 2, 0)


@pytest.mark.parametrize("kind,field,value", [
    ("mdn", "n_components", 0), ("mdn", "n_components", 2.5), ("mixed", "n_components", True),
    ("flow", "n_layers", 0), ("mixed", "hidden", (0,)), ("flow", "hidden", (8, 2.5)),
    ("mdn", "hidden", ()), ("mixed", "hidden", ()), ("mdn", "embedding_dim", 0),
    ("flow", "embedding_hidden", (8, -1)), ("mdn", "embedding_hidden", ("8",))])
def test_estimator_config_rejects_a_layer_or_count_that_is_not_a_positive_integer(
        kind, field, value):
    """Named in an EstimatorError, before any network is built; the flow's
    conditioner alone may have no hidden layer."""
    with pytest.raises(EstimatorError, match=rf"{field}.*{re.escape(repr(value))}"):
        build_estimator(EstimatorConfig(**{"kind": kind, "embedding_dim": 4, field: value}), 2, 2)
    assert build_estimator(EstimatorConfig(kind="flow", hidden=()), 2, 2).target_dim == 2


def test_conditional_2d_density_normalizes_by_grid_quadrature():
    m = small_mdn(target_dim=2, context_dim=1, k=3, seed=23)
    gx = np.linspace(-10, 10, 401)
    xx, yy = np.meshgrid(gx, gx, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    for seed in range(3):
        ctx = np.tile(np.random.default_rng(seed).normal(size=(1, 1)), (pts.shape[0], 1))
        dens = np.exp(m.log_prob(pts, ctx)).reshape(401, 401)
        mass = np.trapezoid(np.trapezoid(dens, gx, axis=1), gx)
        assert 0.99 <= mass <= 1.01


def test_sample_log_prob_self_consistency_monte_carlo():
    # importance-weighted normalization: E_p[q/p] over a wide proposal = 1
    m = small_mdn(target_dim=2, context_dim=1, k=3, seed=31)
    rng = np.random.default_rng(32)
    proposal_std = 4.0
    z = rng.normal(scale=proposal_std, size=(40_000, 2))
    ctx = np.tile([[0.7]], (z.shape[0], 1))
    logq = m.log_prob(z, ctx)
    logp = np.sum(stats.norm.logpdf(z, scale=proposal_std), axis=1)
    est = np.exp(logq - logp).mean()
    assert abs(est - 1.0) < 0.05


def test_standardization_jacobian_keeps_density_normalized():
    m = small_mdn(target_dim=1, context_dim=1, k=2, seed=41)
    rng = np.random.default_rng(42)
    theta = 100.0 + 25.0 * rng.normal(size=(500, 1))
    x = 3.0 * rng.normal(size=(500, 1))
    m.initialize_standardization(theta, x)
    grid = np.linspace(-400, 600, 20_001)[:, None]
    ctx = np.tile(x[:1], (grid.shape[0], 1))
    mass = np.trapezoid(np.exp(m.log_prob(grid, ctx))[:], grid[:, 0])
    assert abs(mass - 1.0) < 1e-3


def test_embedding_trains_end_to_end_gradient_check():
    cfg = EstimatorConfig(kind="mdn", n_components=2, hidden=(6,),
                          embedding_dim=3, embedding_hidden=(5,))
    m = ConditionalMDN(1, 4, cfg, seed=51)
    rng = np.random.default_rng(52)
    randomize_parameters(m.store, rng)
    theta, x = rng.normal(size=(6, 1)), rng.normal(size=(6, 4))
    m.initialize_standardization(theta, x)
    embed_names = [n for n in m.store.names() if n.startswith("ctx.embed")]
    assert embed_names, "embedding parameters should be registered"
    assert_gradients_match_fd(NllTask(m, theta_is_target=True), theta, x, embed_names)


class TestMixedEstimator:
    def make(self, seed=61):
        cfg = EstimatorConfig(kind="mixed", n_components=2, hidden=(8,))
        m = MixedEstimator(2, 3, cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        randomize_parameters(m.store, rng)
        theta = rng.normal(size=(50, 3))
        targets = np.column_stack([rng.integers(0, 2, size=50),
                                   rng.uniform(0.2, 2.0, size=50)])
        m.initialize_standardization(targets, theta)
        return m, theta, targets

    @staticmethod
    def choice_probability(m, context):
        """P(choice = 1 | context): the sigmoid of the choice net's logit."""
        feats = m.context_net.forward(EVALUATOR, np.atleast_2d(context))
        return sigmoid(m.choice_net.forward(EVALUATOR, feats))[:, 0]

    def test_joint_density_composes_choice_rt_and_jacobian(self):
        m, theta, targets = self.make()
        lp = m.log_prob(targets, theta)
        p1 = self.choice_probability(m, theta)
        choice = targets[:, 0]
        logp_choice = np.where(choice == 1, np.log(p1), np.log1p(-p1))
        ctx = m.context_net.forward(EVALUATOR, theta)
        feats = np.concatenate([ctx, choice[:, None]], axis=1)
        log_w, mu, log_std = components(m.rt_head, feats)
        y = np.log(targets[:, 1:2])
        y_z = m.target_standardizer.transform(y)
        logp_rt = (mixture_log_density(log_w, mu, log_std, y_z)
                   + m.target_standardizer.log_det - np.log(targets[:, 1]))
        np.testing.assert_allclose(lp, logp_choice + logp_rt, atol=1e-10)

    def test_embedding_parameters_train_with_the_heads(self):
        cfg = EstimatorConfig(kind="mixed", n_components=2, hidden=(6,),
                              embedding_dim=2, embedding_hidden=(4,))
        m = MixedEstimator(2, 3, cfg, seed=63)
        rng = np.random.default_rng(64)
        randomize_parameters(m.store, rng)
        theta = rng.normal(size=(6, 3))
        targets = np.column_stack([rng.integers(0, 2, size=6), rng.uniform(0.2, 2.0, size=6)])
        m.initialize_standardization(targets, theta)
        embed_names = [n for n in m.store.names() if n.startswith("ctx.embed")]
        assert embed_names, "embedding parameters should be registered"
        # both heads read the 2-d embedding, not the 3-d context
        assert m.store["choice.w0"].data.shape[0] == 2
        assert m.store["rt.trunk.w0"].data.shape[0] == 3
        assert_gradients_match_fd(NllTask(m, theta_is_target=False), theta, targets, embed_names)

    def test_choice_probabilities_sum_to_one(self):
        m, theta, _ = self.make()
        p1 = self.choice_probability(m, theta)
        assert np.all((p1 > 0) & (p1 < 1))

    def test_nonpositive_rt_gives_neg_inf(self):
        m, theta, targets = self.make()
        targets = targets.copy()
        targets[0, 1] = 0.0
        targets[1, 1] = -0.3
        lp = m.log_prob(targets, theta)
        assert lp[0] == -np.inf and lp[1] == -np.inf
        assert np.isfinite(lp[2:]).all()

    def test_rt_density_integrates_to_choice_probability(self):
        m, theta, _ = self.make()
        ctx = theta[:1]
        rts = np.linspace(1e-4, 60.0, 40_001)
        for choice in (0.0, 1.0):
            targets = np.column_stack([np.full_like(rts, choice), rts])
            dens = np.exp(m.log_prob(targets, np.tile(ctx, (rts.size, 1))))
            mass = np.trapezoid(dens, rts)
            p1 = self.choice_probability(m, ctx)[0]
            expected = p1 if choice == 1.0 else 1.0 - p1
            assert abs(mass - expected) < 2e-3

    def test_sampling_matches_choice_probability(self):
        m, theta, _ = self.make()
        ctx = theta[0]
        draws = m.sample(ctx, 20_000, np.random.default_rng(0))
        p1 = self.choice_probability(m, theta[:1])[0]
        assert abs(draws[:, 0].mean() - p1) < 0.02
        assert np.all(draws[:, 1] > 0)

    def test_tape_and_numpy_paths_agree(self):
        m, theta, targets = self.make()
        taped = m.log_prob_tape(Tape(), targets, theta)[:, 0]
        np.testing.assert_allclose(taped, m.log_prob(targets, theta), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        m, theta, targets = self.make(seed=71)
        assert_gradients_match_fd(NllTask(m, theta_is_target=False), theta[:5], targets[:5])


class TestClassifier:
    def test_zeroed_net_gives_logit_zero(self):
        c = ClassifierNet(2, 2, hidden=(8,), seed=0)
        c.store.load({n: np.zeros_like(c.store[n].data) for n in c.store.names()})
        rng = np.random.default_rng(1)
        logit = c.logit(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
        np.testing.assert_array_equal(logit, np.zeros(10))

    def test_dimension_mismatch_rejected(self):
        c = ClassifierNet(2, 1, hidden=(4,))
        with pytest.raises(EstimatorError):
            c.logit(np.zeros((3, 1)), np.zeros((3, 1)))

    def test_finite_logits_and_probability_range(self):
        c = ClassifierNet(2, 1, hidden=(8,), seed=2)
        rng = np.random.default_rng(3)
        theta, x = rng.normal(size=(100, 2)) * 50, rng.normal(size=(100, 1)) * 50
        c.initialize_standardization(theta, x)
        logit = c.logit(theta, x)
        p = sigmoid(logit)
        assert np.isfinite(logit).all()
        assert np.all((p > 0) & (p < 1))

    def test_bce_gradient_matches_finite_differences(self):
        c = ClassifierNet(1, 1, hidden=(6,), seed=4)
        rng = np.random.default_rng(5)
        theta, x = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
        c.initialize_standardization(theta, x)
        assert_gradients_match_fd(c, theta, x)


@pytest.mark.parametrize("kind, pinned", [("mdn", 152), ("flow", 119), ("mixed", 165)])
def test_tape_nodes_per_training_step_at_200_rows(kind, pinned):
    sim = DDMSimulator() if kind == "mixed" else LinearGaussianSimulator(dim=2, noise_std=0.1)
    data = generate_dataset(sim.default_prior(), sim, 200, seed=0)
    theta_is_target = kind != "mixed"
    target, context = (data.theta, data.x) if theta_is_target else (data.x, data.theta)
    est = build_estimator(EstimatorConfig(kind=kind), target.shape[1], context.shape[1], seed=0)
    est.initialize_standardization(target, context)
    tape = Tape()
    NllTask(est, theta_is_target).loss(tape, data.theta, data.x)
    assert len(tape) == pinned


def trained_like(kind, x, theta, seed, n_components=3):
    """A small estimator of ``kind`` standardized on the (theta, x) rows, x
    the target for the mixed estimator and theta for the others."""
    target, context = (x, theta) if kind == "mixed" else (theta, x)
    est = build_estimator(EstimatorConfig(kind=kind, n_components=n_components, hidden=(8,)),
                          target.shape[1], context.shape[1], seed)
    est.initialize_standardization(target, context)
    return est


def one_row_head_input(est, target, context):
    """The mixture head of ``est``, the features it reads at the first
    context row alone, and the standardized targets it scores."""
    feats = est.context_net.forward(EVALUATOR, context[:1])
    if isinstance(est, MixedEstimator):
        feats = np.concatenate([feats, [[1.0]]], axis=1)
        return est.rt_head, feats, est.target_standardizer.transform(np.log(target[:, 1:2]))
    return est.head, feats, est.target_standardizer.transform(target)


# (n_components, theta columns) per estimator: the default 10 components,
# and 17 over a 9-dim target
SHAPES = {"mdn": [(3, 2), (10, 2), (17, 9)], "flow": [(3, 2)],
          "mixed": [(3, 2), (10, 2)], "classifier": [(None, 2)]}


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed", "classifier"])
def test_evaluator_loss_and_log_prob_equal_the_taped_ones_exactly(kind):
    """Bit for bit for the flow and the classifier. The MDN and the mixed
    estimator agree to rounding (rtol 1e-12): their evaluator runs the
    numpy mixture kernel, their Tape the loop of primitives. From 256 rows,
    a two-column target is standardized in another layout."""
    exact = kind in ("flow", "classifier")
    check = np.testing.assert_array_equal if exact else functools.partial(
        np.testing.assert_allclose, rtol=1e-12)
    rng = np.random.default_rng(81)
    for (k, dim), n in itertools.product(SHAPES[kind], (30, 300)):
        theta = rng.normal(size=(n, dim))
        if kind == "mixed":
            x = np.column_stack([rng.integers(0, 2, size=n), rng.uniform(0.2, 2.0, size=n)])
        else:
            x = rng.normal(size=(n, 2))
        if kind == "classifier":
            model = ClassifierNet(dim, 2, hidden=(8,), seed=82)
            model.initialize_standardization(theta, x)
        else:
            target, context = (x, theta) if kind == "mixed" else (theta, x)
            est = trained_like(kind, x, theta, 82, k)
            model = NllTask(est, theta_is_target=kind != "mixed")
            taped = est.log_prob_tape(Tape(), target, context)
            check(est.log_prob(target, context), taped[:, 0])
            # data wrapped in Tensors, as the benchmark's batch loss passes it
            np.testing.assert_array_equal(
                est.log_prob_tape(Tape(), Tensor(target), Tensor(context)), taped)
            if kind != "flow":
                # one context row: the evaluator broadcasts the head's one
                # mixture, the Tape scores that row repeated per target
                head, feats, y_z = one_row_head_input(est, target, context)
                params = head.params(EVALUATOR, feats)
                repeated = [np.repeat(p, y_z.shape[0], axis=0) for p in params]
                check(head.log_prob(EVALUATOR, feats, y_z),
                      Tape().mixture_log_prob(*repeated, y_z))
        check(float(model.loss(EVALUATOR, theta, x)), float(model.loss(Tape(), theta, x)))


def test_mdn_log_prob_at_an_infinite_target_is_neg_inf():
    m = small_mdn(seed=9)
    target = np.array([[np.inf, 0.0], [0.0, -np.inf], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = m.log_prob(target, np.zeros(2))
    assert lp[0] == lp[1] == -np.inf and np.isfinite(lp[2])


def old_mixture_sample(head, feats, which, rng):
    """Reference draws for ``_MixtureHead.sample``: each draw's cdf row
    gathered, compared with u, and the entries below u counted."""
    log_w, mu, log_std = components(head, feats)
    n = which.shape[0]
    u = rng.uniform(size=(n, 1))
    choice = (np.exp(log_w).cumsum(axis=1)[which] < u).sum(axis=1)
    choice = np.minimum(choice, head.n_components - 1)
    eps = rng.standard_normal((n, head.target_dim))
    return mu[which, choice] + np.exp(log_std[which, choice]) * eps


def test_mixture_draws_pick_the_components_the_cdf_gather_picked():
    k, d = 6, 2
    rng = np.random.default_rng(92)
    logits = rng.normal(size=(6, k))
    log_w = logits - special.logsumexp(logits, axis=1, keepdims=True)
    log_w[1] = [0.0, *[-np.inf] * (k - 1)]                  # one component
    log_w[2] = [-np.inf, np.log(0.5), -np.inf, np.log(0.5), -np.inf, -np.inf]
    log_w[3] = log_w[0] - 1e-9                              # weights sum below 1
    log_w[4] = np.nan
    log_w[5, 2:] = -800.0                                   # weights that underflow to 0
    mu = rng.normal(size=(6, k, d))
    log_std = rng.normal(scale=0.3, size=(6, k, d))
    head = ConditionalMDN(d, 1, EstimatorConfig(kind="mdn", n_components=k, hidden=(4,))).head
    head.params = lambda ops, feats: (log_w, mu.reshape(6, -1), log_std.reshape(6, -1))
    which = rng.integers(0, 6, size=5000)
    new = head.sample(None, which, np.random.default_rng(93))
    np.testing.assert_array_equal(new, old_mixture_sample(head, None, which,
                                                          np.random.default_rng(93)))
    one_row = np.zeros(5000, dtype=np.intp)
    head.params = lambda ops, feats: (log_w[3:4], mu[3].reshape(1, -1), log_std[3].reshape(1, -1))
    np.testing.assert_array_equal(head.sample(None, one_row, np.random.default_rng(94)),
                                  old_mixture_sample(head, None, one_row,
                                                     np.random.default_rng(94)))


@pytest.mark.parametrize("kind", ["mdn", "mixed"])
def test_estimator_draws_equal_the_two_array_gather(kind):
    """``sample`` of the MDN and of the mixed estimator (at both choice
    levels) equals draws gathered with ``mu[which, choice]`` and unscaled
    with ``z * std + mean``."""
    rng = np.random.default_rng(95)
    theta = rng.normal(size=(30, 2))
    x = np.column_stack([rng.integers(0, 2, size=30), rng.uniform(0.2, 2.0, size=30)])
    est = trained_like(kind, x, theta, 96, n_components=5)
    randomize_parameters(est.store, rng)
    context = theta[:1] if kind == "mixed" else x[:1]
    n = 3000
    got = est.sample(context, n, np.random.default_rng(97))
    ref_rng = np.random.default_rng(97)
    feats = est.context_net.forward(EVALUATOR, context)
    std, mean = est.target_standardizer.std, est.target_standardizer.mean
    if kind == "mdn":
        ref = old_mixture_sample(est.head, feats, np.zeros(n, dtype=np.intp), ref_rng) * std + mean
    else:
        p1 = sigmoid(est.choice_net.forward(EVALUATOR, feats))[:, 0]
        choice = (ref_rng.uniform(size=n) < p1).astype(np.intp)
        assert 0 < choice.sum() < n
        levels = np.concatenate([np.repeat(feats, 2, axis=0), [[0.0], [1.0]]], axis=1)
        y_z = old_mixture_sample(est.rt_head, levels, choice, ref_rng)
        ref = np.column_stack([choice, np.exp(y_z * std + mean)])
    np.testing.assert_array_equal(got, ref)


def assert_same_bits(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype == np.float64
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(ref).view(np.uint64))


@pytest.mark.parametrize("width", [3, 2, 1])
def test_standardizer_inverse_is_the_broadcast_expression_in_c_order(width):
    """Both directions, at any row count and memory layout, give the bits of
    the broadcast expression z * std + mean and of the Tape's z-score; two
    columns from 256 rows on run in another layout."""
    data = np.column_stack([np.linspace(-2.0, 5.0, 50), np.full(50, 3.0), np.arange(50.0)])
    st = Standardizer.fit(data[:, :width])
    assert width == 1 or st.std[1] == 1.0                   # the constant column
    rng = np.random.default_rng(98 + width)
    wide = rng.normal(size=(1001, 2 * width + 1))
    wide[:2] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 7.0][:2 * width + 1]
    cases = [rng.normal(size=(rows, width)) for rows in (4000, 1001, 257, 256, 3, 1)]
    cases += [rng.normal(size=width)]
    for z in cases:
        k = min(4, z.size)
        z.flat[:k] = [np.nan, np.inf, -np.inf, -0.0][:k]
    # column slices of a wider array, at every row and at every third row
    cases += [wide[:, 1:width + 1], wide[::3, width:2 * width]]
    for z in cases:
        got = st.inverse(z)
        assert_same_bits(got, np.atleast_2d(z) * st.std + st.mean)
        assert got.flags.c_contiguous and not np.shares_memory(got, z)
        assert_same_bits(st.transform(z), st.transform_ops(Tape(), np.atleast_2d(z)))


def test_ensemble_of_mixed_estimators_keeps_their_rt_support():
    members = [build_estimator(EstimatorConfig(kind="mixed", n_components=3, hidden=(8,)),
                               2, 2, seed) for seed in (87, 88)]
    target = np.array([[1.0, 0.5], [0.0, -0.1]])
    context = np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = np.stack([m.log_prob(target, context) for m in members], axis=1)
        lp = EnsembleEstimator(members).log_prob(target, context)
    assert np.isfinite(lp[0]) and lp[1] == -np.inf
    np.testing.assert_allclose(lp, special.logsumexp(cols, axis=1) - math.log(2.0), rtol=1e-15)


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed"])
def test_sample_returns_n_rows_of_target_dim_for_every_estimator(kind):
    rng = np.random.default_rng(84)
    theta = rng.normal(size=(30, 2))
    x = np.column_stack([rng.integers(0, 2, size=30), rng.uniform(0.2, 2.0, size=30)])
    members = [trained_like(kind, x, theta, seed) for seed in (85, 86)]
    context = theta[0] if kind == "mixed" else x[0]
    for est in (*members, EnsembleEstimator(members)):
        assert est.sample(context, 7, rng).shape == (7, 2)


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed", "ensemble"])
def test_a_context_of_the_wrong_row_count_raises_naming_both_shapes(kind):
    rng = np.random.default_rng(89)
    theta = rng.normal(size=(30, 2))
    x = np.column_stack([rng.integers(0, 2, size=30), rng.uniform(0.2, 2.0, size=30)])
    base = "mdn" if kind == "ensemble" else kind
    members = [trained_like(base, x, theta, seed) for seed in (90, 91)]
    est = EnsembleEstimator(members) if kind == "ensemble" else members[0]
    target, context = (x, theta) if base == "mixed" else (theta, x)
    with pytest.raises(EstimatorError, match=r"row of shape \(1, 2\), got shape \(2, 2\)"):
        est.sample(context[:2], 5, rng)
    with pytest.raises(EstimatorError, match=r"\(3, 2\) does not fit target of shape \(5, 2\)"):
        est.log_prob(target[:5], context[:3])
    for rows in (1, 5):
        assert est.log_prob(target[:5], context[:rows]).shape == (5,)


def test_ensemble_rejects_too_few_members_and_disagreeing_dims():
    cfg = EstimatorConfig(kind="mdn", n_components=2, hidden=(4,))
    with pytest.raises(EstimatorError, match="at least 2 members, got 1"):
        EnsembleEstimator([ConditionalMDN(2, 2, cfg)])
    for other in (ConditionalMDN(1, 2, cfg), ConditionalMDN(2, 3, cfg)):
        with pytest.raises(EstimatorError, match="disagree on"):
            EnsembleEstimator([ConditionalMDN(2, 2, cfg), other])


def test_build_estimator_dispatch():
    assert isinstance(build_estimator(EstimatorConfig(kind="mdn"), 2, 2), ConditionalMDN)
    assert isinstance(build_estimator(EstimatorConfig(kind="flow"), 2, 2), AffineCouplingFlow)
    assert isinstance(build_estimator(EstimatorConfig(kind="mixed"), 2, 5), MixedEstimator)
    with pytest.raises(EstimatorError):
        build_estimator(EstimatorConfig(kind="gan"), 2, 2)
    with pytest.raises(EstimatorError):
        build_estimator(EstimatorConfig(kind="mixed"), 3, 5)
