import math

import numpy as np
import pytest
from scipy import special, stats

from sbikit.distributions import mixture_log_prob
from sbikit.estimators import (
    AffineCouplingFlow,
    ClassifierNet,
    ConditionalMDN,
    EnsembleEstimator,
    EstimatorConfig,
    EstimatorError,
    MixedEstimator,
    NllTask,
    build_estimator,
)
from sbikit.ndiff import EVALUATOR, Tape, Tensor, sigmoid
from sbikit.simulators import DDMSimulator, LinearGaussianSimulator, generate_dataset


def loss_gradient_fd(model, theta, x, h=1e-5):
    """Central finite differences of the training loss w.r.t. every parameter."""
    out = {}
    for name in model.store.names():
        p = model.store[name].data
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(model.loss(Tape(), theta, x).data)
            flat[i] = orig - h
            down = float(model.loss(Tape(), theta, x).data)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        out[name] = g
    return out


def small_mdn(target_dim=2, context_dim=2, k=3, seed=0, randomize=True):
    cfg = EstimatorConfig(kind="mdn", n_components=k, hidden=(8,))
    m = ConditionalMDN(target_dim, context_dim, cfg, seed=seed)
    if randomize:
        rng = np.random.default_rng(seed + 1)
        m.store.load({n: rng.normal(scale=0.3, size=m.store[n].data.shape)
                      for n in m.store.names()})
    return m


def small_flow(target_dim=2, context_dim=2, layers=3, seed=0, randomize=True):
    cfg = EstimatorConfig(kind="flow", hidden=(8,), n_layers=layers)
    f = AffineCouplingFlow(target_dim, context_dim, cfg, seed=seed)
    if randomize:
        rng = np.random.default_rng(seed + 1)
        f.store.load({n: rng.normal(scale=0.3, size=f.store[n].data.shape)
                      for n in f.store.names()})
    return f


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
    log_w, mu, log_std = m.head.components(m.context_net.forward(EVALUATOR, x))
    y_z = m.target_standardizer.transform(theta)
    expected = np.empty(20)
    for i in range(20):
        comps = [
            log_w[i, k] + np.sum(stats.norm.logpdf(y_z[i], mu[i, k], np.exp(log_std[i, k])))
            for k in range(4)
        ]
        expected[i] = special.logsumexp(comps) + m.target_standardizer.log_det
    np.testing.assert_allclose(m.log_prob(theta, x), expected, atol=1e-12)


def test_mdn_tape_and_numpy_paths_agree():
    m = small_mdn(seed=3)
    rng = np.random.default_rng(4)
    theta, x = rng.normal(size=(15, 2)), rng.normal(size=(15, 2))
    m.initialize_standardization(theta, x)
    taped = m.log_prob_tape(Tape(), Tensor(theta), Tensor(x)).data[:, 0]
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
    task = NllTask(m, theta_is_target=True)
    tape = Tape()
    loss = task.loss(tape, theta, x)
    grads = tape.backward(loss)
    fd = loss_gradient_fd(task, theta, x)
    for name in m.store.names():
        analytic = grads[m.store[name]]
        numeric = fd[name]
        denom = np.maximum(np.abs(numeric), 1e-3)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4, name


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
        taped = f.log_prob_tape(Tape(), Tensor(theta), Tensor(x)).data[:, 0]
        np.testing.assert_allclose(taped, f.log_prob(theta, x), atol=1e-12)


def test_flow_gradient_matches_finite_differences():
    f = small_flow(target_dim=2, context_dim=1, layers=2, seed=13)
    rng = np.random.default_rng(14)
    theta, x = rng.normal(size=(5, 2)), rng.normal(size=(5, 1))
    f.initialize_standardization(theta, x)
    task = NllTask(f, theta_is_target=True)
    tape = Tape()
    grads = tape.backward(task.loss(tape, theta, x))
    fd = loss_gradient_fd(task, theta, x)
    for name in f.store.names():
        numeric = fd[name]
        denom = np.maximum(np.abs(numeric), 1e-3)
        assert np.max(np.abs(grads[f.store[name]] - numeric) / denom) < 1e-4, name


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
    m.store.load({n: rng.normal(scale=0.3, size=m.store[n].data.shape)
                  for n in m.store.names()})
    theta, x = rng.normal(size=(6, 1)), rng.normal(size=(6, 4))
    m.initialize_standardization(theta, x)
    embed_names = [n for n in m.store.names() if n.startswith("ctx.embed")]
    assert embed_names, "embedding parameters should be registered"
    task = NllTask(m, theta_is_target=True)
    tape = Tape()
    grads = tape.backward(task.loss(tape, theta, x))
    fd = loss_gradient_fd(task, theta, x)
    for name in embed_names:
        numeric = fd[name]
        denom = np.maximum(np.abs(numeric), 1e-3)
        assert np.max(np.abs(grads[m.store[name]] - numeric) / denom) < 1e-4, name


class TestMixedEstimator:
    def make(self, seed=61):
        cfg = EstimatorConfig(kind="mixed", n_components=2, hidden=(8,))
        m = MixedEstimator(2, 3, cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        m.store.load({n: rng.normal(scale=0.3, size=m.store[n].data.shape)
                      for n in m.store.names()})
        theta = rng.normal(size=(50, 3))
        targets = np.column_stack([rng.integers(0, 2, size=50),
                                   rng.uniform(0.2, 2.0, size=50)])
        m.initialize_standardization(targets, theta)
        return m, theta, targets

    def test_joint_density_composes_choice_rt_and_jacobian(self):
        m, theta, targets = self.make()
        lp = m.log_prob(targets, theta)
        p1 = m.choice_probability(theta)
        choice = targets[:, 0]
        logp_choice = np.where(choice == 1, np.log(p1), np.log1p(-p1))
        ctx = m.context_net.forward(EVALUATOR, theta)
        feats = np.concatenate([ctx, choice[:, None]], axis=1)
        log_w, mu, log_std = m.rt_head.components(feats)
        y = np.log(targets[:, 1:2])
        y_z = m.target_standardizer.transform(y)
        logp_rt = (mixture_log_prob(log_w, mu, log_std, y_z)
                   + m.target_standardizer.log_det - np.log(targets[:, 1]))
        np.testing.assert_allclose(lp, logp_choice + logp_rt, atol=1e-10)

    def test_embedding_parameters_train_with_the_heads(self):
        cfg = EstimatorConfig(kind="mixed", n_components=2, hidden=(6,),
                              embedding_dim=2, embedding_hidden=(4,))
        m = MixedEstimator(2, 3, cfg, seed=63)
        rng = np.random.default_rng(64)
        m.store.load({n: rng.normal(scale=0.3, size=m.store[n].data.shape)
                      for n in m.store.names()})
        theta = rng.normal(size=(6, 3))
        targets = np.column_stack([rng.integers(0, 2, size=6), rng.uniform(0.2, 2.0, size=6)])
        m.initialize_standardization(targets, theta)
        embed_names = [n for n in m.store.names() if n.startswith("ctx.embed")]
        assert embed_names, "embedding parameters should be registered"
        # both heads read the 2-d embedding, not the 3-d context
        assert m.store["choice.w0"].data.shape[0] == 2
        assert m.store["rt.trunk.w0"].data.shape[0] == 3
        task = NllTask(m, theta_is_target=False)
        tape = Tape()
        grads = tape.backward(task.loss(tape, theta, targets))
        fd = loss_gradient_fd(task, theta, targets)
        for name in embed_names:
            numeric = fd[name]
            denom = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(grads[m.store[name]] - numeric) / denom) < 1e-4, name

    def test_choice_probabilities_sum_to_one(self):
        m, theta, _ = self.make()
        p1 = m.choice_probability(theta)
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
            p1 = m.choice_probability(ctx)[0]
            expected = p1 if choice == 1.0 else 1.0 - p1
            assert abs(mass - expected) < 2e-3

    def test_sampling_matches_choice_probability(self):
        m, theta, _ = self.make()
        ctx = theta[0]
        draws = m.sample(ctx, 20_000, np.random.default_rng(0))
        p1 = m.choice_probability(theta[:1])[0]
        assert abs(draws[:, 0].mean() - p1) < 0.02
        assert np.all(draws[:, 1] > 0)

    def test_tape_and_numpy_paths_agree(self):
        m, theta, targets = self.make()
        taped = m.log_prob_tape(Tape(), Tensor(targets), Tensor(theta)).data[:, 0]
        np.testing.assert_allclose(taped, m.log_prob(targets, theta), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        m, theta, targets = self.make(seed=71)
        theta, targets = theta[:5], targets[:5]
        task = NllTask(m, theta_is_target=False)
        tape = Tape()
        grads = tape.backward(task.loss(tape, theta, targets))
        fd = loss_gradient_fd(task, theta, targets)
        for name in m.store.names():
            numeric = fd[name]
            denom = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(grads[m.store[name]] - numeric) / denom) < 1e-4, name


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
        tape = Tape()
        grads = tape.backward(c.loss(tape, theta, x))
        fd = loss_gradient_fd(c, theta, x)
        for name in c.store.names():
            numeric = fd[name]
            denom = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(grads[c.store[name]] - numeric) / denom) < 1e-4, name


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


def trained_like(kind, x, theta, seed):
    """A small estimator of ``kind`` standardized on the (theta, x) rows, x
    the target for the mixed estimator and theta for the others."""
    est = build_estimator(EstimatorConfig(kind=kind, n_components=3, hidden=(8,)), 2, 2, seed)
    est.initialize_standardization(*((x, theta) if kind == "mixed" else (theta, x)))
    return est


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed", "classifier"])
def test_evaluator_loss_and_log_prob_equal_the_taped_ones_exactly(kind):
    rng = np.random.default_rng(81)
    theta = rng.normal(size=(30, 2))
    if kind == "mixed":
        x = np.column_stack([rng.integers(0, 2, size=30), rng.uniform(0.2, 2.0, size=30)])
    else:
        x = rng.normal(size=(30, 2))
    if kind == "classifier":
        model = ClassifierNet(2, 2, hidden=(8,), seed=82)
        model.initialize_standardization(theta, x)
    else:
        members = [trained_like(kind, x, theta, seed) for seed in (82, 83)]
        target, context = (x, theta) if kind == "mixed" else (theta, x)
        model = NllTask(members[0], theta_is_target=kind != "mixed")
        for est in (members[0], EnsembleEstimator(members)):
            taped = est.log_prob_tape(Tape(), Tensor(target), Tensor(context)).data[:, 0]
            np.testing.assert_array_equal(est.log_prob(target, context), taped)
    assert float(model.loss(EVALUATOR, theta, x)) == float(model.loss(Tape(), theta, x).data)


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed"])
def test_sample_returns_n_rows_of_target_dim_for_every_estimator(kind):
    rng = np.random.default_rng(84)
    theta = rng.normal(size=(30, 2))
    x = np.column_stack([rng.integers(0, 2, size=30), rng.uniform(0.2, 2.0, size=30)])
    members = [trained_like(kind, x, theta, seed) for seed in (85, 86)]
    context = theta[0] if kind == "mixed" else x[0]
    for est in (*members, EnsembleEstimator(members)):
        assert est.sample(context, 7, rng).shape == (7, 2)


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
