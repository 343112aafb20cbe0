import math
import warnings

import numpy as np
import pytest

from sbikit.ndiff import (
    EVALUATOR,
    Gradients,
    NdiffError,
    NonFiniteGradientError,
    ParamStore,
    Tape,
    Tensor,
    logsumexp,
    softplus,
)

from .oracles import mixture_log_density


def central_difference(fn, x, h=1e-5):
    """Finite-difference gradient of a scalar fn over a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def test_logsumexp_identity():
    tape = Tape()
    out = tape.logsumexp(np.array([[0.0, 0.0]]), axis=1)
    assert out[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_softplus_at_zero():
    tape = Tape()
    out = tape.softplus(np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_shape_mismatch_names_offenders():
    tape = Tape()
    with pytest.raises(NdiffError, match=r"\(2, 3\)"):
        tape.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(NdiffError, match="add"):
        tape.add(np.zeros((2, 3)), np.zeros((3, 2)))


def test_backward_square():
    tape = Tape()
    x = np.array([[3.0]])
    y = tape.sum(tape.square(x))
    grads = tape.backward(y)
    assert grads[x][0, 0] == pytest.approx(6.0)


def test_backward_rejects_nonscalar_seed():
    tape = Tape()
    x = np.array([[1.0, 2.0]])
    y = tape.square(x)
    with pytest.raises(NdiffError, match="scalar"):
        tape.backward(y)


def test_logsumexp_gradient_is_softmax():
    vals = np.array([[0.3, -1.2, 2.0]])
    tape = Tape()
    x = vals
    y = tape.sum(tape.logsumexp(x, axis=1))
    grads = tape.backward(y)
    expected = np.exp(vals - logsumexp(vals, axis=1))
    np.testing.assert_allclose(grads[x], expected, rtol=1e-12)


def test_logsumexp_no_overflow_at_1e300():
    big = np.array([[1e300, 1e300]])
    out = logsumexp(big, axis=1)
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1e300)
    neg = logsumexp(np.array([[-1e300, -1e300]]), axis=1)
    assert not np.isnan(neg).any()


def test_logsumexp_of_an_all_neg_inf_row_is_neg_inf_without_a_warning():
    x = np.array([[-np.inf, -np.inf], [np.nan, 1.0], [0.3, -1.2], [-np.inf, 2.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = logsumexp(x, axis=1)[:, 0]
    assert out[0] == -np.inf
    assert np.isnan(out[1])
    # finite rows keep the bits of the max-shifted formula
    m = x[2:].max(axis=1)
    np.testing.assert_array_equal(out[2:], m + np.log(np.exp(x[2:] - m[:, None]).sum(axis=1)))


def test_logsumexp_backward_gives_an_all_neg_inf_row_a_zero_adjoint():
    vals = np.array([[-np.inf, -np.inf], [0.0, 1.0]])
    tape = Tape()
    x = vals
    y = tape.sum(tape.logsumexp(x, axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grads = tape.backward(y)[x]
    np.testing.assert_array_equal(grads[0], [0.0, 0.0])
    # the finite row keeps the bits of its softmax
    np.testing.assert_array_equal(grads[1], np.exp(vals[1] - logsumexp(vals[1:], axis=1)[0]))


UNARY_OPS = ["tanh", "softplus", "exp", "square", "negate"]


@pytest.mark.parametrize("op", UNARY_OPS)
def test_unary_gradients_match_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    for _ in range(20):
        shape = tuple(rng.integers(1, 5, size=2))
        x = rng.uniform(-3.0, 3.0, size=shape)

        def fwd(arr):
            return getattr(Tape(), op)(arr).sum()

        tape = Tape()
        xt = x.copy()
        out = tape.sum(getattr(tape, op)(xt))
        analytic = tape.backward(out)[xt]
        numeric = central_difference(fwd, x.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_scale_shift_pulls_back_the_scale_of_each_column():
    x = np.arange(6.0).reshape(3, 2)
    tape = Tape()
    y = tape.scale_shift(x, np.array([2.0, -0.5]), np.array([1.0, 3.0]))
    np.testing.assert_array_equal(y, [[1.0, 2.5], [5.0, 1.5], [9.0, 0.5]])
    np.testing.assert_array_equal(tape.backward(tape.sum(y))[x], [[2.0, -0.5]] * 3)


def test_evaluator_matches_tape_primitives_bit_for_bit():
    rng = np.random.default_rng(5)
    x = rng.uniform(-40.0, 40.0, size=(6, 4))
    y = rng.uniform(-3.0, 3.0, size=(6, 4))
    w, b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(3,)))
    cases = [
        ("add", (x, y)), ("add", (x, 2.5)), ("multiply", (x, y)),
        ("multiply", (x, -0.5)), ("tanh", (x,)), ("softplus", (x,)), ("exp", (y,)),
        ("square", (x,)), ("negate", (x,)), ("logsumexp", (x, 0)), ("logsumexp", (x, 1)),
        ("sum", (x,)), ("sum", (x, 1)), ("mean", (x,)), ("slice_cols", (x, 1, 3)),
        ("affine", (x, w, b)), ("scale_shift", (x, y[0], y[1])), ("concat", ([x, y], 1)),
    ]
    for name, args in cases:
        taped = getattr(Tape(), name)(*args)
        assert type(taped) is np.ndarray, name
        np.testing.assert_array_equal(getattr(EVALUATOR, name)(*args), taped, err_msg=name)


@pytest.mark.parametrize("k, d", [(1, 1), (3, 2), (10, 1), (10, 2), (17, 9)])
def test_evaluator_mixture_log_prob_agrees_with_the_taped_loop_and_the_oracle(k, d):
    rng = np.random.default_rng(10 * k + d)
    n = 40
    log_w = rng.normal(size=(n, k))
    log_w -= logsumexp(log_w, axis=1)
    log_w[0, 1:] = -np.inf                      # a one-component mixture
    mu = rng.normal(size=(n, k * d))
    log_std = rng.uniform(-3.0, 3.0, size=(n, k * d))
    y_z = rng.normal(scale=3.0, size=(n, d))
    y_z[1] = 1e3 * np.exp(log_std.max())        # 1e3 std from every component
    y_z[2, -1] = np.inf
    shape = (-1, k, d)
    tape = Tape()
    taped = tape.mixture_log_prob(log_w, mu, log_std, y_z)
    assert len(tape) == 13 * k + 3
    got = EVALUATOR.mixture_log_prob(log_w, mu, log_std, y_z)
    np.testing.assert_allclose(got, taped, rtol=1e-12)
    np.testing.assert_allclose(got[:, 0], mixture_log_density(
        log_w, mu.reshape(shape), log_std.reshape(shape), y_z), rtol=1e-12)
    assert np.isfinite(got[1, 0]) and got[2, 0] == -np.inf
    # one mixture, which the evaluator broadcasts over the targets
    one = [p[:1] for p in (log_w, mu, log_std)]
    taped = Tape().mixture_log_prob(*(np.repeat(p, n, axis=0) for p in one), y_z)
    got = EVALUATOR.mixture_log_prob(*one, y_z)
    np.testing.assert_allclose(got, taped, rtol=1e-12)
    np.testing.assert_allclose(got[:, 0], mixture_log_density(
        one[0], one[1].reshape(shape), one[2].reshape(shape), y_z), rtol=1e-12)
    # a square past the float range is a -inf term, with no overflow warning
    far = np.full((1, d), 1e160)
    assert EVALUATOR.mixture_log_prob(*one, far)[0, 0] == -np.inf


def test_a_full_reduction_keeps_its_gradient_through_add():
    # a reduction that returned a float would pass for a constant as the
    # second operand of ``add``, which each reduction is here once
    x = np.random.default_rng(6).normal(size=(3, 4))
    tape = Tape()
    total = tape.add(tape.add(tape.sum(x), tape.mean(x)), tape.sum(x))
    np.testing.assert_allclose(tape.backward(total)[x], np.full_like(x, 2.0 + 1.0 / x.size),
                               rtol=1e-15)


def test_binary_and_structural_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n, k, m = rng.integers(1, 5, size=3)
        x = rng.uniform(-3, 3, size=(n, k))
        w = rng.uniform(-3, 3, size=(k, m))
        b = rng.uniform(-3, 3, size=(m,))
        other = rng.uniform(-3, 3, size=(n, m))

        def fwd(parts):
            xx, ww, bb, oo = parts
            t = Tape()
            h = t.affine(xx, Tensor(ww), Tensor(bb))
            h = t.multiply(h, oo)
            h = t.concat([h, t.slice_cols(h, 0, max(1, m // 2))], axis=1)
            h = t.logsumexp(h, axis=1)
            return float(t.mean(h))

        t = Tape()
        xt, wt, bt, ot = x.copy(), Tensor(w.copy()), Tensor(b.copy()), other.copy()
        h = t.affine(xt, wt, bt)
        h = t.multiply(h, ot)
        h = t.concat([h, t.slice_cols(h, 0, max(1, m // 2))], axis=1)
        out = t.mean(t.logsumexp(h, axis=1))
        grads = t.backward(out)

        for idx, (tensor, arr) in enumerate(zip((xt, wt, bt, ot), (x, w, b, other))):
            def scalar_fn(a, _idx=idx):
                parts = [x.copy(), w.copy(), b.copy(), other.copy()]
                parts[_idx] = a
                return fwd(parts)

            numeric = central_difference(scalar_fn, arr.copy())
            np.testing.assert_allclose(grads[tensor], numeric, rtol=1e-4, atol=1e-7)


def test_gradients_match_finite_differences_over_random_mlp_losses():
    """Composite forward passes over all primitives, 100 random draws."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        d_in = int(rng.integers(1, 4))
        d_h = int(rng.integers(1, 6))
        x = rng.uniform(-3, 3, size=(n, d_in))
        w1 = rng.uniform(-1.5, 1.5, size=(d_in, d_h))
        b1 = rng.uniform(-1, 1, size=(d_h,))
        w2 = rng.uniform(-1.5, 1.5, size=(d_h, 2))
        b2 = rng.uniform(-1, 1, size=(2,))

        def run(arrs, tape=None):
            own = tape is None
            t = Tape() if tape is None else tape
            xt = [arrs[0]] + [Tensor(a) for a in arrs[1:]]
            h = t.tanh(t.affine(xt[0], xt[1], xt[2]))
            h = t.affine(h, xt[3], xt[4])
            h = t.add(t.softplus(h), t.square(h))
            loss = t.mean(t.logsumexp(h, axis=1))
            if own:
                return float(loss)
            return loss, xt

        arrs = [x, w1, b1, w2, b2]
        tape = Tape()
        loss, tensors = run([a.copy() for a in arrs], tape)
        grads = tape.backward(loss)
        which = int(rng.integers(0, len(arrs)))

        def scalar_fn(a):
            probe = [v.copy() for v in arrs]
            probe[which] = a
            return run(probe)

        numeric = central_difference(scalar_fn, arrs[which].copy())
        denom = np.maximum(np.abs(numeric), 1e-4)
        rel = np.max(np.abs(grads[tensors[which]] - numeric) / denom)
        assert rel < 1e-4, f"trial {trial}: rel err {rel}"


def test_identical_tape_replay_is_bit_identical():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=(2,))

    def build():
        t = Tape()
        xt, wt = x.copy(), Tensor(w.copy())
        out = t.mean(t.tanh(t.affine(xt, wt, Tensor(b))))
        return t.backward(out)[wt]

    g1 = build()
    g2 = build()
    assert np.array_equal(g1, g2)


class TestAdam:
    def test_first_step_matches_hand_computed_scalar(self):
        store = ParamStore()
        p = store.add("w", [2.0])
        g = np.array([0.5])
        # one bias-corrected step: m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + eps) regardless of magnitude
        store.adam_step(Gradients({id(p): g}), lr=0.1)
        expected = 2.0 - 0.1 * 0.5 / (math.sqrt(0.5 ** 2) + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)
        assert store.step_count == 1

    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = ParamStore()
        p = store.add("w", [[1.0, -2.0]])
        store.adam_step(Gradients({id(p): np.zeros((1, 2))}), lr=0.1)
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])

    def test_constant_gradient_moves_against_sign(self):
        store = ParamStore()
        p = store.add("w", [0.0])
        g = np.array([-1.3])
        prev = p.data.copy()
        for _ in range(2):
            store.adam_step(Gradients({id(p): g}), lr=0.05)
            assert p.data[0] > prev[0]
            prev = p.data.copy()

    def test_nonfinite_gradient_aborts(self):
        store = ParamStore()
        p = store.add("w", [1.0])
        with pytest.raises(NonFiniteGradientError, match="w"):
            store.adam_step(Gradients({id(p): np.array([np.nan])}), lr=0.1)

    def test_a_rejected_step_leaves_parameters_moments_and_count_as_they_were(self):
        def twin():
            store = ParamStore()
            a, b = store.add("a", [1.0]), store.add("b", [[2.0, -3.0]])
            return store, lambda ga, gb: Gradients({id(a): np.array(ga), id(b): np.array(gb)})

        (store, grads), (ref, ref_grads) = twin(), twin()
        for s, g in ((store, grads), (ref, ref_grads)):
            s.adam_step(g([0.5], [[0.1, -0.2]]), lr=0.1)
        # the bad gradient is the second parameter's: the first must not move
        with pytest.raises(NonFiniteGradientError, match="'b' at step 2"):
            store.adam_step(grads([0.5], [[np.nan, 0.3]]), lr=0.1)
        assert store.step_count == 1
        # the moments did not move either: the next step lands where the
        # reference's does, which never saw the rejected one
        for s, g in ((store, grads), (ref, ref_grads)):
            for name in ("a", "b"):
                np.testing.assert_array_equal(s[name].data, ref[name].data)
            s.adam_step(g([-0.3], [[0.2, 0.4]]), lr=0.1)
        for name in ("a", "b"):
            np.testing.assert_array_equal(store[name].data, ref[name].data)
        assert store.step_count == ref.step_count == 2

    def test_gradient_shape_mismatch_rejected(self):
        store = ParamStore()
        p = store.add("w", [1.0, 2.0])
        with pytest.raises(NdiffError, match="shape"):
            store.adam_step(Gradients({id(p): np.zeros((3,))}), lr=0.1)


def test_parameters_stay_views_into_the_one_buffer_across_add_and_load():
    store = ParamStore()
    a = store.add("a", [[1.0, 2.0]])
    b = store.add("b", [3.0])
    store.load({"a": [[4.0, 5.0]]})
    assert store.version == 1
    store.adam_step(Gradients({id(a): np.ones((1, 2)), id(b): np.ones(1)}), lr=0.5)
    assert store.version == 2
    assert np.shares_memory(a.data, store.flat) and np.shares_memory(b.data, store.flat)
    with pytest.raises(ValueError, match="read-only"):
        a.data[0, 0] = 0.0                      # only load and adam_step write
    # a first step moves each entry by lr * g / (|g| + eps)
    np.testing.assert_allclose(store.flat, np.array([4.0, 5.0, 3.0]) - 0.5 / (1.0 + 1e-8),
                               rtol=1e-15)


def test_paramstore_rejects_duplicate_and_bad_names():
    store = ParamStore()
    store.add("w", [1.0])
    with pytest.raises(NdiffError):
        store.add("w", [2.0])
    with pytest.raises(NdiffError, match="'v'"):
        store.load({"v": [1.0]})
