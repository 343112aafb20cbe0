import math

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
    out = tape.logsumexp(Tensor([[0.0, 0.0]]), axis=1)
    assert out.data[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_softplus_at_zero():
    tape = Tape()
    out = tape.softplus(Tensor([[0.0]]))
    assert out.data[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_shape_mismatch_names_offenders():
    tape = Tape()
    with pytest.raises(NdiffError, match=r"\(2, 3\)"):
        tape.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(NdiffError, match="add"):
        tape.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_backward_square():
    tape = Tape()
    x = Tensor([[3.0]])
    y = tape.sum(tape.square(x))
    grads = tape.backward(y)
    assert grads[x][0, 0] == pytest.approx(6.0)


def test_backward_rejects_nonscalar_seed():
    tape = Tape()
    x = Tensor([[1.0, 2.0]])
    y = tape.square(x)
    with pytest.raises(NdiffError, match="scalar"):
        tape.backward(y)


def test_logsumexp_gradient_is_softmax():
    vals = np.array([[0.3, -1.2, 2.0]])
    tape = Tape()
    x = Tensor(vals)
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


UNARY_OPS = ["tanh", "softplus", "exp", "square", "negate"]


@pytest.mark.parametrize("op", UNARY_OPS)
def test_unary_gradients_match_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    for _ in range(20):
        shape = tuple(rng.integers(1, 5, size=2))
        x = rng.uniform(-3.0, 3.0, size=shape)

        def fwd(arr):
            return getattr(Tape(), op)(Tensor(arr)).data.sum()

        tape = Tape()
        xt = Tensor(x.copy())
        out = tape.sum(getattr(tape, op)(xt))
        analytic = tape.backward(out)[xt]
        numeric = central_difference(fwd, x.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


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
    ]
    for name, args in cases:
        taped = getattr(Tape(), name)(*[Tensor(a) if isinstance(a, np.ndarray) else a
                                        for a in args])
        np.testing.assert_array_equal(getattr(EVALUATOR, name)(*args), taped.data, err_msg=name)
    np.testing.assert_array_equal(EVALUATOR.const(x), Tape().const(x).data)
    np.testing.assert_array_equal(EVALUATOR.affine(x, w, b), Tape().affine(Tensor(x), w, b).data)
    np.testing.assert_array_equal(EVALUATOR.concat([x, y], axis=1),
                                  Tape().concat([Tensor(x), Tensor(y)], axis=1).data)


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
            h = t.affine(Tensor(xx), Tensor(ww), Tensor(bb))
            h = t.multiply(h, Tensor(oo))
            h = t.concat([h, t.slice_cols(h, 0, max(1, m // 2))], axis=1)
            h = t.logsumexp(h, axis=1)
            return float(t.mean(h).data)

        t = Tape()
        xt, wt, bt, ot = Tensor(x.copy()), Tensor(w.copy()), Tensor(b.copy()), Tensor(other.copy())
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
            xt = [Tensor(a) for a in arrs]
            h = t.tanh(t.affine(xt[0], xt[1], xt[2]))
            h = t.affine(h, xt[3], xt[4])
            h = t.add(t.softplus(h), t.square(h))
            loss = t.mean(t.logsumexp(h, axis=1))
            if own:
                return float(loss.data)
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
        xt, wt = Tensor(x.copy()), Tensor(w.copy())
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

    def test_gradient_shape_mismatch_rejected(self):
        store = ParamStore()
        p = store.add("w", [1.0, 2.0])
        with pytest.raises(NdiffError, match="shape"):
            store.adam_step(Gradients({id(p): np.zeros((3,))}), lr=0.1)


def test_paramstore_roundtrip(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(0)
    store.add("layer0.w", rng.normal(size=(3, 4)))
    store.add("layer0.b", rng.normal(size=(4,)))
    store.add("head.w", rng.normal(size=(4, 1)))
    path = tmp_path / "params.ndp"
    store.save(path)
    loaded = ParamStore.load_file(path)
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded[name].data, store[name].data)


def test_paramstore_rejects_duplicate_and_bad_names():
    store = ParamStore()
    store.add("w", [1.0])
    with pytest.raises(NdiffError):
        store.add("w", [2.0])
    with pytest.raises(NdiffError):
        store.add("bad name", [1.0])
    with pytest.raises(NdiffError, match="'v'"):
        store.load({"v": [1.0]})


class TestParamStoreDamagedFile:
    def saved(self, tmp_path):
        store = ParamStore()
        store.add("w", np.arange(6.0).reshape(2, 3))
        store.add("b", np.ones(3))
        path = tmp_path / "params.ndp"
        store.save(path)
        return path, path.read_bytes()

    def test_truncated_blob_names_parameter_and_byte_counts(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw[:-4])
        with pytest.raises(NdiffError, match=r"params\.ndp.*'b'.*48\.\.72.*68 bytes"):
            ParamStore.load_file(path)

    def test_missing_end_line_is_rejected(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw.replace(b"\nend\n", b"\n"))
        with pytest.raises(NdiffError, match=r"params\.ndp.*'end'"):
            ParamStore.load_file(path)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(NdiffError, match=r"params\.ndp.*80 bytes.*lists 72"):
            ParamStore.load_file(path)
