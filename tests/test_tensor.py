import math

import numpy as np
import pytest
from conftest import fd_check, gru_reference, mha_loop_reference, rand, softmax_rows, total

from efnet import tensor as tx
from efnet.gradcheck import fd_gradient
from efnet.layers import GRUParams
from efnet.tensor import MaskError, ShapeError, Tape, TapeError, Tensor


def flat_of(arrays):
    return np.concatenate([a.reshape(-1) for a in arrays])


class TestMatmul:
    def test_worked_example_against_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        got = tx.matmul(Tensor(a), Tensor(b)).data
        ref = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    ref[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(got, ref)
        np.testing.assert_allclose(got, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            tx.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        # a rank-1 left operand is one row: its length must match
        with pytest.raises(ShapeError, match=r"\(4,\) x \(3, 2\)"):
            tx.matmul(Tensor(np.zeros(4)), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            tx.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3, 2))))
        with pytest.raises(ShapeError):
            tx.matmul(Tensor(np.zeros(())), Tensor(np.zeros((3, 2))))
        # batch axes must match on both sides
        with pytest.raises(ShapeError, match=r"\(3, 4, 2\) x \(2, 5\)"):
            tx.matmul(Tensor(np.zeros((3, 4, 2))), Tensor(np.zeros((2, 5))))

    def test_rank1_left_operand(self):
        rng = np.random.default_rng(13)
        a, b = rand(rng, 4), rand(rng, 4, 3)
        got = tx.matmul(Tensor(a), Tensor(b)).data
        assert got.shape == (3,)
        np.testing.assert_allclose(got, a @ b, atol=1e-12)
        fd_check(tx.matmul, a, b)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n, k, m = rng.integers(1, 6, size=3)
            fd_check(tx.matmul, rand(rng, n, k), rand(rng, k, m))
        # a batch axis on both sides pairs the entries up
        fd_check(tx.matmul, rand(rng, 3, 4, 2), rand(rng, 3, 2, 5))

    def test_batched_matches_per_entry(self):
        rng = np.random.default_rng(12)
        a, bb = rand(rng, 3, 4, 2), rand(rng, 3, 2, 5)
        got_pairs = tx.matmul(Tensor(a), Tensor(bb)).data
        for i in range(3):
            np.testing.assert_allclose(got_pairs[i], a[i] @ bb[i], atol=1e-12)
        with pytest.raises(ShapeError):
            tx.matmul(Tensor(a), Tensor(rand(rng, 2, 2, 5)))


class TestSoftmax:
    def test_known_values(self):
        y = tx.softmax(Tensor(np.array([0.0, math.log(2.0)]))).data
        np.testing.assert_allclose(y, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 9)))
            y = tx.softmax(Tensor(x), axis=-1).data
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_mask_zeroes_exactly(self):
        x = np.array([5.0, 9.0, 2.0])
        mask = np.array([True, False, True])
        y = tx.softmax(Tensor(x), mask=mask).data
        assert y[1] == 0.0
        np.testing.assert_allclose(y.sum(), 1.0, atol=1e-6)
        # masked entry must not shift the distribution over survivors
        y2 = tx.softmax(Tensor(np.array([5.0, 2.0]))).data
        np.testing.assert_allclose(y[[0, 2]], y2, rtol=1e-6)

    def test_mask_broadcasts_over_rows(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        mask = np.array([True, True, False, True, False, True])
        y = tx.softmax(Tensor(x), axis=-1, mask=mask).data
        assert (y[:, ~mask] == 0.0).all()
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_fully_masked_group_raises(self):
        x = np.zeros((2, 3))
        mask = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(MaskError):
            tx.softmax(Tensor(x), mask=mask)

    def test_large_inputs_stable(self):
        y = tx.softmax(Tensor(np.array([1000.0, 1000.0]))).data
        np.testing.assert_allclose(y, [0.5, 0.5])

    def test_gradients(self):
        rng = np.random.default_rng(17)
        fd_check(lambda t: tx.softmax(t, axis=-1), rand(rng, 3, 5))
        mask = np.array([True, False, True, True, False])
        fd_check(lambda t: tx.softmax(t, axis=-1, mask=mask), rand(rng, 3, 5))
        fd_check(lambda t: tx.softmax(t, axis=0), rand(rng, 4, 2))


class TestMeanPool:
    def test_known_value(self):
        x = np.array([[1.0, 3.0], [3.0, 5.0]])
        np.testing.assert_allclose(tx.mean_pool(Tensor(x)).data, [2.0, 4.0])

    def test_masked_rows_ignored(self):
        x = np.array([[1.0, 3.0], [100.0, 100.0], [3.0, 5.0]])
        mask = np.array([True, False, True])
        np.testing.assert_allclose(tx.mean_pool(Tensor(x), mask).data, [2.0, 4.0])

    def test_all_masked_raises(self):
        with pytest.raises(MaskError):
            tx.mean_pool(Tensor(np.ones((2, 2))), np.array([False, False]))

    def test_gradients(self):
        rng = np.random.default_rng(23)
        fd_check(tx.mean_pool, rand(rng, 5, 3))
        mask = np.array([True, False, True, True, False])
        fd_check(lambda t: tx.mean_pool(t, mask), rand(rng, 5, 3))
        ragged = np.array([[True, True, False], [True, False, False]])
        fd_check(lambda t: tx.mean_pool(t, ragged), rand(rng, 2, 3, 4))

    def test_batched_rows_pool_their_own_rows(self):
        x = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
        mask = np.array([[True, True, False], [False, False, True]])
        np.testing.assert_allclose(tx.mean_pool(Tensor(x), mask).data,
                                   [[1.0, 2.0], [10.0, 11.0]])
        with pytest.raises(MaskError):
            tx.mean_pool(Tensor(x), np.array([[True, True, True], [False] * 3]))


class TestElementwise:
    def test_add_bias_broadcast(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([10.0, 20.0])
        np.testing.assert_allclose(tx.add(Tensor(x), Tensor(b)).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tx.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_reuse_accumulates(self):
        # d(x+x)/dx = 2, so the two parent slots must sum
        tape = Tape()
        x = tape.watch(Tensor(np.array(3.0, dtype=np.float64), requires_grad=True))
        y = tx.add(x, x)
        grads = tape.backward(y)
        np.testing.assert_allclose(grads[x], 2.0)

    def test_sum_squares_matches_manual(self):
        rng = np.random.default_rng(61)
        parts = [rand(rng, 3, 2), rand(rng, 4)]
        got = tx.sum_squares([Tensor(p) for p in parts], flat_of(parts)).data
        np.testing.assert_allclose(got, sum((p * p).sum() for p in parts))

    def test_gradients(self):
        rng = np.random.default_rng(29)
        x = rand(rng, 4, 3)
        fd_check(tx.add, x, rand(rng, 4, 3))
        fd_check(tx.add, x, rand(rng, 3))
        fd_check(tx.add, rand(rng, 2, 4, 3), rand(rng, 3))
        fd_check(lambda t: tx.scale(t, -2.5), x)
        fd_check(lambda a, b: tx.sum_squares([a, b], flat_of([a.data, b.data])),
                 x, rand(rng, 2, 5))


class TestShapeOps:
    def test_concat_last_axis(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0]])
        np.testing.assert_allclose(tx.concat([Tensor(a), Tensor(b)]).data, [[1.0, 2.0, 3.0]])

    def test_concat_rows(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        got = tx.concat([Tensor(a), Tensor(b)], axis=0).data
        np.testing.assert_allclose(got, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_concat_bad_shapes(self):
        with pytest.raises(ShapeError):
            tx.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3)))], axis=0)
        with pytest.raises(ShapeError):
            tx.concat([])

    def test_reshape_and_transpose(self):
        x = np.arange(6, dtype=np.float64)
        np.testing.assert_allclose(tx.reshape(Tensor(x), (2, 3)).data, x.reshape(2, 3))
        np.testing.assert_allclose(tx.transpose(Tensor(x.reshape(2, 3))).data, x.reshape(2, 3).T)
        with pytest.raises(ShapeError):
            tx.reshape(Tensor(x), (4, 2))
        with pytest.raises(ShapeError):
            tx.transpose(Tensor(x))

    def test_gradients(self):
        rng = np.random.default_rng(31)
        fd_check(lambda a, b: tx.concat([a, b], axis=-1), rand(rng, 2, 3), rand(rng, 2, 2))
        fd_check(lambda a, b: tx.concat([a, b], axis=0), rand(rng, 2, 3), rand(rng, 4, 3))
        fd_check(lambda t: tx.reshape(t, (3, 4)), rand(rng, 2, 6))
        fd_check(tx.transpose, rand(rng, 3, 5))
        fd_check(tx.transpose, rand(rng, 2, 3, 5))


class TestEmbeddingLookup:
    def test_gathers_rows(self):
        table = np.arange(8, dtype=np.float64).reshape(4, 2)
        got = tx.embedding_lookup(Tensor(table), [2, 0, 2]).data
        np.testing.assert_allclose(got, table[[2, 0, 2]])

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            tx.embedding_lookup(Tensor(np.zeros((4, 2))), [4])

    def test_repeated_ids_accumulate_gradient(self):
        tape = Tape()
        table = tape.watch(Tensor(np.zeros((3, 2), dtype=np.float64), requires_grad=True))
        out = tx.embedding_lookup(table, [1, 1, 2])
        g = tape.backward(total(out))[table]
        np.testing.assert_allclose(g, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])

    def test_gradients(self):
        rng = np.random.default_rng(37)
        fd_check(lambda t: tx.embedding_lookup(t, [0, 3, 1, 3]), rand(rng, 5, 4))
        fd_check(lambda t: tx.embedding_lookup(t, [[0, 3], [3, 2]]), rand(rng, 5, 4))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert tx.dropout(x, 0.5, train=False) is x
        assert tx.dropout(x, 0.0, train=True) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(41)
        x = Tensor(np.ones(10_000))
        y = tx.dropout(x, 0.3, train=True, rng=rng).data
        assert abs(y.mean() - 1.0) < 0.02
        kept = y[y != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-6)

    def test_gradient_uses_same_mask(self):
        tape = Tape()
        x = tape.watch(Tensor(np.ones(64, dtype=np.float64), requires_grad=True))
        y = tx.dropout(x, 0.4, train=True, rng=np.random.default_rng(7))
        g = tape.backward(total(y))[x]
        np.testing.assert_allclose(g, np.where(y.data != 0.0, 1.0 / 0.6, 0.0))

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            tx.dropout(Tensor(np.ones(2)), 1.0, train=True, rng=np.random.default_rng(0))

    def test_gradients(self):
        rng = np.random.default_rng(43)
        fd_check(
            lambda t: tx.dropout(t, 0.4, train=True, rng=np.random.default_rng(9)),
            rand(rng, 6, 5),
        )


class TestSquashRows:
    def test_unit_norm_maps_to_half(self):
        s = np.array([[1.0, 0.0, 0.0]])
        v = tx.squash_rows(Tensor(s)).data
        np.testing.assert_allclose(np.linalg.norm(v), 0.5, atol=1e-6)

    def test_norms_below_one_direction_kept(self):
        rng = np.random.default_rng(47)
        s = rng.standard_normal((20, 6)) * 10.0
        v = tx.squash_rows(Tensor(s)).data
        norms = np.linalg.norm(v, axis=1)
        assert (norms < 1.0).all()
        cos = (v * s).sum(axis=1) / (np.linalg.norm(s, axis=1) * norms)
        np.testing.assert_allclose(cos, 1.0, atol=1e-6)

    def test_zero_row_stays_zero(self):
        s = np.array([[0.0, 0.0], [1.0, 1.0]])
        v = tx.squash_rows(Tensor(s)).data
        np.testing.assert_allclose(v[0], [0.0, 0.0])
        tape = Tape()
        t = tape.watch(Tensor(s.astype(np.float64), requires_grad=True))
        g = tape.backward(total(tx.squash_rows(t)))[t]
        np.testing.assert_allclose(g[0], [0.0, 0.0])
        assert np.isfinite(g).all()

    def test_gradients(self):
        rng = np.random.default_rng(53)
        fd_check(tx.squash_rows, rand(rng, 4, 5) + 0.3)
        fd_check(tx.squash_rows, rand(rng, 2, 4, 5) + 0.3)


class TestMultiHeadAttention:
    def split(self, ws, heads):
        """The op's (blocks, leaves) for 3H per-head tensors, wq heads first."""
        roles = ws[:heads], ws[heads:2 * heads], ws[2 * heads:]
        return [np.stack([w.data for w in role]) for role in roles], list(ws)

    def test_matches_per_head_loop(self):
        rng = np.random.default_rng(71)
        q, k, v = rand(rng, 2, 5), rand(rng, 4, 3), rand(rng, 4, 3)
        wq = [rand(rng, 5, 2) for _ in range(3)]
        wk = [rand(rng, 3, 2) for _ in range(3)]
        wv = [rand(rng, 3, 2) for _ in range(3)]
        out, attn = tx.multi_head_attention(
            Tensor(q), Tensor(k), Tensor(v), *self.split([Tensor(w) for w in wq + wk + wv], 3))
        np.testing.assert_allclose(out.data, mha_loop_reference(q, k, v, wq, wk, wv),
                                   atol=1e-12)
        assert attn.shape == (3, 2, 4)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_mask_zeroes_weights_exactly(self):
        rng = np.random.default_rng(72)
        x = Tensor(rand(rng, 4, 3))
        ws = [Tensor(rand(rng, 3, 2)) for _ in range(6)]
        mask = np.array([True, False, True, False])
        _, attn = tx.multi_head_attention(x, x, x, *self.split(ws, 2), mask=mask)
        assert (attn[:, :, ~mask] == 0.0).all()
        with pytest.raises(MaskError):
            tx.multi_head_attention(x, x, x, *self.split(ws, 2),
                                    mask=np.zeros(4, dtype=bool))
        with pytest.raises(ShapeError):
            tx.multi_head_attention(x, x, x, *self.split(ws, 2), mask=np.ones(3, dtype=bool))

    def test_gradients(self):
        rng = np.random.default_rng(73)
        for heads in (1, 2, 4):
            for mask in (None, np.array([True, False, True, True, False])):
                def op(q, k, v, *ws, heads=heads, mask=mask):
                    return tx.multi_head_attention(q, k, v, *self.split(ws, heads),
                                                   mask=mask)[0]

                ws = ([rand(rng, 4, 2) for _ in range(heads)]
                      + [rand(rng, 3, 2) for _ in range(2 * heads)])
                fd_check(op, rand(rng, 2, 4), rand(rng, 5, 3), rand(rng, 5, 3), *ws)

    def test_gradients_one_tensor_for_q_k_v(self):
        rng = np.random.default_rng(74)
        mask = np.array([True, True, False, True])
        for heads in (1, 2, 4):
            def op(x, *ws, heads=heads):
                return tx.multi_head_attention(x, x, x, *self.split(ws, heads),
                                               mask=mask)[0]

            fd_check(op, rand(rng, 4, 3), *[rand(rng, 3, 2) for _ in range(3 * heads)])


    def test_batched_rows_with_ragged_masks(self):
        # row i of a batch attends exactly as its own unbatched call does
        rng = np.random.default_rng(78)
        q, k = rand(rng, 3, 2, 4), rand(rng, 3, 5, 3)
        v = rand(rng, 3, 5, 3)
        mask = np.array([[True, True, True, False, False],
                         [True, False, True, True, True],
                         [False, False, False, False, True]])
        for heads in (1, 2):
            ws = ([rand(rng, 4, 2) for _ in range(heads)]
                  + [rand(rng, 3, 2) for _ in range(2 * heads)])
            wt = [Tensor(w) for w in ws]
            out, attn = tx.multi_head_attention(Tensor(q), Tensor(k), Tensor(v),
                                                *self.split(wt, heads), mask=mask)
            assert attn.shape == (3, heads, 2, 5)
            assert (attn.transpose(0, 3, 1, 2)[~mask] == 0.0).all()
            for i in range(3):
                one, _ = tx.multi_head_attention(Tensor(q[i]), Tensor(k[i]), Tensor(v[i]),
                                                 *self.split(wt, heads), mask=mask[i])
                np.testing.assert_allclose(out.data[i], one.data, atol=1e-12)

            def op(q, k, v, *ws, heads=heads):
                return tx.multi_head_attention(q, k, v, *self.split(ws, heads), mask=mask)[0]

            fd_check(op, q, k, v, *ws)
        with pytest.raises(ShapeError):
            tx.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), *self.split(wt, 2),
                                    mask=mask[0])


def plain(x):
    return x.data if isinstance(x, Tensor) else x


def region_attention(query, r, w_r):
    """The attention half of the fused image op."""
    _, out, weights = tx.capsule_region_attention(r, query=query, w_r=w_r)
    return out, weights


class TestRegionAttention:
    def explicit(self, q, r, w_r):
        # the keys r w_r formed explicitly, as the reassociated op never does
        keys = r @ w_r
        weights = softmax_rows((keys @ q[..., None])[..., 0] / math.sqrt(w_r.shape[1]))
        return (weights[..., None, :] @ keys)[..., 0, :], weights

    def operands(self, rng, lead):
        return rand(rng, *lead, 5), rand(rng, *lead, 49, 7) * 0.5, rand(rng, 7, 5) * 0.5

    def test_matches_explicit_keys(self):
        rng = np.random.default_rng(81)
        for lead in ((), (3,)):
            q, r, w_r = self.operands(rng, lead)
            out, weights = region_attention(Tensor(q), Tensor(r), Tensor(w_r))
            want_out, want_weights = self.explicit(q, r, w_r)
            assert out.shape == lead + (5,) and weights.shape == lead + (49,)
            np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(82)
        for lead in ((), (3,)):
            q, r, w_r = self.operands(rng, lead)
            fd_check(lambda q, r, w_r: region_attention(q, r, w_r)[0], q, r, w_r)
            fd_check(lambda q, w_r: region_attention(q, Tensor(r), w_r)[0], q, w_r)

    def test_constant_regions_stay_off_the_tape(self):
        rng = np.random.default_rng(83)
        q, r, w_r = self.operands(rng, (2,))
        tape = Tape()
        query = tape.watch(Tensor(q, requires_grad=True))
        regions = Tensor(r)
        out, _ = region_attention(query, regions, Tensor(w_r, requires_grad=True))
        grads = tape.backward(total(out))
        assert regions.tape is None and regions not in grads
        assert grads[query].shape == q.shape

    def test_shape_errors(self):
        rng = np.random.default_rng(84)
        q, r, w_r = self.operands(rng, (2,))
        for args in ((q[0], r, w_r), (q, r[0], w_r), (q[:1], r, w_r), (q, r, w_r[:6]),
                     (q, r, w_r[:, :4])):
            with pytest.raises(ShapeError, match="capsule_region_attention"):
                region_attention(*(Tensor(a) for a in args))


class TestCapsuleRegionAttention:
    """Capsule pre-activations and region attention from one pass per grid."""

    def operands(self, rng, lead):
        # regions, w_cap, b_cap, query, w_r
        return (rand(rng, *lead, 49, 7) * 0.5, rand(rng, 7, 4) * 0.5, rand(rng, 4) * 0.1,
                rand(rng, *lead, 5), rand(rng, 7, 5) * 0.5)

    def joint(self, lead):
        def op(r, w, b, q, w_r):
            s, out, _ = tx.capsule_region_attention(r, w, b, q, w_r)
            return tx.concat([tx.reshape(s, lead + (49 * 4,)), out], axis=-1)

        return op

    def test_matches_separate_products(self):
        rng = np.random.default_rng(85)
        for lead in ((), (3,)):
            r, w, b, q, w_r = self.operands(rng, lead)
            s, out, weights = tx.capsule_region_attention(*(Tensor(a) for a in (r, w, b, q, w_r)))
            np.testing.assert_allclose(s.data, r @ w + b, rtol=0, atol=1e-12)
            want_out, want_weights = TestRegionAttention().explicit(q, r, w_r)
            np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-12)

    def test_gradients(self):
        # every input in float64, the regions as a tape leaf and as a constant
        rng = np.random.default_rng(86)
        for lead in ((), (3,)):
            r, w, b, q, w_r = self.operands(rng, lead)
            op = self.joint(lead)
            fd_check(op, r, w, b, q, w_r)
            fd_check(lambda w, b, q, w_r: op(Tensor(r), w, b, q, w_r), w, b, q, w_r)
            # without a bias, and with the capsule half alone
            fd_check(lambda r, w: tx.capsule_region_attention(r, w)[0], r, w)

    def test_one_output_used(self):
        # the second output hands its gradient to the first; each output
        # alone still reaches every input it depends on
        rng = np.random.default_rng(87)
        r, w, b, q, w_r = self.operands(rng, (2,))
        fd_check(lambda r, w, b: tx.capsule_region_attention(
            r, w, b, Tensor(q), Tensor(w_r, requires_grad=True))[0], r, w, b)
        fd_check(lambda r, q, w_r: tx.capsule_region_attention(
            r, Tensor(w, requires_grad=True), Tensor(b), q, w_r)[1], r, q, w_r)

    def test_taped_equals_untaped_bitwise(self):
        rng = np.random.default_rng(88)
        for dtype in (np.float64, np.float32):
            arrays = [a.astype(dtype) for a in self.operands(rng, (3,))]
            untaped = tx.capsule_region_attention(*(Tensor(a) for a in arrays))
            tape = Tape()
            taped = tx.capsule_region_attention(
                *(tape.watch(Tensor(a, requires_grad=True)) for a in arrays))
            assert taped[0].tape is tape and taped[1].tape is tape
            for got, want in zip(taped, untaped):
                got, want = plain(got), plain(want)
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(89)
        r, w, b, q, w_r = self.operands(rng, (4,))
        batch = tx.capsule_region_attention(*(Tensor(a) for a in (r, w, b, q, w_r)))
        for i in range(4):
            one = tx.capsule_region_attention(*(Tensor(a) for a in (r[i], w, b, q[i], w_r)))
            np.testing.assert_allclose(batch[0].data[i], one[0].data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch[1].data[i], one[1].data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch[2][i], one[2], rtol=0, atol=1e-12)

    def test_row_sources(self):
        # grids given as arrays or as reading functions give the result of a
        # regions tensor; untaped, every function after the first is handed
        # the array the previous one returned, and under a tape None
        rng = np.random.default_rng(90)
        r, w, b, q, w_r = self.operands(rng, (3,))
        want = tx.capsule_region_attention(*(Tensor(a) for a in (r, w, b, q, w_r)))
        for taped in (False, True):
            handed = []

            def reader(i):
                def read(out):
                    handed.append(out)
                    if out is None:
                        out = np.empty((49, 7))
                    out[...] = r[i]
                    return out

                return read

            tape = Tape()
            weights = [Tensor(a, requires_grad=taped) for a in (w, b, q, w_r)]
            if taped:
                weights = [tape.watch(t) for t in weights]
            got = tx.capsule_region_attention([reader(0), r[1], reader(2)], *weights)
            for g, x in zip(got, want):
                np.testing.assert_array_equal(plain(g), plain(x))
            assert handed[0] is None
            assert (handed[1] is None) if taped else (handed[1] is not None)
            if taped:
                grads = tape.backward(total(got[1]))
                want_tape = Tape()
                watched = [want_tape.watch(Tensor(a, requires_grad=True)) for a in (w, b, q, w_r)]
                out = tx.capsule_region_attention(Tensor(r), *watched)[1]
                want_grads = want_tape.backward(total(out))
                for t, u in zip(weights, watched):
                    np.testing.assert_allclose(grads[t], want_grads[u], rtol=0, atol=1e-12)

    def test_shape_errors(self):
        rng = np.random.default_rng(91)
        r, w, b, q, w_r = self.operands(rng, (2,))
        bad = [
            (r[0, 0], w, b, q, w_r),          # regions of rank 1
            (r, w[:6], b, q, w_r),            # capsule weight too narrow
            (r, w, b[:3], q, w_r),            # bias of the wrong width
            (r, w, b, q[0], w_r),             # unbatched query for a batch
            (r, None, b, q, w_r),             # a bias without a weight
            (r, w, b, q, None),               # a query without w_r
            (r, None, None, None, None),      # nothing to compute
        ]
        for args in bad:
            with pytest.raises(ShapeError, match="capsule_region_attention"):
                tx.capsule_region_attention(*(None if a is None else Tensor(a) for a in args))
        with pytest.raises(ShapeError, match="grid 1"):
            tx.capsule_region_attention([r[0], r[1, :48]], Tensor(w))


class TestGRUSequence:
    def weights(self, rng, d_in, d_h):
        shapes = {"w": (d_in, d_h), "u": (d_h, d_h), "b": (d_h,)}
        return [rand(rng, *shapes[n]) for n in "wubwubwub"]

    def test_matches_step_loop(self):
        rng = np.random.default_rng(75)
        for reverse in (False, True):
            x, ctx, h0 = rand(rng, 3, 2), rand(rng, 3), rand(rng, 4)
            ws = [Tensor(w) for w in self.weights(rng, 5, 4)]
            gru = GRUParams(*ws)
            x_ctx = np.concatenate([x, np.tile(ctx, (3, 1))], axis=1)
            got = tx.gru_sequence(Tensor(x), Tensor(h0), ws, context=Tensor(ctx),
                                  reverse=reverse).data
            np.testing.assert_allclose(got, gru_reference(x_ctx, gru, reverse, h0),
                                       atol=1e-12)
            got = tx.gru_sequence(Tensor(x), None, ws, context=Tensor(ctx),
                                  reverse=reverse).data
            np.testing.assert_allclose(got, gru_reference(x_ctx, gru, reverse), atol=1e-12)

    def test_shape_errors(self):
        rng = np.random.default_rng(76)
        ws = [Tensor(w) for w in self.weights(rng, 3, 2)]
        with pytest.raises(ShapeError):
            tx.gru_sequence(Tensor(np.zeros((2, 4))), None, ws)
        with pytest.raises(ShapeError):
            tx.gru_sequence(Tensor(np.zeros((0, 3))), None, ws)
        with pytest.raises(ShapeError):
            tx.gru_sequence(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), ws)

    def test_gradients(self):
        rng = np.random.default_rng(77)
        for m in (1, 3):
            for reverse in (False, True):
                def op(x, h0, ctx, *ws, reverse=reverse):
                    return tx.gru_sequence(x, h0, ws, context=ctx, reverse=reverse)

                fd_check(op, rand(rng, m, 2), rand(rng, 3), rand(rng, 2),
                         *self.weights(rng, 4, 3))

                def op_plain(x, *ws, reverse=reverse):
                    return tx.gru_sequence(x, None, ws, reverse=reverse)

                fd_check(op_plain, rand(rng, m, 4), *self.weights(rng, 4, 3))


    def test_batched_rows_with_ragged_masks(self):
        # padding at the end of a row leaves that row's real states exact,
        # in both directions, and carries no gradient into padded inputs
        rng = np.random.default_rng(79)
        lengths = [3, 1, 2]
        mask = np.arange(3) < np.array(lengths)[:, None]
        x, ctx, h0 = rand(rng, 3, 3, 2), rand(rng, 3, 3), rand(rng, 3, 4)
        ws = [Tensor(w) for w in self.weights(rng, 5, 4)]
        for reverse in (False, True):
            got = tx.gru_sequence(Tensor(x), Tensor(h0), ws, context=Tensor(ctx),
                                  reverse=reverse, mask=mask).data
            for i, n in enumerate(lengths):
                one = tx.gru_sequence(Tensor(x[i, :n]), Tensor(h0[i]), ws,
                                      context=Tensor(ctx[i]), reverse=reverse).data
                np.testing.assert_allclose(got[i, :n], one, atol=1e-12)

            def op(x, h0, ctx, *ws, reverse=reverse):
                return tx.gru_sequence(x, h0, ws, context=ctx, reverse=reverse, mask=mask)

            fd_check(op, x, h0, ctx, *self.weights(rng, 5, 4))
        with pytest.raises(ShapeError):
            tx.gru_sequence(Tensor(x), None, ws, context=Tensor(ctx[0]))


    def test_untaped_states_equal_taped(self):
        # the untaped run keeps no step buffers; its states must not change
        rng = np.random.default_rng(80)
        mask = np.arange(3) < np.array([3, 2])[:, None]
        x, ctx = rand(rng, 2, 3, 2), rand(rng, 2, 3)
        ws = self.weights(rng, 5, 4)
        for reverse in (False, True):
            plain = tx.gru_sequence(Tensor(x), None, [Tensor(w) for w in ws],
                                    context=Tensor(ctx), reverse=reverse, mask=mask)
            tape = Tape()
            leaves = [tape.watch(Tensor(w, requires_grad=True)) for w in ws]
            taped = tx.gru_sequence(Tensor(x), None, leaves, context=Tensor(ctx),
                                    reverse=reverse, mask=mask)
            assert taped.tape is tape and plain.tape is None
            np.testing.assert_array_equal(plain.data, taped.data)


class TestBiGRUSequence:
    weights = TestGRUSequence.weights

    def test_matches_two_directions(self):
        rng = np.random.default_rng(81)
        for batched in (False, True):
            shape = (3, 4, 2) if batched else (4, 2)
            x, ctx = rand(rng, *shape), rand(rng, *shape[:-2], 3)
            mask = (np.arange(4) < np.array([4, 1, 3])[:, None]) if batched else None
            fwd = [Tensor(w) for w in self.weights(rng, 5, 4)]
            bwd = [Tensor(w) for w in self.weights(rng, 5, 4)]
            got = tx.bigru_sequence(Tensor(x), fwd, bwd, context=Tensor(ctx), mask=mask).data
            want = np.concatenate([
                tx.gru_sequence(Tensor(x), None, ws, context=Tensor(ctx), reverse=rev,
                                mask=mask).data
                for ws, rev in ((fwd, False), (bwd, True))], axis=-1)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(82)
        mask = np.arange(3) < np.array([3, 1])[:, None]

        def op(x, ctx, *ws):
            return tx.bigru_sequence(x, ws[:9], ws[9:], context=ctx)

        def op_masked(x, ctx, *ws):
            return tx.bigru_sequence(x, ws[:9], ws[9:], context=ctx, mask=mask)

        for m in (1, 3):
            fd_check(op, rand(rng, m, 2), rand(rng, 2), *self.weights(rng, 4, 3),
                     *self.weights(rng, 4, 3))
        fd_check(op_masked, rand(rng, 2, 3, 2), rand(rng, 2, 2), *self.weights(rng, 4, 3),
                 *self.weights(rng, 4, 3))

    def test_shape_errors(self):
        rng = np.random.default_rng(83)
        fwd = [Tensor(w) for w in self.weights(rng, 3, 2)]
        bwd = [Tensor(w) for w in self.weights(rng, 3, 4)]
        with pytest.raises(ShapeError, match="bigru_sequence"):
            tx.bigru_sequence(Tensor(np.zeros((2, 3))), fwd, bwd)
        with pytest.raises(ShapeError, match="bigru_sequence"):
            tx.bigru_sequence(Tensor(np.zeros((0, 3))), fwd, fwd)


class TestCrossEntropy:
    def test_value_is_mean_negative_log_of_picks(self):
        probs = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        got = tx.cross_entropy(Tensor(probs), [1, 2])
        assert got.shape == ()
        np.testing.assert_allclose(got.data, -(math.log(0.5) + math.log(0.3)) / 2,
                                   rtol=1e-12)
        one = tx.cross_entropy(Tensor(probs[0]), [2])
        np.testing.assert_allclose(one.data, -math.log(0.3), rtol=1e-12)

    def test_clamped_pick_gets_zero_gradient(self):
        tape = Tape()
        probs = tape.watch(Tensor(np.array([[0.0, 0.5, 0.5], [0.25, 0.5, 0.25]]),
                                  requires_grad=True))
        loss = tx.cross_entropy(probs, [0, 0])
        np.testing.assert_allclose(loss.data, -(math.log(1e-12) + math.log(0.25)) / 2,
                                   rtol=1e-12)
        g = tape.backward(loss)[probs]
        np.testing.assert_allclose(g, [[0.0, 0.0, 0.0], [-0.5 / 0.25, 0.0, 0.0]])

    def test_gradients(self):
        rng = np.random.default_rng(84)
        probs = rng.uniform(0.1, 1.0, (4, 3))
        fd_check(lambda p: tx.cross_entropy(p, [0, 2, 1, 2]), probs)
        fd_check(lambda p: tx.cross_entropy(p, [1]), probs[0])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            tx.cross_entropy(Tensor(np.full((2, 3), 0.3)), [0])
        with pytest.raises(ShapeError):
            tx.cross_entropy(Tensor(np.full(3, 0.3)), [0, 1])
        with pytest.raises(ShapeError):
            tx.cross_entropy(Tensor(np.full((1, 3), 0.3)), [3])
        with pytest.raises(ShapeError):
            tx.cross_entropy(Tensor(np.full((1, 3), 0.3)), [-1])


class TestFdGradient:
    def test_float32_inputs(self):
        x = np.array([1.0, 2.0], dtype=np.float32)
        (g,) = fd_gradient(lambda a: float((a * a).sum()), [x])
        np.testing.assert_allclose(g, [2.0, 4.0], rtol=1e-6)
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_float64_inputs_left_unchanged(self):
        x = np.array([[0.5, -1.0], [3.0, 0.0]])
        y = np.array([2.0, -3.0])
        before = x.copy()
        gx, gy = fd_gradient(lambda a, b: float((a @ b).sum() + (b ** 3).sum()), [x, y])
        np.testing.assert_allclose(gx, np.tile(y, (2, 1)), rtol=1e-6)
        np.testing.assert_allclose(gy, x.sum(axis=0) + 3.0 * y ** 2, rtol=1e-6)
        np.testing.assert_array_equal(x, before)


class TestTape:
    def test_ops_without_tape_record_nothing(self):
        a = Tensor(np.ones((2, 2)))
        out = tx.matmul(a, a)
        assert out.tape is None and out.node is None

    def test_watch_rejects_frozen(self):
        with pytest.raises(TapeError):
            Tape().watch(Tensor(np.ones(2)))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.watch(Tensor(np.ones((2, 2)), requires_grad=True))
        b = t2.watch(Tensor(np.ones((2, 2)), requires_grad=True))
        with pytest.raises(TapeError):
            tx.add(a, b)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        a = tape.watch(Tensor(np.ones(3), requires_grad=True))
        with pytest.raises(ShapeError):
            tape.backward(tx.scale(a, 2.0))

    def test_detached_loss_rejected(self):
        tape = Tape()
        tape.watch(Tensor(np.ones(3), requires_grad=True))
        with pytest.raises(TapeError):
            tape.backward(Tensor(np.array(1.0)))

    def test_frozen_leaf_gets_no_gradient(self):
        tape = Tape()
        a = tape.watch(Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True))
        frozen = Tensor(np.full((2, 2), 3.0, dtype=np.float64))
        loss = total(tx.matmul(a, frozen))
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads[a], np.ones((2, 2)) @ frozen.data.T)
        assert frozen not in grads
        assert grads.get(frozen) is None

    def test_gradient_flows_through_shared_subgraph(self):
        # y = sum(x) + sum(x) must give gradient 2 everywhere
        tape = Tape()
        x = tape.watch(Tensor(np.ones(4, dtype=np.float64), requires_grad=True))
        s = total(x)
        g = tape.backward(tx.add(s, s))[x]
        np.testing.assert_allclose(g, 2.0)

    def test_chained_ops_full_check(self):
        rng = np.random.default_rng(59)

        def net(a, b, c):
            h = tx.softmax(tx.matmul(a, b))
            return tx.mean_pool(tx.matmul(h, c))

        fd_check(net, rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5, 4))
