import math

import numpy as np
import pytest
from conftest import fd_check, mha_loop_reference, rand, softmax_rows

from efnet import layers as ly
from efnet import tensor as tx
from efnet.layers import (
    REGION_COUNT,
    CapsuleParams,
    ConfigError,
    GRUParams,
    MHAParams,
    PositionTable,
)
from efnet.tensor import ShapeError, Tape, Tensor


def mha_create(rng, heads, d_q, d_kv, d_model):
    return MHAParams.create(rng, heads, d_q, d_kv, d_model, dtype=np.float64)


class TestScaledDotAttention:
    def test_single_key_forces_weight_one(self):
        rng = np.random.default_rng(0)
        q = Tensor(rand(rng, 3, 4))
        k = Tensor(rand(rng, 1, 4))
        v = Tensor(rand(rng, 1, 5))
        out, w = ly.scaled_dot_attention(q, k, v, return_weights=True)
        np.testing.assert_allclose(w.data, 1.0)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 3, axis=0))

    def test_identity_queries_and_keys(self):
        # q = k = I2 gives first-row scores [1/sqrt(2), 0]
        eye = Tensor(np.eye(2))
        v = Tensor(np.arange(4.0).reshape(2, 2))
        _, w = ly.scaled_dot_attention(eye, eye, v, return_weights=True)
        expected = softmax_rows(np.array([[1.0 / math.sqrt(2.0), 0.0]]))[0]
        np.testing.assert_allclose(w.data[0], expected, rtol=1e-6)
        np.testing.assert_allclose(w.data[1], expected[::-1], rtol=1e-6)

    def test_aligned_scaled_query_saturates(self):
        keys = np.eye(3)
        v = np.diag([1.0, 2.0, 3.0])
        q = np.array([[0.0, 1000.0, 0.0]])
        out = ly.scaled_dot_attention(Tensor(q), Tensor(keys), Tensor(v)).data
        np.testing.assert_allclose(out[0], v[1], atol=1e-4)

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            nq, nk, d = rng.integers(1, 7, size=3)
            _, w = ly.scaled_dot_attention(
                Tensor(rand(rng, nq, d)),
                Tensor(rand(rng, nk, d)),
                Tensor(rand(rng, nk, d)),
                return_weights=True,
            )
            np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_errors(self):
        rng = np.random.default_rng(2)
        q, k, v = Tensor(rand(rng, 2, 3)), Tensor(rand(rng, 4, 5)), Tensor(rand(rng, 4, 3))
        with pytest.raises(ShapeError, match="width"):
            ly.scaled_dot_attention(q, k, v)
        k2 = Tensor(rand(rng, 4, 3))
        v2 = Tensor(rand(rng, 3, 3))
        with pytest.raises(ShapeError, match="count"):
            ly.scaled_dot_attention(q, k2, v2)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        fd_check(ly.scaled_dot_attention, rand(rng, 3, 4), rand(rng, 5, 4), rand(rng, 5, 2))


class TestMultiHead:
    def test_single_head_identity_reduces_to_plain_attention(self):
        rng = np.random.default_rng(4)
        q, k, v = rand(rng, 3, 4), rand(rng, 5, 4), rand(rng, 5, 4)
        eye = [Tensor(np.eye(4), requires_grad=True)]
        params = MHAParams(wq=list(eye), wk=list(eye), wv=list(eye))
        got = ly.multi_head(Tensor(q), Tensor(k), Tensor(v), params).data
        want = ly.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_output_shape(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            heads = int(rng.integers(1, 5))
            d_model = heads * int(rng.integers(1, 5))
            nq, nk, dq, dkv = rng.integers(1, 7, size=4)
            params = mha_create(rng, heads, dq, dkv, d_model)
            out = ly.multi_head(
                Tensor(rand(rng, nq, dq)), Tensor(rand(rng, nk, dkv)),
                Tensor(rand(rng, nk, dkv)), params,
            )
            assert out.shape == (nq, d_model)

    def test_matches_per_head_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            q, k, v = rand(rng, 3, 4), rand(rng, 3, 4), rand(rng, 3, 4)
            params = mha_create(rng, 2, 4, 4, 6)
            got = ly.multi_head(Tensor(q), Tensor(k), Tensor(v), params).data
            want = mha_loop_reference(
                q, k, v,
                [w.data for w in params.wq],
                [w.data for w in params.wk],
                [w.data for w in params.wv],
            )
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_loose_heads_packed_and_rebound_head_read(self):
        rng = np.random.default_rng(9)
        q, k, v = rand(rng, 3, 4), rand(rng, 5, 6), rand(rng, 5, 6)
        wqs = [rand(rng, 4, 2) for _ in range(2)]
        wks, wvs = ([rand(rng, 6, 2) for _ in range(2)] for _ in range(2))
        params = MHAParams(wq=[Tensor(w) for w in wqs], wk=[Tensor(w) for w in wks],
                           wv=[Tensor(w) for w in wvs])
        blocks = params.buffer.sync().blocks
        for block, role in zip(blocks, (params.wq, params.wk, params.wv)):
            for h, w in enumerate(role):
                assert np.shares_memory(w.data, block) and w.data.flags.c_contiguous
        got = ly.multi_head(Tensor(q), Tensor(k), Tensor(v), params).data
        np.testing.assert_allclose(got, mha_loop_reference(q, k, v, wqs, wks, wvs),
                                   atol=1e-12)
        wvs[1] = wvs[1] * 3.0
        params.wv[1].data = wvs[1].copy()
        got = ly.multi_head(Tensor(q), Tensor(k), Tensor(v), params).data
        np.testing.assert_allclose(got, mha_loop_reference(q, k, v, wqs, wks, wvs),
                                   atol=1e-12)
        assert np.shares_memory(params.wv[1].data, blocks[2])

    def test_create_validates(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ConfigError, match="divisible"):
            MHAParams.create(rng, 5, 8, 8, 32)
        with pytest.raises(ConfigError):
            MHAParams.create(rng, 0, 8, 8, 32)
        with pytest.raises(ConfigError):
            MHAParams(wq=[Tensor(np.eye(2))], wk=[], wv=[])
        with pytest.raises(ConfigError, match="d_head"):
            MHAParams(
                wq=[Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3)))],
                wk=[Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3)))],
                wv=[Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3)))],
            )
        with pytest.raises(ConfigError, match="input width"):
            MHAParams(
                wq=[Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))],
                wk=[Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2)))],
                wv=[Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2)))],
            )

    def test_gradients(self):
        rng = np.random.default_rng(8)
        q, k, v = rand(rng, 3, 4), rand(rng, 5, 6), rand(rng, 5, 6)
        ws = [rand(rng, 4, 2), rand(rng, 4, 2)], [rand(rng, 6, 2), rand(rng, 6, 2)], [rand(rng, 6, 2), rand(rng, 6, 2)]

        def op(q, k, v, q0, q1, k0, k1, v0, v1):
            return ly.multi_head(q, k, v, MHAParams(wq=[q0, q1], wk=[k0, k1], wv=[v0, v1]))

        fd_check(op, q, k, v, ws[0][0], ws[0][1], ws[1][0], ws[1][1], ws[2][0], ws[2][1])


class TestMHSA:
    def test_single_token_passes_projected_value(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 1, 6)
        params = mha_create(rng, 3, 6, 6, 6)
        out = ly.mhsa(Tensor(x), params).data
        want = np.concatenate([x @ w.data for w in params.wv], axis=-1)
        np.testing.assert_allclose(out, want, rtol=1e-6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        x = rand(rng, 4, 6)
        params = mha_create(rng, 2, 6, 6, 6)
        base = ly.mhsa(Tensor(x), params).data
        perm = np.array([0, 2, 1, 3])
        swapped = ly.mhsa(Tensor(x[perm]), params).data
        np.testing.assert_allclose(swapped, base[perm], atol=1e-10)

    def test_masked_token_gets_no_attention(self):
        rng = np.random.default_rng(11)
        x = rand(rng, 5, 4)
        params = mha_create(rng, 2, 4, 4, 4)
        mask = np.array([True, True, False, True, False])
        _, weights = ly.mhsa(Tensor(x), params, mask=mask, return_weights=True)
        for w in weights:
            assert (w.data[:, ~mask] == 0.0).all()
            np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)


class TestGRUCell:
    def zero_params(self, d_in, d_h):
        z = lambda *s: Tensor(np.zeros(s, dtype=np.float64), requires_grad=True)
        return GRUParams(
            wz=z(d_in, d_h), uz=z(d_h, d_h), bz=z(d_h),
            wr=z(d_in, d_h), ur=z(d_h, d_h), br=z(d_h),
            wh=z(d_in, d_h), uh=z(d_h, d_h), bh=z(d_h),
        )

    def test_zero_params_halve_state(self):
        rng = np.random.default_rng(12)
        x = Tensor(rand(rng, 4))
        h = Tensor(rand(rng, 3))
        out = ly.gru_cell(x, h, self.zero_params(4, 3))
        np.testing.assert_allclose(out.data, 0.5 * h.data)

    def test_zero_everything_stays_zero(self):
        out = ly.gru_cell(
            Tensor(np.zeros(4)), Tensor(np.zeros(3)), self.zero_params(4, 3)
        )
        np.testing.assert_allclose(out.data, 0.0)

    def test_state_stays_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            params = GRUParams.create(rng, 4, 3, dtype=np.float64)
            h = rng.uniform(-3.0, 3.0, size=3)
            out = ly.gru_cell(Tensor(rand(rng, 4)), Tensor(h), params).data
            assert np.abs(out).max() <= max(np.abs(h).max(), 1.0) + 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(14)
        params = GRUParams.create(rng, 4, 3)
        with pytest.raises(ShapeError):
            ly.gru_cell(Tensor(np.zeros(5)), Tensor(np.zeros(3)), params)
        with pytest.raises(ShapeError, match="rank-1"):
            ly.gru_cell(Tensor(np.zeros((1, 4))), Tensor(np.zeros(3)), params)

    def test_gradients(self):
        rng = np.random.default_rng(15)
        names = ["wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh"]
        shapes = {"w": (4, 3), "u": (3, 3), "b": (3,)}
        arrays = [rand(rng, *shapes[n[0]]) for n in names]

        def op(x, h, *ps):
            return ly.gru_cell(x, h, GRUParams(**dict(zip(names, ps))))

        fd_check(op, rand(rng, 4), rand(rng, 3), *arrays)


class TestBiGRU:
    def make(self, rng, d_in, d_h):
        return (
            GRUParams.create(rng, 2 * d_in, d_h, dtype=np.float64),
            GRUParams.create(rng, 2 * d_in, d_h, dtype=np.float64),
        )

    def test_single_position_halves(self):
        rng = np.random.default_rng(16)
        fwd, bwd = self.make(rng, 4, 3)
        target = rand(rng, 1, 4)
        aspect = rand(rng, 4)
        out = ly.bigru_encode(Tensor(target), Tensor(aspect), fwd, bwd)
        assert out.shape == (1, 6)
        x = Tensor(np.concatenate([target[0], aspect]))
        h0 = Tensor(np.zeros(3, dtype=np.float64))
        np.testing.assert_allclose(out.data[0, :3], ly.gru_cell(x, h0, fwd).data, rtol=1e-10)
        np.testing.assert_allclose(out.data[0, 3:], ly.gru_cell(x, h0, bwd).data, rtol=1e-10)

    def test_reversal_swaps_directions(self):
        # reversed input with swapped direction params reproduces the rows
        # in reverse order, with forward/backward halves exchanged
        rng = np.random.default_rng(17)
        fwd, bwd = self.make(rng, 4, 3)
        target = rand(rng, 5, 4)
        aspect = rand(rng, 4)
        base = ly.bigru_encode(Tensor(target), Tensor(aspect), fwd, bwd).data
        flipped = ly.bigru_encode(Tensor(target[::-1].copy()), Tensor(aspect), bwd, fwd).data
        np.testing.assert_allclose(flipped[:, :3], base[::-1, 3:], atol=1e-12)
        np.testing.assert_allclose(flipped[:, 3:], base[::-1, :3], atol=1e-12)

    def test_output_shape_any_aspect(self):
        rng = np.random.default_rng(18)
        fwd, bwd = self.make(rng, 4, 3)
        for _ in range(5):
            m = int(rng.integers(1, 6))
            out = ly.bigru_encode(Tensor(rand(rng, m, 4)), Tensor(rand(rng, 4)), fwd, bwd)
            assert out.shape == (m, 6)

    def test_empty_target_rejected(self):
        rng = np.random.default_rng(19)
        fwd, bwd = self.make(rng, 4, 3)
        with pytest.raises(ShapeError):
            ly.bigru_encode(Tensor(np.zeros((0, 4))), Tensor(np.zeros(4)), fwd, bwd)

    def test_gradients(self):
        rng = np.random.default_rng(20)
        names = ["wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh"]
        shapes = {"w": (6, 2), "u": (2, 2), "b": (2,)}
        fwd_arrays = [rand(rng, *shapes[n[0]]) for n in names]
        bwd_arrays = [rand(rng, *shapes[n[0]]) for n in names]

        def op(target, aspect, *ps):
            fwd = GRUParams(**dict(zip(names, ps[:9])))
            bwd = GRUParams(**dict(zip(names, ps[9:])))
            return ly.bigru_encode(target, aspect, fwd, bwd)

        fd_check(op, rand(rng, 3, 3), rand(rng, 3), *fwd_arrays, *bwd_arrays)


class TestCapsuleLayer:
    def test_zero_region_maps_to_zero(self):
        rng = np.random.default_rng(21)
        params = CapsuleParams.create(rng, 8, 4)
        regions = rand(rng, REGION_COUNT, 8)
        regions[7] = 0.0
        out = ly.capsule_layer(Tensor(regions), params).data
        np.testing.assert_allclose(out[7], 0.0)

    def test_unit_projection_norm_half(self):
        params = CapsuleParams(w=Tensor(np.eye(4), requires_grad=True))
        regions = np.zeros((REGION_COUNT, 4))
        regions[0, 0] = 1.0
        regions[1:] = 0.3
        out = ly.capsule_layer(Tensor(regions), params).data
        np.testing.assert_allclose(np.linalg.norm(out[0]), 0.5, atol=1e-6)

    def test_norms_below_one_direction_kept(self):
        rng = np.random.default_rng(22)
        params = CapsuleParams.create(rng, 16, 5, dtype=np.float64)
        regions = rand(rng, REGION_COUNT, 16) * 5.0
        out = ly.capsule_layer(Tensor(regions), params).data
        s = regions @ params.w.data + params.b.data
        norms = np.linalg.norm(out, axis=1)
        assert (norms < 1.0).all()
        cos = (out * s).sum(axis=1) / (np.linalg.norm(s, axis=1) * norms)
        np.testing.assert_allclose(cos, 1.0, atol=1e-6)

    def test_wrong_region_shape(self):
        rng = np.random.default_rng(23)
        params = CapsuleParams.create(rng, 8, 4)
        with pytest.raises(ShapeError, match="49"):
            ly.capsule_layer(Tensor(np.zeros((48, 8))), params)
        with pytest.raises(ShapeError):
            ly.capsule_layer(Tensor(np.zeros((REGION_COUNT, 9))), params)

    def test_gradients(self):
        rng = np.random.default_rng(24)

        def op(regions, w, b):
            return ly.capsule_layer(regions, CapsuleParams(w=w, b=b))

        fd_check(op, rand(rng, REGION_COUNT, 6) * 0.5, rand(rng, 6, 4), rand(rng, 4))


class TestPositionEmbeddings:
    def enumerate_distances(self, start, end, n, clip):
        out = []
        for i in range(n):
            if start <= i < end:
                d = 0
            elif i < start:
                d = i - start
            else:
                d = i - (end - 1)
            out.append(max(-clip, min(clip, d)))
        return out

    def test_known_enumeration(self):
        rng = np.random.default_rng(25)
        table = PositionTable.create(rng, clip=6, d_p=3)
        out = ly.position_embeddings((2, 3), 5, table).data
        dists = self.enumerate_distances(2, 3, 5, 6)
        assert dists == [-2, -1, 0, 1, 2]
        np.testing.assert_allclose(out, table.rows.data[np.array(dists) + 6])

    def test_in_span_rows_share_distance_zero(self):
        rng = np.random.default_rng(26)
        table = PositionTable.create(rng, clip=4, d_p=3)
        out = ly.position_embeddings((1, 4), 6, table).data
        zero_row = table.rows.data[4]
        for i in (1, 2, 3):
            np.testing.assert_allclose(out[i], zero_row)

    def test_clipping_at_boundary(self):
        rng = np.random.default_rng(27)
        table = PositionTable.create(rng, clip=3, d_p=2)
        n = 15
        out = ly.position_embeddings((0, 1), n, table).data
        np.testing.assert_allclose(out[-1], table.rows.data[-1])
        dists = self.enumerate_distances(0, 1, n, 3)
        np.testing.assert_allclose(out, table.rows.data[np.array(dists) + 3])

    def test_random_spans_match_enumeration(self):
        rng = np.random.default_rng(28)
        table = PositionTable.create(rng, clip=5, d_p=2)
        for _ in range(25):
            n = int(rng.integers(1, 20))
            start = int(rng.integers(0, n))
            end = int(rng.integers(start + 1, n + 1))
            out = ly.position_embeddings((start, end), n, table).data
            dists = self.enumerate_distances(start, end, n, 5)
            np.testing.assert_allclose(out, table.rows.data[np.array(dists) + 5])

    def test_invalid_spans(self):
        rng = np.random.default_rng(29)
        table = PositionTable.create(rng, clip=3, d_p=2)
        for span in ((-1, 2), (2, 2), (3, 2), (0, 7)):
            with pytest.raises(ShapeError, match="span"):
                ly.position_embeddings(span, 6, table)
        with pytest.raises(ConfigError):
            PositionTable.create(rng, clip=0, d_p=2)

    def test_gradients(self):
        rng = np.random.default_rng(30)

        def op(rows):
            return ly.position_embeddings((1, 3), 6, PositionTable(rows=rows, clip=4))

        fd_check(op, rand(rng, 9, 3))
