import dataclasses
import gc
import math
import os
import stat
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    fd_check,
    forward_loss_reference,
    loop_collate,
    rand,
    ragged_samples,
    softmax_rows,
    tiny_config,
    tiny_params,
    tiny_sample,
)
from test_acceptance import PAD_APPEND_TOL, REF_TOL, overfit_config

from efnet import data as dio
from efnet import layers as ly
from efnet import model as md
from efnet import tensor as tx
from efnet.data import FEATURE_SHAPE, FormatError, InputError
from efnet.layers import ConfigError, InternalError, MHAParams, ParamBuffer
from efnet.model import CheckpointMismatch, EFNetParams, ModelConfig
from efnet.tensor import ShapeError, Tape, Tensor


class TestModelConfig:
    def test_defaults_validate(self):
        ModelConfig().validate()

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="divide"):
            tiny_config(head_count=5).validate()
        tiny_config(head_count=4).validate()

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="dropout"):
            tiny_config(dropout=1.0).validate()
        with pytest.raises(ConfigError, match="l2_lambda"):
            tiny_config(l2_lambda=-0.1).validate()
        with pytest.raises(ConfigError, match="precision"):
            tiny_config(precision="half").validate()
        with pytest.raises(ConfigError, match="embed_dim"):
            tiny_config(embed_dim=0).validate()

    @pytest.mark.parametrize("overrides", [{}, {"text_only": True}, {"head_count": 1},
                                           {"embed_dim": 6, "max_len": 3, "att_dim": 5}])
    def test_parameter_count_is_the_built_model_without_embeddings(self, overrides):
        cfg = tiny_config(**overrides)
        params = tiny_params(cfg, np.random.default_rng(5))
        built = sum(p.data.size for _, p in params.named_parameters())
        assert cfg.parameter_count() == built - params.embed.data.size

    @pytest.mark.parametrize("field", ["embed_dim", "hidden_dim", "capsule_dim", "att_dim",
                                       "max_len"])
    def test_unallocatable_model_names_the_width(self, field):
        cfg = tiny_config(head_count=1, **{field: 10**9})
        with pytest.raises(ConfigError, match=rf"^{field} = 1000000000 makes a model of "):
            cfg.validate()
        if field in ("capsule_dim", "att_dim"):
            dataclasses.replace(cfg, text_only=True).validate()

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("l2_lambda", math.inf), ("l2_lambda", math.nan),
    ])
    def test_seed_and_l2_ranges(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must be"):
            tiny_config(**{field: value}).validate()

    def test_dtype_and_widths(self):
        cfg = tiny_config()
        assert cfg.dtype == np.float64
        assert ModelConfig().dtype == np.float32
        assert cfg.context_width == 16
        assert cfg.target_width == 16
        assert cfg.fused_width == 16 + 16 + 8
        assert tiny_config(text_only=True).fused_width == 32


class TestParams:
    def test_names_unique_and_stable(self):
        rng = np.random.default_rng(0)
        params = tiny_params(tiny_config(), rng)
        names = [n for n, _ in params.named_parameters()]
        assert len(names) == len(set(names))
        assert names[0] == "embed.table" and names[-1] == "cls.b"
        assert "capsule.w" in names and "img_attn.w_r" in names

    def test_text_only_has_no_visual_entries(self):
        rng = np.random.default_rng(1)
        params = tiny_params(tiny_config(text_only=True), rng)
        names = [n for n, _ in params.named_parameters()]
        assert not any(n.startswith(("capsule.", "img_attn.", "inter_img.")) for n in names)
        assert params.capsule is None and params.inter_img is None

    def test_embed_width_checked(self):
        rng = np.random.default_rng(2)
        bad = Tensor(np.zeros((10, 5)), requires_grad=True)
        with pytest.raises(ConfigError, match="embedding"):
            EFNetParams.create(tiny_config(), rng, bad)

    def test_dtype_applied(self):
        rng = np.random.default_rng(3)
        params = tiny_params(tiny_config(precision="single"), rng)
        assert all(p.data.dtype == np.float32 for _, p in params.named_parameters())

    @pytest.mark.parametrize("precision, given", [("single", np.float64),
                                                  ("double", np.float32)])
    def test_embedding_matrix_of_the_other_dtype_is_converted(self, precision, given):
        cfg = tiny_config(precision=precision)
        matrix = np.random.default_rng(4).uniform(-0.1, 0.1, (10, cfg.embed_dim)).astype(given)
        given_tensor = Tensor(matrix, requires_grad=True)
        params = EFNetParams.create(cfg, np.random.default_rng(5), given_tensor)
        assert params.embed is not given_tensor and params.embed.requires_grad
        assert all(p.data.dtype == cfg.dtype for _, p in params.named_parameters())
        np.testing.assert_array_equal(params.embed.data, matrix.astype(cfg.dtype))
        assert given_tensor.data.dtype == given


def same_array(a, b):
    """``a`` and ``b`` view the same memory with the same layout."""
    return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.shape == b.shape and a.strides == b.strides and a.dtype == b.dtype)


class TestParamBuffer:
    @pytest.mark.parametrize("text_only", [False, True])
    def test_every_parameter_is_a_contiguous_view_of_the_buffer(self, text_only):
        params = tiny_params(tiny_config(text_only=text_only), np.random.default_rng(40))
        flat = params.buffer.flat
        named = params.named_parameters()
        assert flat.size == sum(p.data.size for _, p in named)
        for name, p in named:
            assert p.data.flags.c_contiguous, name
            assert np.shares_memory(p.data, flat), name
            assert p.data.reshape(-1).base is not None, name
        mhas = [params.ctx_mhsa, params.inter_ctx, params.fusion]
        mhas += [] if text_only else [params.inter_img]
        for mha in mhas:
            blocks = mha.buffer.blocks
            assert all(np.shares_memory(b, flat) for b in blocks)
            for block, role in zip(blocks, (mha.wq, mha.wk, mha.wv)):
                assert block.shape == (len(role),) + role[0].shape
                for h, w in enumerate(role):
                    assert same_array(w.data, block[h])

    @pytest.mark.parametrize("text_only", [False, True])
    def test_named_parameters_are_the_buffer_in_offset_order(self, text_only):
        # one order: the names, the tensors and their rows of the flat array
        params = tiny_params(tiny_config(text_only=text_only), np.random.default_rng(43))
        buffer, named = params.buffer, params.named_parameters()
        assert [name for name, _ in named] == [t.name for t in buffer.tensors]
        assert all(p is t for (_, p), t in zip(named, buffer.tensors, strict=True))
        base, lo = buffer.flat.__array_interface__["data"][0], 0
        for name, p in named:
            assert p.data.__array_interface__["data"][0] - base == lo, name
            lo += p.data.nbytes
        assert lo == buffer.flat.nbytes

    def test_l2_reads_a_rebound_parameter(self):
        cfg = tiny_config(l2_lambda=1.0)
        rng = np.random.default_rng(41)
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)
        params.embed.data = params.embed.data * 2
        params.fusion.wk[1].data = params.fusion.wk[1].data - 0.5
        want = sum(np.vdot(p.data, p.data) for _, p in params.named_parameters())
        out = md.forward(sample, params, cfg)
        ce = md.loss([out.probs], [sample.label], params, 0.0).data
        got = md.loss([out.probs], [sample.label], params, 1.0).data - ce
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert np.shares_memory(params.embed.data, params.buffer.blocks[0])

    def test_assignment_writes_the_buffer_row(self):
        params = tiny_params(tiny_config(), np.random.default_rng(44))
        values = params.fusion.wk[1].data.copy()
        params.fusion.wk[1].data = values * 2
        want = np.concatenate([p.data for p in params.buffer.tensors], axis=None)
        np.testing.assert_array_equal(params.buffer.flat, want)
        np.testing.assert_array_equal(params.fusion.blocks[1][0, 1], values * 2)

    def test_rebind_to_another_shape_or_dtype_is_internal_error(self):
        cfg = tiny_config(l2_lambda=1.0)
        rng = np.random.default_rng(42)
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)
        out = md.forward(sample, params, cfg)
        before = params.buffer.flat.copy()
        # each rejected assignment raises at once and leaves the row as it was
        with pytest.raises(InternalError, match=r"cls\.b is float64 of shape \(4,\)"):
            params.cls_b.data = np.zeros(4)
        with pytest.raises(InternalError, match="cls.b is float32"):
            params.cls_b.data = np.zeros(3, dtype=np.float32)
        np.testing.assert_array_equal(params.buffer.flat, before)
        params.cls_b.data = np.zeros(3)
        before = params.buffer.flat.copy()
        with pytest.raises(InternalError, match=r"ctx_mhsa\.h0\.wv"):
            params.ctx_mhsa.wv[0].data = params.ctx_mhsa.wv[0].data[:, :1]
        np.testing.assert_array_equal(params.buffer.flat, before)
        np.testing.assert_array_equal(md.forward(sample, params, cfg).interaction_weights,
                                      out.interaction_weights)


class TestEncodeContext:
    # stage tests run at B=1: one batch row, masks with a leading batch axis
    def setup_method(self):
        self.rng = np.random.default_rng(4)
        self.mha = MHAParams.create(self.rng, 2, 12, 12, 12, dtype=np.float64)

    def test_shapes_and_single_row_mean(self):
        w = Tensor(rand(self.rng, 1, 1, 6))
        p = Tensor(rand(self.rng, 1, 1, 6))
        h, avg = md.encode_context(w, p, np.array([[True]]), self.mha)
        assert h.shape == (1, 1, 12)
        assert avg.shape == (1, 12)
        np.testing.assert_allclose(avg.data[0], h.data[0, 0])

    def test_masked_token_influences_nothing(self):
        w = rand(self.rng, 1, 5, 6)
        p = rand(self.rng, 1, 5, 6)
        mask = np.array([[True, True, False, True, True]])
        h1, avg1 = md.encode_context(Tensor(w), Tensor(p), mask, self.mha)
        w2 = w.copy()
        w2[0, 2] = 99.0
        h2, avg2 = md.encode_context(Tensor(w2), Tensor(p), mask, self.mha)
        np.testing.assert_array_equal(avg1.data, avg2.data)
        np.testing.assert_array_equal(h1.data[mask], h2.data[mask])


def plain(x):
    return x.data if isinstance(x, Tensor) else x


class TestEncodeVisual:
    """The image stage: capsules, query and region attention in one pass
    over each grid."""

    def stage(self, seed, dtype=np.float64, batch=1):
        rng = np.random.default_rng(seed)
        cfg = tiny_config(precision="double" if dtype == np.float64 else "single")
        params = tiny_params(cfg, rng)
        h_ta = Tensor(rand(rng, batch, 3, cfg.target_width).astype(dtype))
        return rng, params, h_ta

    def test_zero_features_squash_to_zero(self):
        _, params, h_ta = self.stage(5)
        h_i, h_att, weights = md.encode_visual([np.zeros(FEATURE_SHAPE)], h_ta, params)
        assert h_i.shape == (1, 49, 4) and h_att.shape == (1, 8) and weights.shape == (1, 49)
        np.testing.assert_array_equal(h_i.data, 0.0)
        # zero regions score alike, so the attention is uniform
        np.testing.assert_allclose(weights, 1.0 / 49.0, rtol=1e-12)

    def test_row_major_region_order(self):
        # cell (r, c) must land at flat region index 7r + c: with one feature
        # channel set to the cell's index, the capsule of region i is the
        # squashed i-th multiple of that channel's weight row
        feats = np.zeros(FEATURE_SHAPE, dtype=np.float64)
        for r in range(7):
            for c in range(7):
                feats[r, c, 0] = 7 * r + c
        _, params, h_ta = self.stage(6)
        params.capsule.b.data[...] = 0.0
        h_i, _, _ = md.encode_visual([feats], h_ta, params)
        row = params.capsule.w.data[0]
        for flat in range(49):
            s = flat * row
            norm2 = s @ s
            np.testing.assert_allclose(h_i.data[0, flat], s * np.sqrt(norm2) / (1.0 + norm2),
                                       rtol=1e-12, atol=1e-300)

    def test_accepts_path(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 1, FEATURE_SHAPE).astype(np.float32)
        path = tmp_path / "x.efvf"
        dio.write_image_features(path, values)
        # double precision casts what it reads; single reads into a row buffer
        for dtype in (np.float64, np.float32):
            _, params, h_ta = self.stage(7, dtype, batch=2)
            from_path = md.encode_visual([str(path), values], h_ta, params)
            from_array = md.encode_visual([values, values], h_ta, params)
            for got, want in zip(from_path, from_array):
                np.testing.assert_array_equal(plain(got), plain(want))
            # a single grid runs without the batch axis
            one = md.encode_visual(str(path), Tensor(h_ta.data[0]), params)
            tol = 1e-12 if dtype == np.float64 else 1e-6
            for got, want in zip(one, from_array):
                np.testing.assert_allclose(plain(got), plain(want)[0], rtol=0, atol=tol)

    def test_bad_rank(self):
        _, params, h_ta = self.stage(8)
        with pytest.raises(ShapeError, match="sample 0: visual features must be a 7x7 grid"):
            md.encode_visual([np.zeros((49, 2048))], h_ta, params)

    def test_wrong_channel_count_names_the_sample(self):
        # one sample, and row 1 of a batch, each with 6 channels, not 2048
        rng = np.random.default_rng(8)
        cfg = tiny_config()
        params = tiny_params(cfg, rng)
        bad = dataclasses.replace(tiny_sample(cfg, rng), features=np.zeros((7, 7, 6)))
        rule = r"visual features must be a 7x7 grid of rank 3 with 2048 channels, " \
               r"got shape \(7, 7, 6\)"
        with pytest.raises(ShapeError, match=f"^encode_visual: sample t0: {rule}"):
            md.forward(bad, params, cfg)
        samples = ragged_samples(cfg, rng, count=3)
        samples[1] = dataclasses.replace(samples[1], features=np.zeros((7, 7, 6)))
        with pytest.raises(ShapeError, match=f"^encode_visual: sample {samples[1].id}: {rule}"):
            md.forward(loop_collate(samples), params, cfg)

    def test_missing_file_names_the_sample(self, tmp_path):
        _, params, h_ta = self.stage(9, batch=2)
        with pytest.raises(InputError, match=r"sample b: cannot read feature file .*absent\.efvf"):
            md.encode_visual([np.zeros(FEATURE_SHAPE), str(tmp_path / "absent.efvf")],
                             h_ta, params, ids=["a", "b"])

    def test_non_finite_grid_named_by_sample_and_file(self, tmp_path):
        rng, params, h_ta = self.stage(10, np.float32, batch=3)
        paths = []
        for i in range(3):
            values = rng.uniform(0, 1, FEATURE_SHAPE).astype(np.float32)
            if i == 1:
                values[3, 4, 100] = np.nan
            paths.append(str(tmp_path / f"g{i}.efvf"))
            dio.write_image_features(paths[-1], values)
        with pytest.raises(InputError, match=r"sample s1: feature file .*g1\.efvf holds non-finite"):
            md.encode_visual(paths, h_ta, params, ids=["s0", "s1", "s2"])
        inf_grid = np.ones(FEATURE_SHAPE)
        inf_grid[0, 0, 0] = np.inf
        _, params, h_ta = self.stage(11)
        with pytest.raises(InputError, match="sample x: feature grid holds non-finite"):
            md.encode_visual(inf_grid, Tensor(h_ta.data[0]), params, ids=["x"])

    def test_matches_the_layers_it_fuses(self):
        # the stage equals the pinned capsule layer and image attention,
        # which form the same values from primitives and the keys r w_r
        rng, params, h_ta = self.stage(12, batch=3)
        grids = [rng.uniform(0, 1, FEATURE_SHAPE) for _ in range(3)]
        mask = np.array([[True, True, True], [True, False, False], [True, True, False]])
        h_i, h_att, weights = md.encode_visual(grids, h_ta, params, mask=mask)
        r = Tensor(np.stack([g.reshape(49, -1) for g in grids]))
        want_att, want_w = md.image_attention(h_ta, r, params.img_w_ta, params.img_w_r, mask)
        np.testing.assert_allclose(h_i.data, ly.capsule_layer(r, params.capsule).data,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(h_att.data, want_att.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights, want_w.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [0, 3])
    def test_gradients(self, batch):
        # every input of the stage in float64: the target encoding, w_ta,
        # the capsule weight and bias and w_r; batched with a ragged mask.
        # Grids of 6 channels keep the central differences quick.
        rng = np.random.default_rng(13)
        lead = (batch,) if batch else ()
        grids = [rng.uniform(0, 1, (7, 7, 6)) for _ in range(max(batch, 1))]
        features = grids if batch else grids[0]
        mask = np.array([[True, True, True], [True, False, False], [True, True, False]]) \
            if batch else None

        def op(h, w_ta, w_cap, b_cap, w_r):
            p = SimpleNamespace(capsule=ly.CapsuleParams(w=w_cap, b=b_cap), img_w_ta=w_ta,
                                img_w_r=w_r)
            h_i, h_att, _ = md.encode_visual(features, h, p, mask=mask)
            return tx.concat([tx.reshape(h_i, lead + (49 * 4,)), h_att])

        fd_check(op, rand(rng, *lead, 3, 16) * 0.5, rand(rng, 16, 8) * 0.5,
                 rand(rng, 6, 4) * 0.5, rand(rng, 4) * 0.1, rand(rng, 6, 8) * 0.5)

    def test_untaped_batch_keeps_one_grid_in_memory(self, tmp_path):
        # without a tape the grids stream through one row buffer; the
        # [8, 49, 2048] float32 batch would take 3.2 MB
        rng = np.random.default_rng(14)
        cfg = tiny_config(precision="single")
        params = tiny_params(cfg, rng)
        samples = ragged_samples(cfg, rng, count=8)
        for i, sample in enumerate(samples):
            sample.features = str(tmp_path / f"g{i}.efvf")
            dio.write_image_features(sample.features, rng.uniform(0, 1, FEATURE_SHAPE))
        batch = loop_collate(samples)
        md.forward(batch, params, cfg)
        tracemalloc.start()
        try:
            md.forward(batch, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 49 * 2048 * 4, f"peak {peak / 1e6:.2f} MB"


class TestImageAttention:
    def test_identical_regions_uniform(self):
        rng = np.random.default_rng(9)
        h_ta = Tensor(rand(rng, 1, 3, 4))
        r = Tensor(np.tile(rand(rng, 1, 1, 6), (1, 49, 1)))
        w_ta = Tensor(rand(rng, 4, 5))
        w_r = Tensor(rand(rng, 6, 5))
        h_att, weights = md.image_attention(h_ta, r, w_ta, w_r)
        assert weights.shape == (1, 49)
        np.testing.assert_allclose(weights.data, 1.0 / 49.0, rtol=1e-9)
        np.testing.assert_allclose(h_att.data[0], (r.data[0] @ w_r.data)[0], rtol=1e-9)
        np.testing.assert_allclose(weights.data.sum(), 1.0, atol=1e-6)

    def test_aligned_large_region_takes_all_weight(self):
        rng = np.random.default_rng(10)
        h_ta = Tensor(np.ones((1, 1, 2)))
        w_ta = Tensor(np.array([[500.0, 0.0, 0.0], [500.0, 0.0, 0.0]]))
        r = rand(rng, 1, 49, 3)
        r[0, :, 0] = 0.0
        r[0, 31, :] = [5.0, 0.0, 0.0]
        _, weights = md.image_attention(h_ta, Tensor(r), w_ta, Tensor(np.eye(3)))
        assert weights.data[0, 31] > 1.0 - 1e-6
        assert np.argmax(weights.data[0]) == 31

    def test_weights_are_detached(self):
        rng = np.random.default_rng(12)
        tape = Tape()
        w_r = tape.watch(Tensor(rand(rng, 6, 5), requires_grad=True))
        for lead in ((), (2,)):
            h_att, weights = md.image_attention(
                Tensor(rand(rng, *lead, 3, 4)), Tensor(rand(rng, *lead, 49, 6)),
                Tensor(rand(rng, 4, 5)), w_r)
            assert h_att.tape is tape and h_att.shape == lead + (5,)
            assert weights.tape is None and weights.shape == lead + (49,)

    def test_subspace_mismatch(self):
        with pytest.raises(ShapeError, match="^matmul: "):
            md.image_attention(
                Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 49, 6))),
                Tensor(np.ones((4, 5))), Tensor(np.ones((6, 3))),
            )


class TestInteract:
    def setup(self):
        self.rng = np.random.default_rng(11)
        self.cfg = tiny_config()
        self.params = tiny_params(self.cfg, self.rng)

    def test_row_counts_follow_query(self):
        self.setup()
        h_ta = Tensor(rand(self.rng, 1, 2, 16))
        h_c = Tensor(rand(self.rng, 1, 5, 16))
        h_i = Tensor(rand(self.rng, 1, 49, 4))
        h_tac, h_tai, weights = md.interact(h_ta, h_c, h_i, self.params)
        assert h_tac.shape == (1, 2, 16) and h_tai.shape == (1, 2, 16)
        assert weights.shape == (1, 2, 2, 5)

    def test_text_only_leaves_image_branch_absent(self):
        self.setup()
        h_tac, h_tai, _ = md.interact(
            Tensor(rand(self.rng, 1, 2, 16)), Tensor(rand(self.rng, 1, 5, 16)), None,
            self.params,
        )
        assert h_tai is None

    def test_masked_context_token_ignored(self):
        self.setup()
        h_ta = rand(self.rng, 1, 2, 16)
        h_c = rand(self.rng, 1, 5, 16)
        mask = np.array([[True, True, True, False, True]])
        a, _, weights = md.interact(Tensor(h_ta), Tensor(h_c), None, self.params,
                                    ctx_mask=mask)
        assert (weights[..., 3] == 0.0).all()
        h_c2 = h_c.copy()
        h_c2[0, 3] = -40.0
        b, _, _ = md.interact(Tensor(h_ta), Tensor(h_c2), None, self.params, ctx_mask=mask)
        np.testing.assert_array_equal(a.data, b.data)

    def test_single_context_token_returns_its_value(self):
        self.setup()
        h_ta = rand(self.rng, 1, 3, 16)
        h_c = rand(self.rng, 1, 4, 16)
        mask = np.array([[False, False, True, False]])
        h_tac, _, _ = md.interact(Tensor(h_ta), Tensor(h_c), None, self.params, ctx_mask=mask)
        want = np.concatenate(
            [h_c[0, 2:3] @ w.data for w in self.params.inter_ctx.wv], axis=-1
        )
        np.testing.assert_allclose(h_tac.data[0], np.repeat(want, 3, axis=0), rtol=1e-9)


class TestFuse:
    def test_single_head_role_assignment(self):
        # queries from h_ta, keys from h_tac, values from h_tai
        rng = np.random.default_rng(12)
        cfg = tiny_config(head_count=1)
        params = tiny_params(cfg, rng)
        h_ta, h_tac, h_tai = rand(rng, 1, 3, 16), rand(rng, 1, 3, 16), rand(rng, 1, 3, 16)
        h_avg_c, h_att = rand(rng, 1, 16), rand(rng, 1, 8)
        fused, weights = md.fuse(
            Tensor(h_ta), Tensor(h_tac), Tensor(h_tai),
            Tensor(h_avg_c), Tensor(h_att), params,
        )
        q = h_ta[0] @ params.fusion.wq[0].data
        k = h_tac[0] @ params.fusion.wk[0].data
        v = h_tai[0] @ params.fusion.wv[0].data
        attn = softmax_rows(q @ k.T / math.sqrt(q.shape[1]))
        want = np.concatenate([h_avg_c[0], (attn @ v).mean(axis=0), h_att[0]])
        np.testing.assert_allclose(fused.data[0], want, rtol=1e-8)
        np.testing.assert_allclose(weights[0, 0], attn, rtol=1e-10)
        assert fused.shape == (1, cfg.fused_width)

    def test_single_row_mean_is_identity(self):
        rng = np.random.default_rng(13)
        cfg = tiny_config()
        params = tiny_params(cfg, rng)
        h_ta, h_tac, h_tai = (Tensor(rand(rng, 1, 1, 16)) for _ in range(3))
        fused, _ = md.fuse(h_ta, h_tac, h_tai, Tensor(rand(rng, 1, 16)),
                           Tensor(rand(rng, 1, 8)), params)
        h_taci = ly.multi_head(h_ta, h_tac, h_tai, params.fusion)
        np.testing.assert_allclose(fused.data[0, 16:32], h_taci.data[0, 0], rtol=1e-9)

    def test_text_only_falls_back_to_context_values(self):
        rng = np.random.default_rng(14)
        cfg = tiny_config(text_only=True)
        params = tiny_params(cfg, rng)
        h_ta, h_tac = Tensor(rand(rng, 1, 2, 16)), Tensor(rand(rng, 1, 2, 16))
        fused, _ = md.fuse(h_ta, h_tac, None, Tensor(rand(rng, 1, 16)), None, params)
        assert fused.shape == (1, 32)
        h_taci = ly.multi_head(h_ta, h_tac, h_tac, params.fusion)
        np.testing.assert_allclose(fused.data[0, 16:], h_taci.data[0].mean(axis=0), rtol=1e-9)

    def test_row_count_mismatch_is_internal_error(self):
        rng = np.random.default_rng(15)
        params = tiny_params(tiny_config(), rng)
        with pytest.raises(ShapeError, match="^multi_head_attention: key count 2 != value"):
            md.fuse(
                Tensor(rand(rng, 1, 2, 16)), Tensor(rand(rng, 1, 2, 16)),
                Tensor(rand(rng, 1, 3, 16)), Tensor(rand(rng, 1, 16)),
                Tensor(rand(rng, 1, 8)), params,
            )


class TestClassify:
    def test_uniform_on_zero_logits(self):
        out = md.classify(
            Tensor(np.zeros((1, 5))), Tensor(np.zeros((5, 3))), Tensor(np.zeros(3))
        )
        assert out.probs.shape == (1, 3)
        np.testing.assert_allclose(out.probs.data, 1.0 / 3.0, rtol=1e-6)

    def test_log_integer_logits(self):
        b = Tensor(np.log(np.array([1.0, 2.0, 3.0])))
        out = md.classify(Tensor(np.zeros((1, 4))), Tensor(np.zeros((4, 3))), b)
        np.testing.assert_allclose(out.probs.data[0], [1 / 6, 2 / 6, 3 / 6], rtol=1e-6)
        np.testing.assert_allclose(out.logits.data[0], b.data, atol=1e-12)

    def test_simplex(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            out = md.classify(
                Tensor(rand(rng, 1, 6) * 5), Tensor(rand(rng, 6, 3)), Tensor(rand(rng, 3))
            )
            np.testing.assert_allclose(out.probs.data.sum(), 1.0, atol=1e-6)
            assert (out.probs.data > 0).all() and (out.probs.data < 1).all()

    def test_width_mismatch(self):
        # a width or a rank that does not fit is the product's error
        for shape in ((1, 4), (), (1, 1, 5)):
            with pytest.raises(ShapeError, match="^matmul: "):
                md.classify(Tensor(np.zeros(shape)), Tensor(np.zeros((5, 3))),
                            Tensor(np.zeros(3)))


class FakeParams(SimpleNamespace):
    """Plain tensors as a parameter set, packed one tensor per block."""

    def __init__(self, items):
        super().__init__(items=items)
        if items:
            self.buffer = ParamBuffer.pack([[item] for item in items])

    def named_parameters(self):
        return self.items


class TestLoss:
    def one_hot(self, i):
        v = np.zeros(3)
        v[i] = 1.0
        return Tensor(v)

    def test_half_probability(self):
        params = FakeParams(items=[])
        got = md.loss([Tensor(np.array([0.5, 0.25, 0.25]))], [0], params, 0.0)
        np.testing.assert_allclose(got.data, 0.693147, atol=1e-6)

    def test_perfect_prediction_zero(self):
        got = md.loss([self.one_hot(2)], [2], FakeParams(items=[]), 0.0)
        np.testing.assert_allclose(got.data, 0.0, atol=1e-9)

    def test_l2_term_alone(self):
        theta = Tensor(np.array([3.0]), requires_grad=True)
        params = FakeParams(items=[("theta", theta)])
        got = md.loss([self.one_hot(1)], [1], params, 1.0)
        np.testing.assert_allclose(got.data, 9.0, atol=1e-6)

    def test_zero_probability_clamped(self):
        got = md.loss([self.one_hot(1)], [0], FakeParams(items=[]), 0.0)
        assert np.isfinite(got.data)
        np.testing.assert_allclose(got.data, -math.log(1e-12), rtol=1e-6)

    def test_batch_mean(self):
        preds = [Tensor(np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0]]))]
        got = md.loss(preds, [0, 1], FakeParams(items=[]), 0.0)
        np.testing.assert_allclose(got.data, 0.5 * -math.log(0.5), rtol=1e-6)

    def test_input_validation(self):
        with pytest.raises(InputError):
            md.loss([], [], FakeParams(items=[]), 0.0)
        with pytest.raises(ShapeError, match="^cross_entropy: a label is outside"):
            md.loss([self.one_hot(0)], [3], FakeParams(items=[]), 0.0)
        for probs, labels in ((self.one_hot(0), []), (Tensor(np.ones((2, 3)) / 3), [0])):
            with pytest.raises(ShapeError, match="^cross_entropy: need"):
                md.loss([probs], labels, FakeParams(items=[]), 0.0)
        with pytest.raises(ConfigError):
            md.loss([self.one_hot(0)], [0], FakeParams(items=[]), -1.0)


class TestForward:
    def test_eval_is_deterministic(self):
        rng = np.random.default_rng(17)
        cfg = tiny_config(dropout=0.3)
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)
        a = md.forward(sample, params, cfg)
        b = md.forward(sample, params, cfg)
        np.testing.assert_array_equal(a.probs.data, b.probs.data)

    def test_probability_simplex(self):
        rng = np.random.default_rng(18)
        cfg = tiny_config()
        params = tiny_params(cfg, rng)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            start = int(rng.integers(0, n - 1))
            end = int(rng.integers(start + 1, n + 1))
            sample = tiny_sample(cfg, rng, n=n, span=(start, end))
            out = md.forward(sample, params, cfg)
            np.testing.assert_allclose(out.probs.data.sum(), 1.0, atol=1e-6)

    def test_text_only_runs_without_image(self):
        rng = np.random.default_rng(19)
        cfg = tiny_config(text_only=True)
        params = tiny_params(cfg, rng)
        out = md.forward(tiny_sample(cfg, rng), params, cfg)
        assert out.probs.shape == (3,)

    @pytest.mark.parametrize("params_text_only", [False, True])
    def test_text_only_mismatch_is_config_error(self, params_text_only):
        # parameters built for one mode, run under a config of the other
        rng = np.random.default_rng(23)
        built = tiny_config(text_only=params_text_only)
        params = tiny_params(built, rng)
        cfg = tiny_config(text_only=not params_text_only)
        with pytest.raises(ConfigError, match=f"^text_only = {cfg.text_only}, but"):
            md.forward(tiny_sample(built, rng), params, cfg)

    @pytest.mark.parametrize("batched", [False, True])
    def test_attention_weights_are_the_ops_arrays(self, monkeypatch, batched):
        # the three weight arrays come out as the ops returned them, with
        # no copy, for a single sample and for a batch
        rng = np.random.default_rng(22)
        cfg = tiny_config()
        params = tiny_params(cfg, rng)
        samples = ragged_samples(cfg, rng) if batched else [tiny_sample(cfg, rng)]
        sample = loop_collate(samples) if batched else samples[0]
        returned = {}

        def spy(name):
            real = getattr(tx, name)

            def call(*args, **kwargs):
                result = real(*args, **kwargs)
                returned.setdefault(name, []).append(result[-1])
                return result

            monkeypatch.setattr(tx, name, call)

        spy("multi_head_attention")
        spy("capsule_region_attention")
        out = md.forward(sample, params, cfg)
        # context self-attention, context and image interaction, fusion
        attention = returned["multi_head_attention"]
        assert len(attention) == 4 and len(returned["capsule_region_attention"]) == 1
        assert out.interaction_weights is attention[1]
        assert out.fusion_weights is attention[3]
        assert out.region_weights is returned["capsule_region_attention"][0]
        lead = (len(samples),) if batched else ()
        assert out.interaction_weights.shape[:len(lead) + 1] == lead + (cfg.head_count,)
        assert out.region_weights.shape == lead + (49,)

    def test_missing_features_is_stage_named_input_error(self):
        rng = np.random.default_rng(20)
        cfg = tiny_config()
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)
        sample.features = None
        with pytest.raises(InputError, match="encode_visual"):
            md.forward(sample, params, cfg)

    def test_stage_prefix_on_shape_error(self):
        rng = np.random.default_rng(21)
        cfg = tiny_config()
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)
        sample.features = np.zeros((49, 2048))
        with pytest.raises(ShapeError, match="encode_visual"):
            md.forward(sample, params, cfg)
        # a mis-sized classifier fails in its op, named after the stage
        sample = tiny_sample(cfg, rng)
        params.cls_w = Tensor(np.zeros((cfg.fused_width + 1, 3)))
        with pytest.raises(ShapeError, match="^classify: matmul: "):
            md.forward(sample, params, cfg)

    def pad(self, sample, extra):
        import dataclasses

        return dataclasses.replace(
            sample,
            token_ids=np.concatenate([sample.token_ids, np.zeros(extra, dtype=np.int64)]),
            mask=np.concatenate([sample.mask, np.zeros(extra, dtype=bool)]),
        )

    def test_padding_leaves_probs_alone(self):
        rng = np.random.default_rng(22)
        cfg = tiny_config(precision="single")
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)
        base = md.forward(sample, params, cfg).probs.data
        padded = md.forward(self.pad(sample, 3), params, cfg).probs.data
        assert np.abs(padded - base).max() < 1e-5

    def test_pad_row_mutation_changes_nothing(self):
        rng = np.random.default_rng(23)
        cfg = tiny_config(precision="single")
        params = tiny_params(cfg, rng)
        sample = self.pad(tiny_sample(cfg, rng), 2)
        base = md.forward(sample, params, cfg).probs.data
        params.embed.data = params.embed.data.copy()
        params.embed.data[0] = 1000.0
        after = md.forward(sample, params, cfg).probs.data
        assert np.abs(after - base).max() < 1e-6

    def grads_for(self, cfg, seed=24):
        rng = np.random.default_rng(seed)
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)
        tape = Tape()
        for _, p in params.named_parameters():
            tape.watch(p)
        out = md.forward(sample, params, cfg)
        total = md.loss([out.probs], [sample.label], params, 0.0)
        return params, tape.backward(total)

    def test_every_parameter_reaches_the_loss(self):
        params, grads = self.grads_for(tiny_config())
        for name, p in params.named_parameters():
            g = grads.get(p)
            assert g is not None, f"no gradient for {name}"
            assert np.isfinite(g).all(), f"non-finite gradient for {name}"

    def test_text_only_grads_cover_reduced_set(self):
        params, grads = self.grads_for(tiny_config(text_only=True))
        for name, p in params.named_parameters():
            assert grads.get(p) is not None, f"no gradient for {name}"

    def test_spent_tape_freed_without_cycle_collector(self):
        # Backward rules hold arrays, never tensors, so nothing on a tape
        # points back at it: a spent training tape and its activations are
        # freed as soon as the step drops them, not at the next collection.
        def step():
            params, _ = self.grads_for(tiny_config())
            return weakref.ref(params.embed.tape)

        gc.collect()
        gc.disable()
        try:
            tape = step()
            assert tape() is None, "a reference cycle keeps the spent tape alive"
        finally:
            gc.enable()

    def test_trace_contents(self):
        rng = np.random.default_rng(25)
        cfg = tiny_config()
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng, n=5, span=(2, 4))
        out = md.forward(sample, params, cfg)
        assert out.interaction_weights.shape == (cfg.head_count, 2, 5)
        assert out.fusion_weights.shape == (cfg.head_count, 2, 2)
        for w in (out.interaction_weights, out.fusion_weights):
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        assert out.region_weights.shape == (49,)
        np.testing.assert_allclose(out.region_weights.sum(), 1.0, atol=1e-6)

    def test_text_only_trace_has_no_grid(self):
        rng = np.random.default_rng(26)
        cfg = tiny_config(text_only=True)
        params = tiny_params(cfg, rng)
        out = md.forward(tiny_sample(cfg, rng), params, cfg)
        assert out.region_weights is None
        assert out.interaction_weights.shape == (cfg.head_count, 2, 4)
        assert out.fusion_weights.shape == (cfg.head_count, 2, 2)


TRAIN_BATCH_NODE_LIMIT = 31  # non-leaf tape nodes of one training batch


def overfit_batch_step(tmp_path, n):
    """The parameters, the tape and the loss of the first training batch of
    8 on the overfit config (the benchmark's train_mm workload), from a
    synthesized corpus of ``n`` samples."""
    dio.synth_generate(tmp_path, seed=0, n=n, grid_rule="both", embed_dim=16)
    table = dio.load_embeddings(tmp_path / "embeddings.txt")
    samples = dio.load_dataset(tmp_path / "dataset.jsonl")[:n * 4 // 5]
    cfg = overfit_config()
    params = EFNetParams.create(cfg, np.random.default_rng(cfg.seed),
                                Tensor(table.matrix.data.copy(), requires_grad=True))
    rng = np.random.default_rng(cfg.seed)
    batch = dio.make_batches(samples, table, batch_size=8, max_len=cfg.max_len,
                             text_only=False, rng=rng)[0]
    tape = Tape()
    for _, p in params.named_parameters():
        tape.watch(p)
    out = md.forward(batch, params, cfg, rng=rng)
    value = md.loss([out.probs], batch.labels, params, cfg.l2_lambda)
    assert value.tape is tape and len(batch) == 8
    return params, tape, value


def test_training_batch_tape_size(tmp_path):
    """The first training batch of 8 on the overfit config (the benchmark's
    train_mm workload) records at most TRAIN_BATCH_NODE_LIMIT op nodes: op
    dispatch is the cost of a batch, so fused ops must not come apart."""
    params, tape, _ = overfit_batch_step(tmp_path, 300)
    nodes = len(tape) - len(params.named_parameters())
    assert nodes <= TRAIN_BATCH_NODE_LIMIT, f"{nodes} op nodes for one batch"


def test_training_batch_gradients_are_contiguous(tmp_path):
    """Every parameter gradient of a training batch is C-contiguous, so the
    optimizer's gather copies each one as a block."""
    params, tape, value = overfit_batch_step(tmp_path, 20)
    grads = tape.backward(value)
    named = params.named_parameters()
    assert len(named) == 50
    strided = [name for name, p in named if not grads[p].flags.c_contiguous]
    assert not strided, f"strided gradients: {strided}"


class TestBatchedForward:
    """One forward over a padded batch against the per-sample oracles."""

    def batch(self, cfg, seed):
        rng = np.random.default_rng(seed)
        params = tiny_params(cfg, rng)
        # larger weights sharpen the attention, so that a padded row leaking
        # into a key set or a pool moves the loss far beyond the tolerance
        for _, p in params.named_parameters():
            p.data *= 3.0
        samples = ragged_samples(cfg, rng)
        return params, samples, loop_collate(samples)

    @pytest.mark.parametrize("text_only", [False, True])
    def test_rows_match_numpy_reference(self, text_only):
        cfg = tiny_config(text_only=text_only)
        params, samples, batch = self.batch(cfg, 40)
        assert not batch.mask.all() and not batch.target_mask.all()
        assert not batch.aspect_mask.all()
        probs = md.forward(batch, params, cfg).probs.data
        assert probs.shape == (len(samples), 3)
        for row, sample in zip(probs, samples):
            want = forward_loss_reference(sample, params, cfg)
            got = -math.log(row[sample.label])
            assert abs(got - want) <= REF_TOL * abs(want), sample.id

    @pytest.mark.parametrize("text_only", [False, True])
    def test_rows_match_single_sample_forward(self, text_only):
        cfg = tiny_config(precision="single", text_only=text_only)
        params, samples, batch = self.batch(cfg, 41)
        probs = md.forward(batch, params, cfg).probs.data
        for row, sample in zip(probs, samples):
            one = md.forward(sample, params, cfg).probs.data
            assert np.abs(row - one).max() < PAD_APPEND_TOL, sample.id

    def test_batch_loss_is_row_mean(self):
        cfg = tiny_config()
        params, samples, batch = self.batch(cfg, 42)
        out = md.forward(batch, params, cfg)
        got = float(md.loss([out.probs], batch.labels, params, 0.0).data)
        want = np.mean([forward_loss_reference(s, params, cfg) for s in samples])
        assert abs(got - want) <= REF_TOL * abs(want)

    def test_sampled_gradients_match_fd(self):
        cfg = tiny_config(l2_lambda=1e-5)
        params, samples, batch = self.batch(cfg, 43)
        rng = np.random.default_rng(44)

        def eval_loss():
            out = md.forward(batch, params, cfg)
            return float(md.loss([out.probs], batch.labels, params, cfg.l2_lambda).data)

        tape = Tape()
        for _, p in params.named_parameters():
            tape.watch(p)
        out = md.forward(batch, params, cfg)
        grads = tape.backward(md.loss([out.probs], batch.labels, params, cfg.l2_lambda))
        analytic = {name: grads[p].reshape(-1) for name, p in params.named_parameters()}
        for _, p in params.named_parameters():
            p.tape = None
            p.node = None
        # the 4-point stencil: its O(h^4) truncation error lets h be large
        # enough that rounding noise stays far below the bound, even on
        # coordinates whose gradient is ~1e-7
        step = 1e-3
        for name, p in params.named_parameters():
            flat = p.data.reshape(-1)
            for i in rng.choice(flat.size, size=min(flat.size, 3), replace=False):
                orig = flat[i]
                values = []
                for k in (2, 1, -1, -2):
                    flat[i] = orig + k * step
                    values.append(eval_loss())
                flat[i] = orig
                f2, f1, b1, b2 = values
                num = (-f2 + 8 * f1 - 8 * b1 + b2) / (12 * step)
                ana = analytic[name][i]
                err = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
                assert err < 1e-4, f"{name}[{i}]: rel err {err:.2e}"

    def test_trace_keeps_batch_axis(self):
        cfg = tiny_config()
        params, samples, batch = self.batch(cfg, 45)
        out = md.forward(batch, params, cfg)
        b, width = len(samples), batch.target_ids.shape[1]
        heads = cfg.head_count
        assert out.interaction_weights.shape == (b, heads, width, batch.token_ids.shape[1])
        assert out.fusion_weights.shape == (b, heads, width, width)
        assert out.region_weights.shape == (b, 49)
        np.testing.assert_allclose(out.region_weights.sum(axis=1), 1.0, atol=1e-6)

    def test_taped_probs_equal_untaped_bitwise(self, tmp_path):
        # the image op keeps each grid under a tape and reuses one buffer
        # without one; the arithmetic is the same either way
        cfg = tiny_config(precision="single")
        params, samples, batch = self.batch(cfg, 47)
        for sample in samples:
            path = str(tmp_path / f"{sample.id}.efvf")
            dio.write_image_features(path, sample.features)
            sample.features = path
        batch = loop_collate(samples)
        for inputs in (batch, samples[0]):
            untaped = md.forward(inputs, params, cfg).probs.data
            tape = Tape()
            for _, p in params.named_parameters():
                tape.watch(p)
            taped = md.forward(inputs, params, cfg).probs
            for _, p in params.named_parameters():
                p.tape = p.node = None
            assert taped.tape is tape
            np.testing.assert_array_equal(taped.data, untaped)

    def test_missing_features_name_the_sample(self):
        cfg = tiny_config()
        params, samples, batch = self.batch(cfg, 46)
        batch.features[2] = None
        with pytest.raises(InputError, match="r2"):
            md.forward(batch, params, cfg)


class TestFullModelGradientSpot:
    """Sampled finite-difference check; the exhaustive sweep runs in the
    acceptance suite."""

    def test_sampled_coordinates_match(self):
        rng = np.random.default_rng(27)
        cfg = tiny_config(l2_lambda=1e-5)
        params = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)

        def eval_loss():
            out = md.forward(sample, params, cfg)
            return float(md.loss([out.probs], [sample.label], params, cfg.l2_lambda).data)

        step = 1e-5
        picks = {}
        fd = {}
        for name, p in params.named_parameters():
            flat = p.data.reshape(-1)
            idx = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
            picks[name] = idx
            vals = []
            for i in idx:
                orig = flat[i]
                flat[i] = orig + step
                hi = eval_loss()
                flat[i] = orig - step
                lo = eval_loss()
                flat[i] = orig
                vals.append((hi - lo) / (2 * step))
            fd[name] = np.array(vals)

        tape = Tape()
        for _, p in params.named_parameters():
            tape.watch(p)
        out = md.forward(sample, params, cfg)
        grads = tape.backward(md.loss([out.probs], [sample.label], params, cfg.l2_lambda))
        for name, p in params.named_parameters():
            analytic = grads[p].reshape(-1)[picks[name]]
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd[name])), 1e-8)
            err = np.max(np.abs(analytic - fd[name]) / denom)
            assert err < 1e-4, f"{name}: rel err {err:.2e}"


class TestCheckpoint:
    def roundtrip_params(self, tmp_path, cfg=None, seed=28):
        rng = np.random.default_rng(seed)
        cfg = cfg or tiny_config(precision="single")
        params = tiny_params(cfg, rng)
        path = tmp_path / "model.efck"
        md.save_checkpoint(path, params)
        return cfg, params, path

    def test_round_trip_exact(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        saved = {n: p.data.copy() for n, p in params.named_parameters()}
        for _, p in params.named_parameters():
            p.data = p.data + 1.0
        md.load_checkpoint(path, params)
        for n, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, saved[n], err_msg=n)

    def test_load_copies_into_the_buffer_views(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        saved = {n: p.data.copy() for n, p in params.named_parameters()}
        views = [p.data for _, p in params.named_parameters()]
        params.cls_w.data = params.cls_w.data + 1.0
        params.buffer.flat[...] = 0.0
        md.load_checkpoint(path, params)
        for (n, p), view in zip(params.named_parameters(), views):
            assert p.data is view, n
        np.testing.assert_array_equal(params.buffer.flat, np.concatenate(
            [p.data.reshape(-1) for p in params.buffer.tensors]))
        for n, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, saved[n], err_msg=n)

    def test_save_is_deterministic(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        again = tmp_path / "again.efck"
        md.save_checkpoint(again, params)
        assert path.read_bytes() == again.read_bytes()

    def test_double_params_round_trip_via_float32(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path, cfg=tiny_config())
        want = {n: p.data.astype(np.float32).astype(np.float64)
                for n, p in params.named_parameters()}
        md.load_checkpoint(path, params)
        for n, p in params.named_parameters():
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, want[n], err_msg=n)

    def test_name_mismatch(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path, cfg=tiny_config(text_only=True))
        rng = np.random.default_rng(29)
        multimodal = tiny_params(tiny_config(), rng)
        with pytest.raises(CheckpointMismatch, match="missing"):
            md.load_checkpoint(path, multimodal)

    def test_shape_mismatch(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        rng = np.random.default_rng(30)
        other = tiny_params(tiny_config(hidden_dim=4, precision="single"), rng)
        with pytest.raises(CheckpointMismatch, match="shape"):
            md.load_checkpoint(path, other)

    def test_shape_mismatch_changes_no_parameter(self, tmp_path):
        # the first records fit; a later one does not
        cfg, params, path = self.roundtrip_params(tmp_path)
        other = tiny_params(tiny_config(hidden_dim=4, precision="single"),
                            np.random.default_rng(33))
        before = {n: p.data.copy() for n, p in other.named_parameters()}
        with pytest.raises(CheckpointMismatch, match="gru_fwd"):
            md.load_checkpoint(path, other)
        for n, p in other.named_parameters():
            np.testing.assert_array_equal(p.data, before[n], err_msg=n)

    def test_records_load_in_any_order(self, tmp_path):
        # records are written in buffer order and found by name, so the
        # same records reversed load the same values and fail the same way
        def both_orders(params, name):
            paths = tmp_path / f"{name}.efck", tmp_path / f"{name}-reversed.efck"
            md.save_checkpoint(paths[0], params)
            md.save_checkpoint(paths[1], SimpleNamespace(
                named_parameters=lambda: params.named_parameters()[::-1]))
            return paths

        cfg, params, _ = self.roundtrip_params(tmp_path)
        forwards, backwards = both_orders(params, "model")
        records = md._read_checkpoint_records(forwards.read_bytes(), forwards)
        names = [name for name, _ in params.named_parameters()]
        assert list(records) == names
        assert list(md._read_checkpoint_records(backwards.read_bytes(), backwards)) == names[::-1]
        saved = {n: p.data.copy() for n, p in params.named_parameters()}
        for _, p in params.named_parameters():
            p.data = p.data + 1.0
        md.load_checkpoint(backwards, params)
        for n, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, saved[n], err_msg=n)

        text_only = tiny_params(tiny_config(text_only=True, precision="single"),
                                np.random.default_rng(29))
        narrow = tiny_params(tiny_config(hidden_dim=4, precision="single"),
                             np.random.default_rng(30))
        for source, model, match in ((text_only, params, "missing"), (params, narrow, "shape")):
            errors = []
            for path in both_orders(source, "mismatch"):
                with pytest.raises(CheckpointMismatch, match=match) as caught:
                    md.load_checkpoint(path, model)
                errors.append(str(caught.value).replace(str(path), "<path>"))
            assert errors[0] == errors[1]

    def test_corruption_is_format_error(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        blob = bytearray(path.read_bytes())
        bad_magic = tmp_path / "magic.efck"
        bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
        with pytest.raises(FormatError, match="magic"):
            md.load_checkpoint(bad_magic, params)
        truncated = tmp_path / "short.efck"
        truncated.write_bytes(bytes(blob[:-3]))
        with pytest.raises(FormatError, match="truncated"):
            md.load_checkpoint(truncated, params)
        versioned = tmp_path / "version.efck"
        vb = bytearray(blob)
        vb[4:8] = (7).to_bytes(4, "little")
        versioned.write_bytes(bytes(vb))
        with pytest.raises(FormatError, match="version"):
            md.load_checkpoint(versioned, params)

    def test_non_utf8_record_name_is_format_error(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        blob = bytearray(path.read_bytes())
        # magic, version and the first name's length come before its bytes
        blob[12] = 0xFF
        bad = tmp_path / "name.efck"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"name\.efck: record 1: name is not UTF-8"):
            md.load_checkpoint(bad, params)

    def test_duplicate_record_is_format_error(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        blob = path.read_bytes()
        # the first record: name length, name, rank, dims, float32 payload
        name_len = int.from_bytes(blob[8:12], "little")
        at = 12 + name_len
        rank = int.from_bytes(blob[at:at + 4], "little")
        dims = [int.from_bytes(blob[at + 4 + 4 * i:at + 8 + 4 * i], "little")
                for i in range(rank)]
        end = at + 4 + 4 * rank + 4 * math.prod(dims)
        bad = tmp_path / "twice.efck"
        bad.write_bytes(blob + blob[8:end])
        with pytest.raises(FormatError, match=r"twice\.efck: duplicate record 'embed\.table'"):
            md.load_checkpoint(bad, params)

    def test_non_finite_record_is_format_error(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        saved = {n: p.data.copy() for n, p in params.named_parameters()}
        for name, value in (("cls.b", np.nan), ("embed.table", np.inf)):
            other = tiny_params(cfg, np.random.default_rng(32))
            dict(other.named_parameters())[name].data.flat[1] = value
            bad = tmp_path / f"bad-{name}.efck"
            md.save_checkpoint(bad, other)
            with pytest.raises(FormatError, match=rf"bad-{name}\.efck.*{name}"):
                md.load_checkpoint(bad, params)
            for n, p in params.named_parameters():
                np.testing.assert_array_equal(p.data, saved[n], err_msg=n)

    def test_directory_synced_after_rename(self, tmp_path, monkeypatch):
        # a rename survives power loss only once its directory is synced
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace",))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        self.roundtrip_params(tmp_path)
        folder = os.stat(tmp_path).st_ino
        assert [e[:2] for e in events] == [("fsync", False), ("replace",), ("fsync", True)]
        assert events[-1][2] == folder

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path):
        cfg, params, path = self.roundtrip_params(tmp_path)
        saved = {n: p.data.copy() for n, p in params.named_parameters()}
        for _, p in params.named_parameters():
            p.data = p.data + 1.0

        def dies_mid_write():
            for i, item in enumerate(params.named_parameters()):
                if i == 5:
                    raise OSError("disk full")
                yield item

        with pytest.raises(OSError) as caught:
            md.save_checkpoint(path, SimpleNamespace(named_parameters=dies_mid_write))
        # an error with no errno is named by its path as an OS error is
        assert str(caught.value) == f"disk full: '{path}'"
        assert caught.value.filename == str(path)
        assert [f.name for f in tmp_path.iterdir()] == [path.name]
        md.load_checkpoint(path, params)
        for n, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, saved[n], err_msg=n)

    def test_missing_file_is_input_error(self, tmp_path):
        rng = np.random.default_rng(31)
        params = tiny_params(tiny_config(), rng)
        with pytest.raises(InputError):
            md.load_checkpoint(tmp_path / "absent.efck", params)
