"""Tests of ``efnet.tensor``.

``ROWS`` has one row per public op, after PyTorch's OpInfo (Paszke et al.
2019, arXiv:1912.01703), and the six tests after it hold every row to one
contract. The classes below them check what only one op does: worked
values, mask semantics, the cross-entropy clamp, dropout statistics, the
image op's row sources, and the tape itself.
"""

import inspect
import itertools
import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from conftest import fd_check, gru_reference, mha_loop_reference, rand, softmax_rows, total

from efnet import layers as ly
from efnet import tensor as tx
from efnet.gradcheck import fd_gradient
from efnet.layers import GRUParams, MHAParams
from efnet.tensor import MaskError, ShapeError, Tape, TapeError, Tensor

B = 3  # rows of every batched sample


def flat_of(arrays):
    return np.concatenate([a.reshape(-1) for a in arrays] or [np.zeros(0)])


def ragged(lead, n):
    """No mask for an unbatched sample; for a batch, rows that keep their
    first n, 1 and n - 1 entries."""
    return np.arange(n) < np.array([n, 1, n - 1])[:, None] if lead else None


def blocks(ws, heads=2):
    """``multi_head_attention``'s blocks and leaves for 3H per-head
    tensors, the wq heads first."""
    def stack(role):
        return np.stack([w.data for w in role])

    w_kv = np.stack([stack(ws[heads:2 * heads]), stack(ws[2 * heads:])])
    return [stack(ws[:heads]), w_kv], list(ws)


def grids_of(r):
    """The grids of an [(B,) n, C] array as the list the image op takes."""
    return list(r.reshape((-1,) + r.shape[-2:]))


def gru_weights(rng, d_in, d_h):
    shapes = {"w": (d_in, d_h), "u": (d_h, d_h), "b": (d_h,)}
    return [rand(rng, *shapes[n]) for n in "wubwubwub"]


def gru_blocks(*directions):
    """The GRU ops' blocks and leaves for directions given as (wz, uz, bz,
    wr, ur, br, wh, uh, bh) tensors."""
    leaves = [ws[kind + 3 * gate] for kind in range(3) for ws in directions
              for gate in range(3)]
    return [np.stack([t.data for t in leaves[i:i + 3 * len(directions)]])
            for i in range(0, len(leaves), 3 * len(directions))], leaves


class Row(NamedTuple):
    """One public op of ``efnet.tensor`` as the generic tests see it.

    ``op(*tensors, **extras)`` calls the op, with its rates and attention
    blocks closed over. ``sample(rng, lead)`` gives its float64 inputs and
    extras (masks, labels, ids, dropout draws): unbatched for ``lead`` (),
    and for (B,) a batch in which every extra, and every input that differs
    by row, has a leading B. ``wrong`` maps the unbatched inputs to a set
    of the wrong shape, ``watch`` lists the inputs the tape watches (None:
    all), and ``reduce`` gives a batch's value from its rows' values where
    it is not their stack.
    """

    name: str
    op: Callable
    sample: Callable
    wrong: Callable | None = None
    watch: tuple | None = None
    reduce: Callable | None = None

    def watched(self, arrays):
        return range(len(arrays)) if self.watch is None else self.watch


ROWS = [
    Row("matmul", tx.matmul,
        lambda rng, lead: ([rand(rng, *lead, 2, 4), rand(rng, *lead, 4, 3)], {}),
        wrong=lambda a, b: [a, b[1:]]),
    Row("add", tx.add, lambda rng, lead: ([rand(rng, *lead, 4, 3), rand(rng, 3)], {}),
        wrong=lambda a, b: [a, b[1:]]),
    Row("scale", lambda a: tx.scale(a, -2.5), lambda rng, lead: ([rand(rng, *lead, 4, 3)], {})),
    Row("concat", lambda a, b: tx.concat([a, b]),
        lambda rng, lead: ([rand(rng, *lead, 2, 3), rand(rng, *lead, 2, 2)], {}),
        wrong=lambda a, b: [a, b[1:]]),
    Row("reshape", lambda a: tx.reshape(a, a.shape[:-2] + (3, 4)),
        lambda rng, lead: ([rand(rng, *lead, 2, 6)], {}), wrong=lambda a: [a[1:]]),
    Row("transpose", tx.transpose, lambda rng, lead: ([rand(rng, *lead, 3, 5)], {}),
        wrong=lambda a: [a[0]]),
    # the uniform draws ``u`` stand in for the generator: every call drops
    # the same units
    Row("dropout", lambda a, u: tx.dropout(a, 0.4, SimpleNamespace(random=lambda _: u)),
        lambda rng, lead: ([rand(rng, *lead, 6, 5)], {"u": rng.random((*lead, 6, 5))})),
    Row("softmax", tx.softmax, lambda rng, lead: ([rand(rng, *lead, 3, 5)], {}),
        wrong=lambda a: [a[0, 0]]),
    Row("mean_pool", lambda a, mask: tx.mean_pool(a, mask),
        lambda rng, lead: ([rand(rng, *lead, 5, 3)], {"mask": ragged(lead, 5)}),
        wrong=lambda a: [a[0]]),
    Row("cross_entropy", lambda p, labels: tx.cross_entropy(p, labels),
        lambda rng, lead: ([rng.uniform(0.1, 1.0, (*lead, 3))],
                           {"labels": rng.integers(0, 3, lead or 1)}),
        wrong=lambda p: [np.stack([p, p])], reduce=np.mean),
    Row("sum_squares", lambda *parts: tx.sum_squares(parts, flat_of([p.data for p in parts])),
        lambda rng, lead: ([rand(rng, *lead, 3, 2), rand(rng, *lead, 4)], {}),
        wrong=lambda *parts: [], reduce=np.sum),
    # six ids from five table rows: every id list repeats one
    Row("embedding_lookup", lambda table, ids: tx.embedding_lookup(table, ids),
        lambda rng, lead: ([rand(rng, 5, 4)], {"ids": rng.integers(0, 5, (*lead, 6))}),
        wrong=lambda table: [table[0]]),
    Row("multi_head_attention",
        lambda q, k, v, *ws, mask: tx.multi_head_attention(q, k, v, *blocks(ws), mask=mask),
        lambda rng, lead: ([rand(rng, *lead, 2, 4), rand(rng, *lead, 5, 3),
                            rand(rng, *lead, 5, 3), rand(rng, 4, 2), rand(rng, 4, 2),
                            *(rand(rng, 3, 2) for _ in range(4))], {"mask": ragged(lead, 5)}),
        wrong=lambda q, k, v, *ws: [q, k, v[1:], *ws]),
    Row("squash", tx.squash, lambda rng, lead: ([rand(rng, *lead, 4, 3)], {}),
        wrong=lambda s: [s[0, 0]]),
    # the regions are feature grids, constants passed as a list of arrays
    Row("capsule_region_attention",
        lambda r, *ws: tx.capsule_region_attention(grids_of(r.data), *ws),
        lambda rng, lead: ([rand(rng, *lead, 6, 7) * 0.5, rand(rng, 7, 4) * 0.5,
                            rand(rng, 4) * 0.1, rand(rng, *lead, 5), rand(rng, 7, 5) * 0.5], {}),
        wrong=lambda r, w, b, q, w_r: [r, w, b, q, w_r[1:]], watch=(1, 2, 3, 4)),
    Row("gru_sequence", lambda x, h0, *ws: tx.gru_sequence(x, h0, *gru_blocks(ws)),
        lambda rng, lead: ([rand(rng, *lead, 3, 4), rand(rng, *lead, 3),
                            *gru_weights(rng, 4, 3)], {}),
        wrong=lambda x, h0, *ws: [x, h0[1:], *ws]),
    Row("bigru_sequence",
        lambda x, ctx, *ws, mask: tx.bigru_sequence(x, *gru_blocks(ws[:9], ws[9:]), context=ctx,
                                                    mask=mask),
        lambda rng, lead: ([rand(rng, *lead, 3, 2), rand(rng, *lead, 2), *gru_weights(rng, 4, 3),
                            *gru_weights(rng, 4, 3)], {"mask": ragged(lead, 3)}),
        wrong=lambda x, ctx, *ws: [x[:, 1:], ctx, *ws]),
]
FORMS = ((), (B,))


def over_rows(rows):
    return pytest.mark.parametrize("row", rows, ids=[row.name for row in rows])


def sample_of(row, lead, dtype=np.float64):
    arrays, extras = row.sample(np.random.default_rng(0), lead)
    return [a.astype(dtype) for a in arrays], extras


def call(row, arrays, extras, leaves=()):
    """``row``'s op on ``arrays`` as constants, with ``leaves`` in the
    places of the inputs it watches."""
    inputs = [Tensor(a) for a in arrays]
    for i, leaf in zip(row.watched(arrays), leaves):
        inputs[i] = leaf
    return row.op(*inputs, **extras)


def watch(row, arrays, tape):
    return [tape.watch(Tensor(arrays[i], requires_grad=True)) for i in row.watched(arrays)]


def outputs(out):
    return out if isinstance(out, tuple) else (out,)


def values(out):
    """Every output of an op as an array: its tensors' data and its plain
    arrays."""
    return [o.data if isinstance(o, Tensor) else o for o in outputs(out)]


def joined(out):
    """The tensors among an op's outputs as one tensor: the only one, or
    all of them flattened side by side."""
    ts = [o for o in outputs(out) if isinstance(o, Tensor)]
    return ts[0] if len(ts) == 1 else tx.concat([tx.reshape(t, (t.data.size,)) for t in ts])


@over_rows(ROWS)
def test_gradients_match_central_differences(row):
    """Every watched input's tape gradient against central differences, in
    float64 at GRAD_TOL."""
    for lead in FORMS:
        arrays, extras = sample_of(row, lead)
        fd_check(lambda *leaves: joined(call(row, arrays, extras, leaves)),
                 *(arrays[i] for i in row.watched(arrays)))


@over_rows(ROWS)
def test_taped_equals_untaped_bitwise(row):
    """Recording on a tape changes no bit of any output, plain arrays
    included, in float64 or float32."""
    for dtype, lead in itertools.product((np.float64, np.float32), FORMS):
        arrays, extras = sample_of(row, lead, dtype)
        tape = Tape()
        taped = call(row, arrays, extras, watch(row, arrays, tape))
        assert all(o.tape is tape for o in outputs(taped) if isinstance(o, Tensor))
        for got, want in zip(values(taped), values(call(row, arrays, extras)), strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@over_rows(ROWS)
def test_float32_in_float32_out(row):
    """Float32 inputs give float32 outputs and float32 gradients."""
    for lead in FORMS:
        arrays, extras = sample_of(row, lead, np.float32)
        tape = Tape()
        leaves = watch(row, arrays, tape)
        out = call(row, arrays, extras, leaves)
        grads = tape.backward(total(joined(out)))
        dtypes = [a.dtype for a in values(out)] + [grads[t].dtype for t in leaves]
        assert dtypes == [np.float32] * len(dtypes)


@over_rows(ROWS)
def test_batch_rows_equal_unbatched_calls(row):
    """Row i of a batch is the unbatched call on row i, or for a reduced
    op the batch value is the rows' values reduced."""
    small, _ = sample_of(row, ())
    big, extras = sample_of(row, (B,))
    batch = values(call(row, big, extras))
    per_row = []
    for i in range(B):
        inputs = [a[i] if a.shape == (B, *s.shape) else a for a, s in zip(big, small)]
        per_row.append(values(call(row, inputs, {k: v[i] for k, v in extras.items()})))
    for j, got in enumerate(batch):
        rows = [r[j] for r in per_row]
        want = np.stack(rows) if row.reduce is None else row.reduce(rows)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@over_rows([row for row in ROWS if row.wrong])
def test_wrong_shape_names_the_op(row):
    """A wrong shape raises a ShapeError whose message starts with the
    op's name."""
    arrays, extras = sample_of(row, ())
    with pytest.raises(ShapeError) as caught:
        row.op(*(Tensor(a) for a in row.wrong(*arrays)), **extras)
    assert str(caught.value).startswith(f"{row.name}: ")


def test_every_public_op_has_one_row():
    """A public function of ``efnet.tensor`` is an op, and needs a row."""
    public = [name for name, f in vars(tx).items() if inspect.isfunction(f)
              and f.__module__ == tx.__name__ and not name.startswith("_")]
    assert sorted(row.name for row in ROWS) == sorted(public)


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
        with pytest.raises(ShapeError):
            tx.matmul(Tensor(np.zeros((3, 4, 2))), Tensor(np.zeros((2, 2, 5))))

    def test_rank1_left_operand(self):
        rng = np.random.default_rng(13)
        a, b = rand(rng, 4), rand(rng, 4, 3)
        got = tx.matmul(Tensor(a), Tensor(b)).data
        assert got.shape == (3,)
        np.testing.assert_allclose(got, a @ b, atol=1e-12)
        fd_check(tx.matmul, a, b)

    def test_gradients(self):
        # sizes from 1 to 5 on each axis
        rng = np.random.default_rng(11)
        for _ in range(5):
            n, k, m = rng.integers(1, 6, size=3)
            fd_check(tx.matmul, rand(rng, n, k), rand(rng, k, m))


class TestSoftmax:
    def test_known_values(self):
        y = tx.softmax(Tensor(np.array([0.0, math.log(2.0)]))).data
        np.testing.assert_allclose(y, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 9)))
            y = tx.softmax(Tensor(x)).data
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_large_inputs_stable(self):
        y = tx.softmax(Tensor(np.array([1000.0, 1000.0]))).data
        np.testing.assert_allclose(y, [0.5, 0.5])

    def test_gradients(self):
        # one row of scores, as the single-sample classifier has
        rng = np.random.default_rng(17)
        fd_check(tx.softmax, rand(rng, 5))


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
        # a mask that skips inner rows, on one unbatched input
        rng = np.random.default_rng(23)
        mask = np.array([True, False, True, True, False])
        fd_check(lambda t: tx.mean_pool(t, mask), rand(rng, 5, 3))

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
        # two operands of one shape, not a bias
        rng = np.random.default_rng(29)
        fd_check(tx.add, rand(rng, 4, 3), rand(rng, 4, 3))


class TestShapeOps:
    def test_concat_last_axis(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0]])
        np.testing.assert_allclose(tx.concat([Tensor(a), Tensor(b)]).data, [[1.0, 2.0, 3.0]])

    def test_concat_bad_shapes(self):
        with pytest.raises(ShapeError):
            tx.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3)))])
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
        fd_check(lambda a, b: tx.concat([a, b]), rand(rng, 2, 3), rand(rng, 2, 2))
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
        # without an rng (evaluation), or at rate 0, dropout returns its input
        x = Tensor(np.ones((3, 3)))
        assert tx.dropout(x, 0.5) is x
        assert tx.dropout(x, 0.0, rng=np.random.default_rng(0)) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(41)
        x = Tensor(np.ones(10_000))
        y = tx.dropout(x, 0.3, rng=rng).data
        assert abs(y.mean() - 1.0) < 0.02
        kept = y[y != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-6)

    def test_gradient_uses_same_mask(self):
        tape = Tape()
        x = tape.watch(Tensor(np.ones(64, dtype=np.float64), requires_grad=True))
        y = tx.dropout(x, 0.4, rng=np.random.default_rng(7))
        g = tape.backward(total(y))[x]
        np.testing.assert_allclose(g, np.where(y.data != 0.0, 1.0 / 0.6, 0.0))

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            tx.dropout(Tensor(np.ones(2)), 1.0, rng=np.random.default_rng(0))

    def test_gradients(self):
        rng = np.random.default_rng(43)
        fd_check(
            lambda t: tx.dropout(t, 0.4, rng=np.random.default_rng(9)),
            rand(rng, 6, 5),
        )


class TestSquashRows:
    """The capsule squash of each row, ``tx.squash``."""

    def test_unit_norm_maps_to_half(self):
        s = np.array([[1.0, 0.0, 0.0]])
        v = tx.squash(Tensor(s)).data
        np.testing.assert_allclose(np.linalg.norm(v), 0.5, atol=1e-6)

    def test_norms_below_one_direction_kept(self):
        rng = np.random.default_rng(47)
        s = rng.standard_normal((20, 6)) * 10.0
        v = tx.squash(Tensor(s)).data
        norms = np.linalg.norm(v, axis=1)
        assert (norms < 1.0).all()
        cos = (v * s).sum(axis=1) / (np.linalg.norm(s, axis=1) * norms)
        np.testing.assert_allclose(cos, 1.0, atol=1e-6)

    def test_zero_row_stays_zero(self):
        s = np.array([[0.0, 0.0], [1.0, 1.0]])
        v = tx.squash(Tensor(s)).data
        np.testing.assert_allclose(v[0], [0.0, 0.0])
        tape = Tape()
        t = tape.watch(Tensor(s.astype(np.float64), requires_grad=True))
        g = tape.backward(total(tx.squash(t)))[t]
        np.testing.assert_allclose(g[0], [0.0, 0.0])
        assert np.isfinite(g).all()

    def test_gradients(self):
        rng = np.random.default_rng(53)
        fd_check(tx.squash, rand(rng, 4, 5) + 0.3)
        fd_check(tx.squash, rand(rng, 2, 4, 5) + 0.3)


class TestMultiHeadAttention:
    def test_matches_per_head_loop(self):
        rng = np.random.default_rng(71)
        q, k, v = rand(rng, 2, 5), rand(rng, 4, 3), rand(rng, 4, 3)
        wq = [rand(rng, 5, 2) for _ in range(3)]
        wk = [rand(rng, 3, 2) for _ in range(3)]
        wv = [rand(rng, 3, 2) for _ in range(3)]
        out, attn = tx.multi_head_attention(
            Tensor(q), Tensor(k), Tensor(v), *blocks([Tensor(w) for w in wq + wk + wv], 3))
        np.testing.assert_allclose(out.data, mha_loop_reference(q, k, v, wq, wk, wv),
                                   atol=1e-12)
        assert attn.shape == (3, 2, 4)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_mask_zeroes_weights_exactly(self):
        rng = np.random.default_rng(72)
        x = Tensor(rand(rng, 4, 3))
        ws = [Tensor(rand(rng, 3, 2)) for _ in range(6)]
        mask = np.array([True, False, True, False])
        _, attn = tx.multi_head_attention(x, x, x, *blocks(ws, 2), mask=mask)
        assert (attn[:, :, ~mask] == 0.0).all()
        with pytest.raises(MaskError):
            tx.multi_head_attention(x, x, x, *blocks(ws, 2),
                                    mask=np.zeros(4, dtype=bool))
        with pytest.raises(ShapeError):
            tx.multi_head_attention(x, x, x, *blocks(ws, 2), mask=np.ones(3, dtype=bool))

    def test_gradients(self):
        # one head and four, around the table's two
        rng = np.random.default_rng(73)
        for heads in (1, 4):
            for mask in (None, np.array([True, False, True, True, False])):
                def op(q, k, v, *ws, heads=heads, mask=mask):
                    return tx.multi_head_attention(q, k, v, *blocks(ws, heads),
                                                   mask=mask)[0]

                ws = ([rand(rng, 4, 2) for _ in range(heads)]
                      + [rand(rng, 3, 2) for _ in range(2 * heads)])
                fd_check(op, rand(rng, 2, 4), rand(rng, 5, 3), rand(rng, 5, 3), *ws)

    def test_gradients_one_tensor_for_q_k_v(self):
        rng = np.random.default_rng(74)
        mask = np.array([True, True, False, True])
        for heads in (1, 2, 4):
            def op(x, *ws, heads=heads):
                return tx.multi_head_attention(x, x, x, *blocks(ws, heads),
                                               mask=mask)[0]

            fd_check(op, rand(rng, 4, 3), *[rand(rng, 3, 2) for _ in range(3 * heads)])

    def test_batched_rows_with_ragged_masks(self):
        # each row's mask zeroes its own keys' weights in every head
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
            _, attn = tx.multi_head_attention(Tensor(q), Tensor(k), Tensor(v),
                                              *blocks(wt, heads), mask=mask)
            assert attn.shape == (3, heads, 2, 5)
            assert (attn.transpose(0, 3, 1, 2)[~mask] == 0.0).all()
        with pytest.raises(ShapeError, match="^multi_head_attention: mask"):
            tx.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), *blocks(wt, 2),
                                    mask=mask[0])


def image_operands(rng, lead):
    """Grids, w_cap, b_cap, query and w_r for the image op, the grids as
    one [(B,) 49, 7] array."""
    return (rand(rng, *lead, 49, 7) * 0.5, rand(rng, 7, 4) * 0.5, rand(rng, 4) * 0.1,
            rand(rng, *lead, 5), rand(rng, 7, 5) * 0.5)


class TestRegionAttention:
    """The attention half of the image op: one query over the region grids."""

    def explicit(self, q, r, w_r):
        # the keys r w_r formed explicitly, as the reassociated op never does
        keys = r @ w_r
        weights = softmax_rows((keys @ q[..., None])[..., 0] / math.sqrt(w_r.shape[1]))
        return (weights[..., None, :] @ keys)[..., 0, :], weights

    def test_matches_explicit_keys(self):
        rng = np.random.default_rng(81)
        for lead in ((), (3,)):
            r, w, b, q, w_r = image_operands(rng, lead)
            _, out, weights = tx.capsule_region_attention(
                grids_of(r), *(Tensor(a) for a in (w, b, q, w_r)))
            want_out, want_weights = self.explicit(q, r, w_r)
            assert out.shape == lead + (5,) and weights.shape == lead + (49,)
            np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-12)

    def test_gradients(self):
        # the attended vector alone, with the capsule weights constants
        rng = np.random.default_rng(82)
        for lead in ((), (3,)):
            r, w, b, q, w_r = image_operands(rng, lead)
            fd_check(lambda q, w_r: tx.capsule_region_attention(
                grids_of(r), Tensor(w), Tensor(b), q, w_r)[1], q, w_r)

    def test_constant_regions_stay_off_the_tape(self):
        # the op records its two outputs and nothing for the grids, whose
        # arrays it leaves as they were
        rng = np.random.default_rng(83)
        r, w, b, q, w_r = image_operands(rng, (2,))
        grids = grids_of(r.copy())
        tape = Tape()
        weights = [tape.watch(Tensor(a, requires_grad=True)) for a in (w, b, q, w_r)]
        _, out, _ = tx.capsule_region_attention(grids, *weights)
        assert len(tape) == len(weights) + 2
        grads = tape.backward(total(out))
        for grid, want in zip(grids, grids_of(r), strict=True):
            np.testing.assert_array_equal(grid, want)
        assert grads[weights[2]].shape == q.shape and grads[weights[3]].shape == w_r.shape

    def test_shape_errors(self):
        rng = np.random.default_rng(84)
        r, w, b, q, w_r = image_operands(rng, (2,))
        bad = [
            (r, q[0], w_r),          # unbatched query for two grids
            (r, q[:1], w_r),         # one query for two grids
            (r[:1], q, w_r),         # two queries for one grid
            (r[:1], q[0, :4], w_r),  # query narrower than w_r
            (r, q, w_r[:6]),         # w_r too narrow for the grids
            (r, q, w_r[:, :4]),      # w_r narrower than the query
        ]
        for grids, *attention in bad:
            with pytest.raises(ShapeError, match="^capsule_region_attention: "):
                tx.capsule_region_attention(
                    grids_of(grids), Tensor(w), Tensor(b), *(Tensor(a) for a in attention))


class TestCapsuleRegionAttention:
    """Capsules and region attention from one pass per grid."""

    def test_matches_separate_products(self):
        # the capsules from their own product; the attention half, from
        # the same pass, is checked in TestRegionAttention
        rng = np.random.default_rng(85)
        for lead in ((), (3,)):
            r, w, b, q, w_r = image_operands(rng, lead)
            s, _, _ = tx.capsule_region_attention(
                grids_of(r), *(Tensor(a) for a in (w, b, q, w_r)))
            pre = r @ w + b
            norm2 = (pre * pre).sum(axis=-1, keepdims=True)
            assert s.shape == lead + (49, 4)
            np.testing.assert_allclose(s.data, pre * np.sqrt(norm2) / (1.0 + norm2),
                                       rtol=0, atol=1e-12)

    def test_gradients(self):
        # every weight in float64; the grids are constants
        rng = np.random.default_rng(86)
        for lead in ((), (3,)):
            r, w, b, q, w_r = image_operands(rng, lead)
            fd_check(lambda *ts: joined(tx.capsule_region_attention(grids_of(r), *ts)),
                     w, b, q, w_r)

    def test_one_output_used(self):
        # the second output hands its gradient to the first; each output
        # alone still reaches every input it depends on
        rng = np.random.default_rng(87)
        r, w, b, q, w_r = image_operands(rng, (2,))
        fd_check(lambda w, b: tx.capsule_region_attention(
            grids_of(r), w, b, Tensor(q), Tensor(w_r, requires_grad=True))[0], w, b)
        fd_check(lambda q, w_r: tx.capsule_region_attention(
            grids_of(r), Tensor(w, requires_grad=True), Tensor(b), q, w_r)[1], q, w_r)

    def test_row_sources(self):
        # grids given as reading functions give the result of the same
        # grids as arrays; untaped, every function after the first is
        # handed the array the previous one returned, and under a tape None
        rng = np.random.default_rng(90)
        r, w, b, q, w_r = image_operands(rng, (3,))

        def run(grids, taped):
            tape = Tape()
            weights = [Tensor(a, requires_grad=taped) for a in (w, b, q, w_r)]
            if taped:
                weights = [tape.watch(t) for t in weights]
            got = tx.capsule_region_attention(grids, *weights)
            grads = tape.backward(total(got[1])) if taped else None
            return got, [grads[t] for t in weights] if taped else []

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

            got, got_grads = run([reader(0), r[1], reader(2)], taped)
            want, want_grads = run(grids_of(r), taped)
            for g, x in zip(values(got) + got_grads, values(want) + want_grads, strict=True):
                np.testing.assert_array_equal(g, x)
            assert handed[0] is None
            assert (handed[1] is None) if taped else (handed[1] is not None)

    def test_shape_errors(self):
        rng = np.random.default_rng(91)
        r, w, b, q, w_r = image_operands(rng, (2,))
        bad = [
            ([r[0, 0], r[1, 0]], w, b, q, w_r),  # grids of rank 1
            ([], w, b, q[:0], w_r),               # no grid
            (r, w[:6], b, q, w_r),                # capsule weight too narrow
            (r, w, b[:3], q, w_r),                # bias of the wrong width
            ([r[0], r[1, :48]], w, b, q, w_r),   # a grid of fewer rows
        ]
        for grids, *weights in bad:
            with pytest.raises(ShapeError, match="^capsule_region_attention: "):
                tx.capsule_region_attention(
                    grids if isinstance(grids, list) else grids_of(grids),
                    *(Tensor(a) for a in weights))


class TestGRUSequence:
    def test_matches_step_loop(self):
        rng = np.random.default_rng(75)
        x, h0 = rand(rng, 3, 5), rand(rng, 4)
        ws = [Tensor(w) for w in gru_weights(rng, 5, 4)]
        gru = GRUParams(*ws)
        got = tx.gru_sequence(Tensor(x), Tensor(h0), *gru_blocks(ws)).data
        np.testing.assert_allclose(got, gru_reference(x, gru, h0=h0), atol=1e-12)
        got = tx.gru_sequence(Tensor(x), None, *gru_blocks(ws)).data
        np.testing.assert_allclose(got, gru_reference(x, gru), atol=1e-12)

    def test_shape_errors(self):
        rng = np.random.default_rng(76)
        ws = [Tensor(w) for w in gru_weights(rng, 3, 2)]
        with pytest.raises(ShapeError):
            tx.gru_sequence(Tensor(np.zeros((2, 4))), None, *gru_blocks(ws))
        with pytest.raises(ShapeError):
            tx.gru_sequence(Tensor(np.zeros((0, 3))), None, *gru_blocks(ws))
        with pytest.raises(ShapeError):
            tx.gru_sequence(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), *gru_blocks(ws))

    def test_gradients(self):
        # one step, as gru_cell runs it, with a state and without one, on
        # two draws each; the row of the step with a state is drawn in halves
        rng = np.random.default_rng(77)
        for _ in range(2):
            x, h0, x_more = rand(rng, 1, 2), rand(rng, 3), rand(rng, 2)
            fd_check(lambda x, h0, *ws: tx.gru_sequence(x, h0, *gru_blocks(ws)),
                     np.concatenate([x, x_more[None]], axis=1), h0, *gru_weights(rng, 4, 3))
            fd_check(lambda x, *ws: tx.gru_sequence(x, None, *gru_blocks(ws)),
                     rand(rng, 1, 4), *gru_weights(rng, 4, 3))


class TestBiGRUSequence:
    def test_matches_two_directions(self):
        rng = np.random.default_rng(81)
        for batched in (False, True):
            shape = (3, 4, 2) if batched else (4, 2)
            x, ctx = rand(rng, *shape), rand(rng, *shape[:-2], 3)
            lengths = [4, 1, 3] if batched else [4]
            mask = (np.arange(4) < np.array(lengths)[:, None]) if batched else None
            fwd = [Tensor(w) for w in gru_weights(rng, 5, 4)]
            bwd = [Tensor(w) for w in gru_weights(rng, 5, 4)]
            got = tx.bigru_sequence(Tensor(x), *gru_blocks(fwd, bwd), context=Tensor(ctx),
                                    mask=mask).data
            # each row's first n steps, its context after each, forward and reversed
            for row, xs, c, n in zip(got.reshape(-1, 4, 8), x.reshape(-1, 4, 2),
                                     ctx.reshape(-1, 3), lengths):
                x_ctx = np.concatenate([xs[:n], np.tile(c, (n, 1))], axis=1)
                want = np.concatenate([gru_reference(x_ctx, GRUParams(*fwd)),
                                       gru_reference(x_ctx, GRUParams(*bwd), reverse=True)],
                                      axis=1)
                np.testing.assert_allclose(row[:n], want, atol=1e-12)

    def test_batched_rows_with_ragged_masks(self):
        # padding at the end of a row leaves that row's real states exact,
        # in both directions
        rng = np.random.default_rng(79)
        lengths = [3, 1, 2]
        mask = np.arange(3) < np.array(lengths)[:, None]
        x, ctx = rand(rng, 3, 3, 2), rand(rng, 3, 3)
        fwd = [Tensor(w) for w in gru_weights(rng, 5, 4)]
        ws = gru_blocks(fwd, [Tensor(w) for w in gru_weights(rng, 5, 4)])
        got = tx.bigru_sequence(Tensor(x), *ws, context=Tensor(ctx), mask=mask).data
        for i, n in enumerate(lengths):
            one = tx.bigru_sequence(Tensor(x[i, :n]), *ws, context=Tensor(ctx[i])).data
            np.testing.assert_allclose(got[i, :n], one, atol=1e-12)
        with pytest.raises(ShapeError, match="context"):
            tx.bigru_sequence(Tensor(x), *ws, context=Tensor(ctx[0]))

    def test_gradients(self):
        # one step; the table's row has three
        rng = np.random.default_rng(82)
        fd_check(lambda x, ctx, *ws: tx.bigru_sequence(x, *gru_blocks(ws[:9], ws[9:]),
                                                       context=ctx),
                 rand(rng, 1, 2), rand(rng, 2), *gru_weights(rng, 4, 3), *gru_weights(rng, 4, 3))

    def test_shape_errors(self):
        rng = np.random.default_rng(83)
        fwd = [Tensor(w) for w in gru_weights(rng, 3, 2)]
        one_direction = gru_blocks(fwd)
        with pytest.raises(ShapeError, match="bigru_sequence"):
            tx.bigru_sequence(Tensor(np.zeros((2, 3))), *one_direction)
        with pytest.raises(ShapeError, match="bigru_sequence"):
            tx.bigru_sequence(Tensor(np.zeros((0, 3))), *gru_blocks(fwd, fwd))


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

    @staticmethod
    def spy_rule(tape, out):
        """Wrap the backward rule of the node that recorded ``out``; returns
        the list that gets what the rule returns at each call."""
        node = tape._nodes[out.node]
        rule, returned = node.backward, []

        def spy(g):
            returned.append(rule(g))
            return returned[-1]

        node.backward = spy
        return returned

    def test_fused_rule_runs_once_per_backward(self):
        # the attention op has 9 inputs on the tape (x three times and 6
        # leaves), the Bi-GRU 20; each rule runs once per pass all the same
        rng = np.random.default_rng(61)
        tape = Tape()
        x = tape.watch(Tensor(rand(rng, 2, 3, 8), requires_grad=True))
        mha = MHAParams.create(rng, 2, 8, 8, 8, dtype=np.float64)
        attended = ly.mhsa(x, mha)
        gru = [GRUParams.create(rng, 16, 4, dtype=np.float64) for _ in range(2)]
        states = ly.bigru_encode(attended, tx.mean_pool(attended), *gru)
        assert [len(tape._nodes[t.node].parents) for t in (attended, states)] == [9, 20]
        calls = [self.spy_rule(tape, t) for t in (attended, states)]
        loss = total(states)
        for passes in (1, 2):
            grads = tape.backward(loss)
            assert [len(c) for c in calls] == [passes, passes]
        assert all(w in grads for w in mha.wq + mha.wk + mha.wv)

    def test_rule_none_leaves_input_without_gradient(self):
        # with only the capsule output used, the region op's rule gives None
        # for the query and w_r, which are on the tape as its parents but
        # get no gradient; the grids are never among its inputs
        rng = np.random.default_rng(62)
        tape = Tape()
        w_cap, b_cap, query, w_r = (tape.watch(Tensor(a, requires_grad=True))
                                    for a in (rand(rng, 6, 4), rand(rng, 4), rand(rng, 3),
                                              rand(rng, 6, 3)))
        s, _, _ = tx.capsule_region_attention([rand(rng, 5, 6)], w_cap, b_cap, query, w_r)
        assert len(tape._nodes[s.node].parents) == 4
        returned = self.spy_rule(tape, s)
        grads = tape.backward(total(s))
        assert [g is None for g in returned[0]] == [False, False, True, True]
        assert w_cap in grads and b_cap in grads
        assert query not in grads and w_r not in grads

    def test_chained_ops_full_check(self):
        rng = np.random.default_rng(59)

        def net(a, b, c):
            h = tx.softmax(tx.matmul(a, b))
            return tx.mean_pool(tx.matmul(h, c))

        fd_check(net, rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5, 4))
