import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

from efnet import data as dio
from efnet.data import (
    CUE_TOKENS,
    FEATURE_MAGIC,
    FEATURE_SHAPE,
    FormatError,
    InputError,
    ParseError,
    Sample,
)


def batch_config(batch_size=2, max_len=36, text_only=True):
    return dict(batch_size=batch_size, max_len=max_len, text_only=text_only)


class TestEmbeddings:
    def write(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_tokens_make_four_rows(self, tmp_path):
        path = self.write(tmp_path, "cat 0.1 0.2 0.3\ndog 1 2 3\n")
        table = dio.load_embeddings(path)
        assert table.matrix.shape == (4, 3)
        np.testing.assert_allclose(table.matrix.data[0], 0.0)
        assert (np.abs(table.matrix.data[1]) <= 0.05).all()
        np.testing.assert_allclose(table.matrix.data[2], [0.1, 0.2, 0.3], rtol=1e-6)
        np.testing.assert_allclose(table.matrix.data[3], [1.0, 2.0, 3.0])

    def test_unknown_token_falls_back(self, tmp_path):
        table = dio.load_embeddings(self.write(tmp_path, "cat 0.5 0.5\n"))
        np.testing.assert_array_equal(table.token_ids(["cat", "unseen"]), [2, 1])
        assert table.token_ids([]).dtype == np.int64 and table.token_ids([]).shape == (0,)

    def test_inconsistent_width(self, tmp_path):
        path = self.write(tmp_path, "cat 1 2 3\ndog 1 2\n")
        with pytest.raises(ParseError, match="line 2"):
            dio.load_embeddings(path)

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            dio.load_embeddings(self.write(tmp_path, "cat 1 x 3\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_value_names_file_line_and_token(self, tmp_path, value):
        # 1e39 is finite as a float but overflows the float32 table
        path = self.write(tmp_path, f"cat 1 2\ndog 3 {value}\n")
        with pytest.raises(ParseError, match=rf"emb\.txt: line 2: token 'dog'"):
            dio.load_embeddings(path)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"cat 0.1 0.2\ndog 0.3 0.4\xe9\n")
        with pytest.raises(ParseError, match=r"emb\.txt: line 2: byte 0xe9 is not UTF-8"):
            dio.load_embeddings(path)

    def test_duplicate_token(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate"):
            dio.load_embeddings(self.write(tmp_path, "cat 1 2\ncat 3 4\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(InputError):
            dio.load_embeddings(self.write(tmp_path, ""))

    def test_unk_row_is_seeded(self, tmp_path):
        path = self.write(tmp_path, "cat 1 2 3\n")
        a = dio.load_embeddings(path, rng=np.random.default_rng(5))
        b = dio.load_embeddings(path, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.matrix.data, b.matrix.data)


def make_sample(i=0, image=None, tokens=None, span=(1, 2)):
    return Sample(
        id=f"s{i}",
        tokens=tokens or ["the", "shop", "was", "fine"],
        target_span=span,
        aspect_tokens=["service"],
        label=2,
        image_ref=image,
    )


class TestDataset:
    def test_round_trip(self, tmp_path):
        feat = tmp_path / "feats" / "a.efvf"
        feat.parent.mkdir()
        samples = [make_sample(0), make_sample(1, image=str(feat))]
        path = tmp_path / "data.jsonl"
        dio.write_dataset(path, samples)
        loaded = dio.load_dataset(path)
        assert loaded == samples

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        assert dio.load_dataset(path) == []

    def write_record(self, tmp_path, **overrides):
        obj = {
            "id": "s0",
            "tokens": ["a", "b", "c"],
            "target": {"start": 0, "end": 1},
            "aspect": ["x"],
            "label": "positive",
        }
        obj.update(overrides)
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        return path

    def test_unknown_label(self, tmp_path):
        path = self.write_record(tmp_path, label="great")
        with pytest.raises(ParseError, match="record 1"):
            dio.load_dataset(path)

    def test_span_out_of_range(self, tmp_path):
        for span in ({"start": 2, "end": 2}, {"start": -1, "end": 1}, {"start": 0, "end": 4}):
            with pytest.raises(ParseError, match="span"):
                dio.load_dataset(self.write_record(tmp_path, target=span))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "s0",\n', encoding="utf-8")
        with pytest.raises(ParseError, match="record 1"):
            dio.load_dataset(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "s0", "tokens": ["a"]}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="target"):
            dio.load_dataset(path)

    def test_empty_tokens(self, tmp_path):
        with pytest.raises(ParseError, match="tokens"):
            dio.load_dataset(self.write_record(tmp_path, tokens=[]))

    def test_non_utf8_byte_names_file_and_record(self, tmp_path):
        path = self.write_record(tmp_path)
        path.write_bytes(path.read_bytes() + b'{"id": "s\xff1"}\n')
        with pytest.raises(ParseError, match=r"data\.jsonl: record 2: byte 0xff is not UTF-8"):
            dio.load_dataset(path)

    def test_record_index_counts_lines(self, tmp_path):
        good = {
            "id": "s0", "tokens": ["a", "b"], "target": {"start": 0, "end": 1},
            "aspect": ["x"], "label": "neutral",
        }
        bad = dict(good, label="nope")
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="record 2"):
            dio.load_dataset(path)


class TestImageFeatures:
    def ramp(self):
        n = int(np.prod(FEATURE_SHAPE))
        return (np.arange(n, dtype=np.float32) % 997).reshape(FEATURE_SHAPE)

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "a.efvf"
        values = self.ramp()
        dio.write_image_features(path, values)
        got = dio.load_image_features(path).data
        np.testing.assert_array_equal(got, values)

    def corrupt(self, tmp_path, mutate):
        path = tmp_path / "bad.efvf"
        dio.write_image_features(path, self.ramp())
        blob = bytearray(path.read_bytes())
        blob = mutate(blob)
        path.write_bytes(bytes(blob))
        return path

    def test_bad_magic(self, tmp_path):
        path = self.corrupt(tmp_path, lambda b: b"XXXX" + b[4:])
        with pytest.raises(FormatError, match="magic"):
            dio.load_image_features(path)

    def test_bad_version(self, tmp_path):
        def mutate(b):
            b[4:8] = (9).to_bytes(4, "little")
            return b

        with pytest.raises(FormatError, match="version"):
            dio.load_image_features(self.corrupt(tmp_path, mutate))

    def test_bad_ndims(self, tmp_path):
        def mutate(b):
            b[8:12] = (2).to_bytes(4, "little")
            return b

        with pytest.raises(FormatError, match="ndims"):
            dio.load_image_features(self.corrupt(tmp_path, mutate))

    def test_bad_dims(self, tmp_path):
        def mutate(b):
            b[20:24] = (1024).to_bytes(4, "little")
            return b

        with pytest.raises(FormatError, match="dims"):
            dio.load_image_features(self.corrupt(tmp_path, mutate))

    def test_short_payload(self, tmp_path):
        path = self.corrupt(tmp_path, lambda b: b[:-4])
        with pytest.raises(FormatError) as caught:
            dio.load_image_features(path)
        assert str(caught.value) == f"{path}: payload is 401404 bytes, expected 401408"

    def test_trailing_garbage(self, tmp_path):
        path = self.corrupt(tmp_path, lambda b: b + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError) as caught:
            dio.load_image_features(path)
        assert str(caught.value) == f"{path}: payload is 401412 bytes, expected 401408"

    @pytest.mark.parametrize("mutate, message", [
        (lambda b: b[:24], "payload is 0 bytes, expected 401408"),
        (lambda b: b[:10], "truncated header (version/ndims)"),
        (lambda b: b[:23], "truncated dims"),
        (lambda b: b"", f"bad magic, expected {FEATURE_MAGIC!r}"),
    ], ids=["header-only", "10-bytes", "23-bytes", "empty"])
    def test_exact_size_messages(self, tmp_path, mutate, message):
        path = self.corrupt(tmp_path, mutate)
        with pytest.raises(FormatError) as caught:
            dio.load_image_features(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            dio.load_image_features(tmp_path / "absent.efvf")

    def test_directory_is_input_error_naming_it(self, tmp_path):
        with pytest.raises(InputError) as caught:
            dio.load_image_features(tmp_path)
        assert str(caught.value) == (f"cannot read feature file {tmp_path}: [Errno "
                                     f"{errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                                     f"'{tmp_path}'")

    @pytest.mark.parametrize("out", [np.empty(FEATURE_SHAPE), np.empty(10, dtype="<f4"),
                                     np.empty((49, 4096), dtype="<f4")[:, ::2]],
                             ids=["float64", "size-10", "strided"])
    def test_out_of_wrong_layout_is_rejected(self, tmp_path, out):
        path = self.corrupt(tmp_path, lambda b: b)
        with pytest.raises(ValueError) as caught:
            dio.load_image_features(path, out=out)
        assert str(caught.value) == f"cannot read {path} into {out.dtype} {out.shape}"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors through /proc/self/fd")
    def test_no_error_path_leaves_a_descriptor_open(self, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        bad = [self.corrupt(tmp_path, mutate) for mutate in
               (lambda b: b[:-4], lambda b: b + b"\x00", lambda b: b[:10],
                lambda b: b"XXXX" + b[4:])]
        cases = [(p, None) for p in bad + [tmp_path, tmp_path / "absent.efvf"]]
        good = tmp_path / "good.efvf"
        dio.write_image_features(good, self.ramp())
        cases.append((good, np.empty(10, dtype="<f4")))
        before = open_fds()
        for path, out in cases:
            with pytest.raises(ValueError):
                dio.load_image_features(path, out=out)
        dio.load_image_features(good)
        assert open_fds() == before

    def test_wrong_write_shape(self):
        with pytest.raises(FormatError):
            dio.write_image_features("/tmp/never-written.efvf", np.zeros((7, 7, 8)))


class TestBatching:
    def table(self, tmp_path):
        text = "".join(f"t{i} {i}.0 {i}.5\n" for i in range(30))
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        return dio.load_embeddings(path)

    def samples(self, count):
        return [
            Sample(
                id=f"s{i}",
                tokens=[f"t{(i + j) % 30}" for j in range(4 + i % 3)],
                target_span=(1, 2),
                aspect_tokens=["t0"],
                label=i % 3,
            )
            for i in range(count)
        ]

    def test_batch_sizes(self, tmp_path):
        table = self.table(tmp_path)
        batches = dio.make_batches(
            self.samples(5), table, **batch_config(batch_size=2), rng=np.random.default_rng(0)
        )
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_same_seed_same_order(self, tmp_path):
        table = self.table(tmp_path)
        samples = self.samples(9)
        a = dio.make_batches(samples, table, **batch_config(), rng=np.random.default_rng(42))
        b = dio.make_batches(samples, table, **batch_config(), rng=np.random.default_rng(42))
        assert [x.ids for x in a] == [y.ids for y in b]

    def test_padding_masked_false(self, tmp_path):
        table = self.table(tmp_path)
        batches = dio.make_batches(
            self.samples(4), table, **batch_config(batch_size=4), rng=np.random.default_rng(1)
        )
        b = batches[0]
        assert (b.token_ids[~b.mask] == dio.PAD_INDEX).all()
        for i in range(len(b)):
            real = int(b.mask[i].sum())
            assert b.mask[i, :real].all() and not b.mask[i, real:].any()

    def test_targets_and_aspects_padded_per_row(self, tmp_path):
        table = self.table(tmp_path)
        samples = [
            Sample(id="a", tokens=["t1", "t2", "t3"], target_span=(1, 3),
                   aspect_tokens=["t4"], label=0),
            Sample(id="b", tokens=["t5", "t6"], target_span=(0, 1),
                   aspect_tokens=["t7", "t8", "t9"], label=2),
        ]
        (b,) = dio.make_batches(samples, table, **batch_config())
        assert b.ids == ["a", "b"]
        np.testing.assert_array_equal(b.spans, [[1, 3], [0, 1]])
        np.testing.assert_array_equal(b.target_ids, [table.token_ids(["t2", "t3"]),
                                                     [table.index["t5"], dio.PAD_INDEX]])
        np.testing.assert_array_equal(b.target_mask, [[True, True], [True, False]])
        np.testing.assert_array_equal(b.aspect_mask, [[True, False, False], [True, True, True]])
        np.testing.assert_array_equal(b.aspect_ids[1], table.token_ids(["t7", "t8", "t9"]))
        assert b.aspect_ids[0, 1:].tolist() == [dio.PAD_INDEX] * 2
        assert b.labels.tolist() == [0, 2]
        assert b.features == [None, None]

    def test_truncation_window_keeps_span(self, tmp_path):
        table = self.table(tmp_path)
        tokens = [f"t{i % 30}" for i in range(50)]
        sample = Sample(
            id="long", tokens=tokens, target_span=(40, 42),
            aspect_tokens=["t1"], label=0,
        )
        enc = dio.encode_sample(sample, table, max_len=10, with_features=False)
        assert len(enc.token_ids) == 10
        s, e = enc.span
        assert 0 <= s < e <= 10
        np.testing.assert_array_equal(
            enc.token_ids[s:e], table.token_ids(tokens[40:42])
        )

    def test_span_wider_than_max_len(self, tmp_path):
        table = self.table(tmp_path)
        sample = Sample(
            id="wide", tokens=[f"t{i}" for i in range(20)], target_span=(2, 18),
            aspect_tokens=["t1"], label=0,
        )
        with pytest.raises(InputError, match="wide"):
            dio.encode_sample(sample, table, max_len=8, with_features=False)

    def test_multimodal_requires_image(self, tmp_path):
        table = self.table(tmp_path)
        with pytest.raises(InputError, match="s0"):
            dio.make_batches(self.samples(1), table, **batch_config(text_only=False),
                             rng=np.random.default_rng(0))

    def test_features_loaded_when_multimodal(self, tmp_path):
        table = self.table(tmp_path)
        values = np.full(FEATURE_SHAPE, 0.25, dtype=np.float32)
        feat = tmp_path / "x.efvf"
        dio.write_image_features(feat, values)
        sample = make_sample(0, image=str(feat))
        batches = dio.make_batches(
            [sample], table, **batch_config(text_only=False), rng=np.random.default_rng(0)
        )
        got = batches[0]
        # the batch carries the file, read when the batch runs
        assert got.features == [str(feat)]
        np.testing.assert_array_equal(dio.load_image_features(got.features[0]).data, values)
        assert got.labels.tolist() == [sample.label]


def loop_collate(encoded):
    """Reference batch: the samples padded one row at a time."""
    def pad(rows, masks=None):
        width = max(len(r) for r in rows)
        ids = np.full((len(rows), width), dio.PAD_INDEX, dtype=np.int64)
        mask = np.zeros((len(rows), width), dtype=bool)
        for i, r in enumerate(rows):
            ids[i, : len(r)] = r
            mask[i, : len(r)] = True if masks is None else masks[i]
        return ids, mask

    token_ids, mask = pad([e.token_ids for e in encoded], [e.mask for e in encoded])
    target_ids, target_mask = pad([e.token_ids[e.span[0] : e.span[1]] for e in encoded])
    aspect_ids, aspect_mask = pad([e.aspect_ids for e in encoded])
    return dio.Batch(
        ids=[e.id for e in encoded], token_ids=token_ids, mask=mask,
        spans=np.array([e.span for e in encoded], dtype=np.int64),
        target_ids=target_ids, target_mask=target_mask,
        aspect_ids=aspect_ids, aspect_mask=aspect_mask,
        labels=np.array([e.label for e in encoded], dtype=np.int64),
        features=[e.features for e in encoded],
    )


def assert_same_batch(got, want):
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert (other.dtype, other.shape) == (value.dtype, value.shape), name
            assert other.tobytes() == value.tobytes(), name
        else:
            assert other == value, name


class TestBatchBuilders:
    """``make_batches`` builds each batch from whole arrays; it must give
    what ``collate`` and a row-by-row padding give for the same samples."""

    MAX_LEN = 9

    @pytest.fixture(scope="class", params=[1, 2, 3])
    def corpus(self, request, tmp_path_factory):
        # a synth corpus with wider targets and aspects, tokens the table
        # lacks, and sentences longer than the truncation window
        root = tmp_path_factory.mktemp(f"builders{request.param}")
        dio.synth_generate(root, seed=request.param, n=70, vocab_size=12,
                           grid_rule="none", embed_dim=4)
        table = dio.load_embeddings(root / "embeddings.txt")
        samples = dio.load_dataset(root / "dataset.jsonl")
        rng = np.random.default_rng(request.param)
        vocab = [f"w{i}" for i in range(12)] + ["oov1", "oov2"]
        for i, s in enumerate(samples):
            s.tokens += [vocab[j] for j in rng.integers(0, len(vocab), size=rng.integers(0, 4))]
            start = int(rng.integers(0, len(s.tokens)))
            s.target_span = (start, min(len(s.tokens), start + int(rng.integers(1, 5))))
            s.aspect_tokens = [vocab[j] for j in rng.integers(0, len(vocab),
                                                               size=rng.integers(1, 4))]
            s.image_ref = f"grid{i}.efvf"
        assert any(len(s.tokens) > self.MAX_LEN for s in samples)
        return table, samples

    @pytest.mark.parametrize("text_only", [True, False])
    @pytest.mark.parametrize("batch_size", [1, 3, 32])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_make_batches_equals_collate_of_encoded(self, corpus, text_only, batch_size,
                                                    seed):
        table, samples = corpus
        batches = dio.make_batches(samples, table, batch_size=batch_size,
                                   max_len=self.MAX_LEN, text_only=text_only,
                                   rng=None if seed is None else np.random.default_rng(seed))
        order = (range(len(samples)) if seed is None
                 else np.random.default_rng(seed).permutation(len(samples)))
        encoded = []
        for i in order:
            enc = dio.encode_sample(samples[i], table, self.MAX_LEN, with_features=False)
            enc.features = None if text_only else samples[i].image_ref
            encoded.append(enc)
        assert len(batches) == -(-len(samples) // batch_size)
        for at, batch in zip(range(0, len(encoded), batch_size), batches):
            rows = encoded[at : at + batch_size]
            assert_same_batch(batch, loop_collate(rows))
            assert_same_batch(dio.collate(rows), loop_collate(rows))

    def test_collate_keeps_partial_masks(self, corpus):
        table, samples = corpus
        rng = np.random.default_rng(0)
        encoded = [dio.encode_sample(s, table, self.MAX_LEN, with_features=False)
                   for s in samples[:6]]
        for enc in encoded:
            enc.mask = rng.random(len(enc.token_ids)) < 0.6
        batch = dio.collate(encoded)
        assert_same_batch(batch, loop_collate(encoded))
        # some real tokens are masked out, not only the padding
        assert (~batch.mask & (batch.token_ids != dio.PAD_INDEX)).any()


class TestSynthGenerate:
    def test_empty_corpus(self, tmp_path):
        dio.synth_generate(tmp_path, seed=1, n=0)
        assert dio.load_dataset(tmp_path / "dataset.jsonl") == []
        assert not (tmp_path / "features").exists()
        assert (tmp_path / "embeddings.txt").exists()
        assert (tmp_path / "rule.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        dio.synth_generate(a, seed=7, n=12, grid_rule="both")
        dio.synth_generate(b, seed=7, n=12, grid_rule="both")
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def relabel(self, out_dir):
        """Independent re-application of the emitted rule."""
        rule = json.loads((Path(out_dir) / "rule.json").read_text())
        samples = dio.load_dataset(Path(out_dir) / "dataset.jsonl")
        labels = []
        for s in samples:
            cue = None
            present = [i for i, t in enumerate(rule["cue_tokens"]) if t in s.tokens]
            if present:
                assert len(present) == 1
                cue = present[0]
            cell = None
            if s.image_ref is not None:
                grid = dio.load_image_features(s.image_ref).data.mean(axis=2)
                r, c = np.unravel_index(np.argmax(grid), grid.shape)
                cell = [list(x) for x in rule["bright_cells"]].index([int(r), int(c)])
            if rule["grid_rule"] == "none":
                labels.append(cue)
            elif rule["grid_rule"] == "cell":
                labels.append(cell)
            else:
                labels.append((cue + cell) % 3)
        return samples, labels

    @pytest.mark.parametrize("grid_rule", ["none", "cell", "both"])
    def test_oracle_relabels_exactly(self, tmp_path, grid_rule):
        dio.synth_generate(tmp_path, seed=11, n=30, grid_rule=grid_rule)
        samples, labels = self.relabel(tmp_path)
        assert len(samples) == 30
        assert [s.label for s in samples] == labels
        assert set(labels) == {0, 1, 2}

    def test_text_rule_has_no_images(self, tmp_path):
        dio.synth_generate(tmp_path, seed=3, n=10, grid_rule="none")
        samples = dio.load_dataset(tmp_path / "dataset.jsonl")
        assert all(s.image_ref is None for s in samples)
        assert not (tmp_path / "features").exists()

    def test_lengths_and_vocabulary(self, tmp_path):
        dio.synth_generate(tmp_path, seed=9, n=25, grid_rule="both", vocab_size=15)
        table = dio.load_embeddings(tmp_path / "embeddings.txt")
        samples = dio.load_dataset(tmp_path / "dataset.jsonl")
        for s in samples:
            assert 5 <= len(s.tokens) <= 31
            assert (table.token_ids(s.tokens) != dio.UNK_INDEX).all()
        assert table.matrix.shape == (15 + len(CUE_TOKENS) + 2, 50)

    def test_bad_rule_rejected(self, tmp_path):
        with pytest.raises(InputError):
            dio.synth_generate(tmp_path, seed=0, n=1, grid_rule="sparkle")
