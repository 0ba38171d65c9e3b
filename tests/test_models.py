"""Model-level behavior: encoder sharing, masking, wildcard dropout, shapes."""

from __future__ import annotations

import numpy as np
import pytest

from glyphtext.errors import ParameterError, ShapeError
from glyphtext.models import (
    CLCNN_MIN_LEN,
    ModelConfig,
    bigru_forward,
    _encoder_stack,
    clcnn_forward,
    encode_unique,
    forward_documents,
    init_params,
    wildcard_dropout,
)
from glyphtext.nn.ops import Tensor

F32 = np.float32


def bigru_cfg(**kw):
    base = dict(classifier="bigru", num_classes=3, max_len=None, wildcard_ratio=0.0)
    base.update(kw)
    return ModelConfig(**base)


def rand_bank(g, rng):
    return rng.random((g, 1, 36, 36), dtype=F32)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_values():
    with pytest.raises(ParameterError):
        ModelConfig(classifier="mlp", num_classes=3)
    with pytest.raises(ParameterError):
        ModelConfig(classifier="bigru", num_classes=1)
    with pytest.raises(ParameterError):
        ModelConfig(classifier="bigru", num_classes=3, wildcard_ratio=1.0)
    with pytest.raises(ParameterError):
        ModelConfig(classifier="clcnn", num_classes=3)  # needs max_len
    with pytest.raises(ParameterError):
        ModelConfig(classifier="clcnn", num_classes=3, max_len=CLCNN_MIN_LEN - 1)
    ModelConfig(classifier="clcnn", num_classes=3, max_len=CLCNN_MIN_LEN)


def test_init_params_deterministic():
    cfg = bigru_cfg()
    a = init_params(cfg, seed=5)
    b = init_params(cfg, seed=5)
    c = init_params(cfg, seed=6)
    assert set(a.params) == set(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data), k
    assert any(not np.array_equal(a.params[k].data, c.params[k].data) for k in a.params)


def test_parameter_shapes_pin_the_architecture():
    p = init_params(bigru_cfg(num_classes=7), seed=0).params
    assert p["enc.fc1.w"].shape == (128, 800)   # 36->34->17->15->7->5, 32*5*5
    assert p["cls.bn.gamma"].shape == (256,)    # 2 * 128 sentence embedding
    assert p["cls.fc.w"].shape == (7, 256)
    q = init_params(ModelConfig("clcnn", num_classes=11, max_len=60), seed=0).params
    assert q["cls.fc1.w"].shape == (1024, 1024)  # 512 channels * adaptive pool 2
    assert q["cls.fc2.w"].shape == (11, 1024)


# ---------------------------------------------------------------------------
# character encoder


def test_encode_unique_matches_per_position_encoding():
    cfg = bigru_cfg()
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(1)
    bank = rand_bank(5, rng)
    ids = np.array([[1, 3, 3], [4, 1, 0]])
    dedup = encode_unique(ids, bank, params)
    naive = _encoder_stack(Tensor(bank[ids.ravel()]), params.params).data.reshape(2, 3, 128)
    assert np.allclose(dedup.data, naive, atol=1e-5)
    # gathered rows for the same glyph id are bitwise identical
    assert np.array_equal(dedup.data[0, 1], dedup.data[0, 2])
    assert np.array_equal(dedup.data[0, 0], dedup.data[1, 1])


def test_encode_unique_rejects_out_of_range_ids():
    cfg = bigru_cfg()
    params = init_params(cfg, seed=0)
    bank = rand_bank(3, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        encode_unique(np.array([[0, 3]]), bank, params)


# ---------------------------------------------------------------------------
# wildcard dropout


def test_wildcard_dropout_eval_and_zero_ratio_are_identity():
    rng = np.random.default_rng(2)
    emb = Tensor(rng.random((2, 4, 128), dtype=F32))
    assert np.array_equal(wildcard_dropout(emb, 0.5, rng, "eval").data, emb.data)
    assert np.array_equal(wildcard_dropout(emb, 0.0, rng, "train").data, emb.data)


def test_wildcard_dropout_zeroes_whole_character_vectors():
    rng = np.random.default_rng(3)
    emb_np = np.ones((4, 200, 128), dtype=F32)
    out = wildcard_dropout(Tensor(emb_np), 0.25, rng, "train").data
    row_sums = out.sum(axis=2)  # (4, 200)
    zeroed = row_sums == 0.0
    kept = np.isclose(row_sums, 128.0 / 0.75)
    # every position is either fully dropped or fully kept (and rescaled)
    assert np.all(zeroed | kept)
    frac = zeroed.mean()
    assert 0.18 < frac < 0.32  # ~Binomial(800, 0.25)


# ---------------------------------------------------------------------------
# BiGRU classifier


def test_bigru_padding_never_leaks_into_logits():
    cfg = bigru_cfg()
    params = init_params(cfg, seed=4)
    rng = np.random.default_rng(4)
    core = rng.random((2, 3, 128), dtype=F32)
    lengths = np.array([3, 2])

    pad_a = np.concatenate([core, np.zeros((2, 5, 128), F32)], axis=1)
    pad_b = np.concatenate([core, 10.0 * rng.random((2, 5, 128), dtype=F32)], axis=1)
    la = bigru_forward(Tensor(pad_a), lengths, params, cfg, "eval").data
    lb = bigru_forward(Tensor(pad_b), lengths, params, cfg, "eval").data
    lc = bigru_forward(Tensor(core), lengths, params, cfg, "eval").data
    assert np.allclose(la, lb, atol=1e-6)
    assert np.allclose(la, lc, atol=1e-5)


def test_bigru_zeroed_head_reduces_to_fc_bias():
    cfg = bigru_cfg()
    params = init_params(cfg, seed=0)
    for name, t in params.params.items():
        if name.startswith("cls."):
            t.data[...] = 0.0
    params.params["cls.fc.b"].data[:] = np.array([0.5, -1.0, 2.0], dtype=F32)
    emb = Tensor(np.random.default_rng(0).random((2, 4, 128), dtype=F32))
    logits = bigru_forward(emb, np.array([4, 2]), params, cfg, "eval").data
    assert np.allclose(logits, [[0.5, -1.0, 2.0]] * 2, atol=1e-6)


def test_bigru_rejects_bad_lengths():
    cfg = bigru_cfg()
    params = init_params(cfg, seed=0)
    emb = Tensor(np.zeros((2, 4, 128), dtype=F32))
    with pytest.raises(ShapeError):
        bigru_forward(emb, np.array([4, 5]), params, cfg, "eval")
    with pytest.raises(ShapeError):
        bigru_forward(emb, np.array([0, 3]), params, cfg, "eval")
    with pytest.raises(ShapeError):
        bigru_forward(emb, np.array([4]), params, cfg, "eval")


# ---------------------------------------------------------------------------
# CLCNN classifier


def test_clcnn_shapes_and_length_contract():
    cfg = ModelConfig("clcnn", num_classes=5, max_len=CLCNN_MIN_LEN)
    params = init_params(cfg, seed=0)
    emb = Tensor(np.random.default_rng(0).random((3, CLCNN_MIN_LEN, 128), dtype=F32))
    logits = clcnn_forward(emb, params, cfg)
    assert logits.shape == (3, 5)
    assert np.isfinite(logits.data).all()
    short = Tensor(np.zeros((3, CLCNN_MIN_LEN - 1, 128), dtype=F32))
    with pytest.raises(ShapeError):
        clcnn_forward(short, params, cfg)


# ---------------------------------------------------------------------------
# full document forward


@pytest.mark.parametrize("classifier,max_len", [("bigru", 6), ("clcnn", 20)])
def test_forward_documents_end_to_end(classifier, max_len):
    cfg = ModelConfig(classifier, num_classes=4, max_len=max_len, wildcard_ratio=0.0)
    params = init_params(cfg, seed=9)
    rng = np.random.default_rng(9)
    bank = rand_bank(6, rng)
    ids = rng.integers(0, 6, size=(3, max_len))
    lengths = np.array([max_len, max_len - 2, 3])
    ids[1, max_len - 2:] = 0
    ids[2, 3:] = 0
    logits = forward_documents(ids, lengths, bank, params, cfg, "eval")
    assert logits.shape == (3, 4)
    assert np.isfinite(logits.data).all()


def test_forward_documents_train_mode_uses_wildcard_rng():
    cfg = bigru_cfg(wildcard_ratio=0.4)
    params = init_params(cfg, seed=3)
    bank = rand_bank(4, np.random.default_rng(3))
    ids = np.random.default_rng(5).integers(0, 4, size=(4, 6))
    lengths = np.full(4, 6)
    a = forward_documents(ids, lengths, bank, params, cfg, "train",
                          rng=np.random.default_rng(11)).data
    b = forward_documents(ids, lengths, bank, params, cfg, "train",
                          rng=np.random.default_rng(11)).data
    c = forward_documents(ids, lengths, bank, params, cfg, "train",
                          rng=np.random.default_rng(12)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
