import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnquant.errors import DataError, NumericalError
from attnquant.linalg import softmax_rows
from attnquant.model import (
    AttentionHead,
    CalibSequence,
    attention_forward,
    generate_synthetic,
    map_buffer,
    load_calibration,
    load_checkpoint,
    save_calibration,
    save_checkpoint,
)
from conftest import rng_for


def straight_line_attention(head, x):
    """Independent scalar-loop reimplementation of the forward pass."""
    d, d_h, L = head.d, head.d_h, x.shape[1]
    q = [[sum(head.w_q[r][c] * x[c][t] for c in range(d)) for r in range(d_h)] for t in range(L)]
    k = [[sum(head.w_k[r][c] * x[c][t] for c in range(d)) for r in range(d_h)] for t in range(L)]
    v = [[sum(head.w_v[r][c] * x[c][t] for c in range(d)) for r in range(d_h)] for t in range(L)]
    sa = []
    for i in range(L):
        logits = [
            sum(q[i][r] * k[j][r] for r in range(d_h)) / math.sqrt(d_h) for j in range(L)
        ]
        top = max(logits)
        weights = [math.exp(z - top) for z in logits]
        total = sum(weights)
        probs = [w / total for w in weights]
        sa.append([sum(probs[j] * v[j][r] for j in range(L)) for r in range(d_h)])
    return np.array(sa)


class TestAttentionForward:
    def test_zero_query_key_gives_uniform_attention(self):
        rng = rng_for(0)
        head = AttentionHead(4, 2, np.zeros((2, 4)), np.zeros((2, 4)), rng.standard_normal((2, 4)))
        trace = attention_forward(head, CalibSequence(rng.standard_normal((4, 5))))
        np.testing.assert_allclose(trace.a, np.full((5, 5), 0.2), atol=1e-15)

    def test_single_token_collapses_to_value(self):
        head, seqs = generate_synthetic(1, 6, 3, 1, 1)
        trace = attention_forward(head, seqs[0])
        np.testing.assert_array_equal(trace.a, [[1.0]])
        np.testing.assert_allclose(trace.sa, trace.v, atol=1e-15)

    def test_matches_straight_line_reimplementation(self):
        head, seqs = generate_synthetic(7, 8, 4, 6, 1)
        trace = attention_forward(head, seqs[0])
        expected = straight_line_attention(head, seqs[0].x)
        np.testing.assert_allclose(trace.sa, expected, atol=1e-12)

    def test_rows_stochastic(self):
        head, seqs = generate_synthetic(2, 8, 4, 6, 4)
        for seq in seqs:
            a = attention_forward(head, seq).a
            np.testing.assert_allclose(a.sum(axis=1), np.ones(6), atol=1e-9)

    def test_homogeneous_in_value(self):
        head, seqs = generate_synthetic(3, 8, 4, 5, 1)
        sa = attention_forward(head, seqs[0]).sa
        # power-of-two scale keeps the identity exact in floating point
        doubled = AttentionHead(8, 4, head.w_q, head.w_k, 2.0 * head.w_v)
        np.testing.assert_array_equal(attention_forward(doubled, seqs[0]).sa, 2.0 * sa)
        tripled = AttentionHead(8, 4, head.w_q, head.w_k, 3.0 * head.w_v)
        np.testing.assert_allclose(attention_forward(tripled, seqs[0]).sa, 3.0 * sa, rtol=1e-14)

    def test_token_permutation_equivariance(self):
        head, seqs = generate_synthetic(4, 8, 4, 6, 1)
        perm = rng_for(5).permutation(6)
        sa = attention_forward(head, seqs[0]).sa
        sa_perm = attention_forward(head, CalibSequence(seqs[0].x[:, perm])).sa
        np.testing.assert_allclose(sa_perm, sa[perm], atol=1e-12)

    def test_dimension_mismatch(self):
        head, _ = generate_synthetic(0, 8, 4, 6, 1)
        with pytest.raises(DataError):
            attention_forward(head, CalibSequence(np.zeros((7, 6))))

    @settings(max_examples=80, deadline=None)
    @given(
        length=st.integers(1, 64),
        d_h=st.integers(1, 8),
        extra=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_forward_bit_identical_to_softmax_rows(self, length, d_h, extra, seed):
        head, (seq,) = generate_synthetic(seed, d_h + extra, d_h, length, 1)
        q, k, v = ((w @ seq.x).T for w in (head.w_q, head.w_k, head.w_v))
        a = softmax_rows(q @ k.T / math.sqrt(d_h))
        sa = a @ v
        buf = np.full((length, length), np.nan)  # stale contents must not leak in
        for out in (None, buf, buf):
            trace = attention_forward(head, seq, out=out)
            assert out is None or trace.a is out
            assert trace.a.tobytes() == a.tobytes()
            assert trace.sa.tobytes() == sa.tobytes()

    @pytest.mark.parametrize(
        "x, w_q, w_k",
        [
            # +Inf: the logit 1e200 * 1e200 overflows
            ([[1e200, 1.0], [1e200, 1.0]], [[1.0, 0.0]], [[1.0, 0.0]]),
            # NaN: the logit sums 1e400 and -1e400
            ([[1e200, 1e200], [1e200, -1e200]], np.eye(2), np.eye(2)),
            # -Inf in every row, next to a finite logit that is the row's max
            ([[1e200, 1e200], [1.0, -1e200]], [[1.0, 0.0]], [[0.0, 1.0]]),
        ],
        ids=["plus-inf", "nan", "minus-inf-finite-max"],
    )
    def test_non_finite_logits_raise(self, x, w_q, w_k):
        w_q, w_k = np.asarray(w_q, dtype=float), np.asarray(w_k, dtype=float)
        head = AttentionHead(2, w_q.shape[0], w_q, w_k, np.ones_like(w_q))
        seq = CalibSequence(x)
        for out in (None, map_buffer(seq)):
            with np.errstate(all="ignore"), pytest.raises(NumericalError, match="NaN or Inf"):
                attention_forward(head, seq, out=out)

    def test_map_buffer_reused_only_at_its_length(self):
        short, long = CalibSequence(np.zeros((2, 3))), CalibSequence(np.zeros((2, 5)))
        buf = map_buffer(short)
        assert buf.shape == (3, 3) and map_buffer(short, buf) is buf
        assert map_buffer(long, buf).shape == (5, 5)


class TestStorage:
    def test_replace_shares_the_untouched_projections(self):
        head, _ = generate_synthetic(0, 6, 3, 4, 1)
        w = np.ones((3, 6))
        new = head.replace("W_Q", w)
        assert new.w_k is head.w_k and new.w_v is head.w_v
        assert not np.shares_memory(new.w_q, w) and not new.w_q.flags.writeable
        w[0, 0] = 5.0  # the caller's later writes do not reach the head
        assert new.w_q[0, 0] == 1.0

    def test_sequence_is_stored_read_only(self):
        x = np.ones((4, 3))
        seq = CalibSequence(x)
        assert not seq.x.flags.writeable and not np.shares_memory(seq.x, x)
        assert CalibSequence(seq.x).x is seq.x


class TestGenerateSynthetic:
    def test_same_seed_identical(self):
        h1, s1 = generate_synthetic(11, 8, 4, 6, 3)
        h2, s2 = generate_synthetic(11, 8, 4, 6, 3)
        np.testing.assert_array_equal(h1.w_q, h2.w_q)
        np.testing.assert_array_equal(h1.w_v, h2.w_v)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.x, b.x)

    def test_different_seeds_differ(self):
        h1, _ = generate_synthetic(0, 8, 4, 6, 1)
        h2, _ = generate_synthetic(1, 8, 4, 6, 1)
        assert h1.w_q[0, 0] != h2.w_q[0, 0]

    def test_rejects_bad_dims(self):
        with pytest.raises(DataError):
            generate_synthetic(0, 8, 4, 0, 1)

    def test_head_dim_cannot_exceed_hidden(self):
        with pytest.raises(DataError):
            generate_synthetic(0, 4, 8, 4, 1)


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        head, _ = generate_synthetic(13, 8, 4, 6, 1)
        path = tmp_path / "head.json"
        save_checkpoint(head, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.w_q, head.w_q)
        np.testing.assert_array_equal(loaded.w_k, head.w_k)
        np.testing.assert_array_equal(loaded.w_v, head.w_v)

    def test_shape_mismatch_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        obj = {
            "d": 4,
            "d_h": 2,
            "W_Q": [[0.0] * 4 for _ in range(3)],  # 3x4 but d_h=2
            "W_K": [[0.0] * 4 for _ in range(2)],
            "W_V": [[0.0] * 4 for _ in range(2)],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match="W_Q"):
            load_checkpoint(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 2, "d_h": 1, "W_Q": [[0.0, 0.0]]}))
        with pytest.raises(DataError, match="W_K"):
            load_checkpoint(path)

    def test_hand_written_minimal_file(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(
            json.dumps(
                {
                    "d": 2,
                    "d_h": 1,
                    "W_Q": [[1.0, 0.0]],
                    "W_K": [[0.0, 1.0]],
                    "W_V": [[0.5, -0.5]],
                }
            )
        )
        head = load_checkpoint(path)
        trace = attention_forward(head, CalibSequence(np.array([[1.0, 2.0], [0.5, -1.0]])))
        assert trace.sa.shape == (2, 1)
        assert np.all(np.isfinite(trace.sa))


class TestCalibrationIO:
    def test_round_trip(self, tmp_path):
        _, seqs = generate_synthetic(17, 6, 3, 5, 4)
        path = tmp_path / "calib.json"
        save_calibration(seqs, path)
        loaded = load_calibration(path)
        assert len(loaded) == 4
        for a, b in zip(loaded, seqs):
            np.testing.assert_array_equal(a.x, b.x)

    def test_rejects_inconsistent_shapes(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(
            json.dumps({"d": 2, "L": 2, "sequences": [[[1.0, 2.0], [3.0, 4.0]], [[1.0], [2.0]]]})
        )
        with pytest.raises(DataError, match="sequences\\[1\\]"):
            load_calibration(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({"d": 2, "L": 2, "sequences": []}))
        with pytest.raises(DataError):
            load_calibration(path)
