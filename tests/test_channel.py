import numpy as np
import pytest

from ifrx.channel import (
    ChannelRealization,
    capacity,
    complex_to_real,
    derive_trial_rng,
    parse_matrix_text,
    sample_channel,
)
from ifrx.errors import InvalidInputError, ParseError


def test_same_seed_same_stream():
    a = derive_trial_rng(42, 0)
    b = derive_trial_rng(42, 0)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    a2 = derive_trial_rng(42, 0)
    b2 = derive_trial_rng(42, 0)
    assert [a2.next_gaussian() for _ in range(10)] == [b2.next_gaussian() for _ in range(10)]


def test_distinct_trials_distinct_streams():
    a = derive_trial_rng(42, 0)
    b = derive_trial_rng(42, 1)
    assert a.next_gaussian() != b.next_gaussian()


def test_trial_rng_is_order_free():
    # deriving other trials in between must not change trial 5's stream
    first = sample_channel(derive_trial_rng(7, 5), 3)
    for idx in (2, 9, 0):
        sample_channel(derive_trial_rng(7, idx), 3)
    again = sample_channel(derive_trial_rng(7, 5), 3)
    assert np.array_equal(first, again)


def test_sample_channel_moments():
    rng_seeds = range(10000)
    acc = np.zeros((4, 4))
    acc2 = np.zeros((4, 4))
    for t in rng_seeds:
        h = sample_channel(derive_trial_rng(20260810, t), 4)
        acc += h
        acc2 += h * h
    n = len(rng_seeds)
    mean = acc / n
    var = acc2 / n - mean**2
    assert np.all(mean >= -0.05) and np.all(mean <= 0.05)
    assert np.all(var >= 0.9) and np.all(var <= 1.1)


def test_sample_channel_scalar_deterministic():
    vals = {sample_channel(derive_trial_rng(3, 3), 1)[0, 0] for _ in range(5)}
    assert len(vals) == 1


def test_sample_channel_shape_and_finite():
    h = sample_channel(derive_trial_rng(1, 1), 8)
    assert h.shape == (8, 8)
    assert np.all(np.isfinite(h))
    with pytest.raises(InvalidInputError):
        sample_channel(derive_trial_rng(1, 1), 0)


def test_complex_to_real_1x1():
    lifted = complex_to_real([[1.0]], [[2.0]])
    assert np.array_equal(lifted, [[1.0, -2.0], [2.0, 1.0]])


def test_complex_to_real_zero_imag_is_block_diagonal():
    re = np.arange(9.0).reshape(3, 3)
    lifted = complex_to_real(re, np.zeros((3, 3)))
    assert np.array_equal(lifted[:3, :3], re)
    assert np.array_equal(lifted[3:, 3:], re)
    assert np.all(lifted[:3, 3:] == 0.0)
    assert np.all(lifted[3:, :3] == 0.0)


def test_complex_to_real_identity_blocks():
    lifted = complex_to_real(np.eye(2), np.eye(2))
    expected = np.array([
        [1, 0, -1, 0],
        [0, 1, 0, -1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ], dtype=float)
    assert np.array_equal(lifted, expected)
    with pytest.raises(InvalidInputError):
        complex_to_real(np.eye(2), np.eye(3))


def test_complex_to_real_reproduces_complex_multiplication():
    rng = np.random.RandomState(17)
    for _ in range(50):
        n = rng.randint(1, 5)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lifted = complex_to_real(h.real, h.imag)
        stacked = np.concatenate([x.real, x.imag])
        product = h @ x
        expected = np.concatenate([product.real, product.imag])
        assert np.max(np.abs(lifted @ stacked - expected)) <= 1e-12


def test_capacity_examples():
    assert capacity(ChannelRealization(h=np.eye(2), power=1.0)) == pytest.approx(1.0)
    assert capacity(ChannelRealization(h=np.zeros((3, 3)), power=50.0)) == 0.0
    assert capacity(ChannelRealization(h=[[1.0]], power=3.0)) == pytest.approx(1.0)


def test_capacity_nonnegative_and_monotone_in_power():
    rng = np.random.RandomState(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        h = rng.standard_normal((n, n))
        caps = [capacity(ChannelRealization(h=h, power=p)) for p in (1.0, 10.0, 100.0)]
        assert all(c >= 0.0 for c in caps)
        assert caps[0] <= caps[1] <= caps[2]


def test_channel_realization_validation():
    with pytest.raises(InvalidInputError):
        ChannelRealization(h=np.eye(2), power=0.0)
    with pytest.raises(InvalidInputError):
        ChannelRealization(h=np.ones((2, 3)), power=1.0)


def test_channel_realization_h_is_read_only_copy():
    src = np.eye(2)
    ch = ChannelRealization(h=src, power=1.0)
    with pytest.raises(ValueError):
        ch.h[0, 0] = 5.0
    src[0, 0] = 5.0  # the caller's array stays writable and is not shared
    assert ch.h[0, 0] == 1.0


def test_parse_matrix_text():
    text = "# channel\n\n1 2\n3 4\n"
    assert np.array_equal(parse_matrix_text(text), [[1.0, 2.0], [3.0, 4.0]])


def test_parse_matrix_text_errors_name_lines():
    with pytest.raises(ParseError, match="line 3"):
        parse_matrix_text("1 2\n# ok\n1 2 3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix_text("1 x\n")
    with pytest.raises(ParseError):
        parse_matrix_text("# only comments\n")
