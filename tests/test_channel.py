import math

import numpy as np
import pytest

from ifrx.channel import (
    ChannelRealization,
    RngState,
    capacity,
    derive_trial_rng,
    parse_matrix_text,
    sample_channel,
)
from ifrx.errors import InvalidInputError, ParseError


MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class ScalarStream:
    """splitmix64 one word at a time in Python ints, with Box-Muller
    caching its sine as a spare for the next call: the reference for
    ``RngState.next_u64s`` and ``sample_channel``."""

    def __init__(self, seed):
        self.state = int(seed) & MASK64
        self.spare = None

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK64
        return reference_mix(self.state)

    def next_uniform(self):
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def next_gaussian(self):
        if self.spare is not None:
            g, self.spare = self.spare, None
            return g
        r = math.sqrt(-2.0 * math.log(self.next_uniform()))
        theta = 2.0 * math.pi * self.next_uniform()
        self.spare = r * math.sin(theta)
        return r * math.cos(theta)


def reference_trial_stream(master_seed, trial_index):
    return ScalarStream(master_seed ^ reference_mix((trial_index * GOLDEN) & MASK64))


def test_same_seed_same_stream():
    a = derive_trial_rng(42, 0)
    b = derive_trial_rng(42, 0)
    assert a.next_u64s(10).tolist() == b.next_u64s(10).tolist()
    assert a._state == b._state
    assert np.array_equal(sample_channel(a, 3), sample_channel(b, 3))


def test_distinct_trials_distinct_streams():
    a = derive_trial_rng(42, 0)
    b = derive_trial_rng(42, 1)
    assert a._state != b._state
    assert a.next_u64s(1)[0] != b.next_u64s(1)[0]


@pytest.mark.parametrize("n", [0, 1, 32, 1000])
def test_next_u64s_continues_the_stream_like_single_draws(n):
    batched, single = derive_trial_rng(42, 3), reference_trial_stream(42, 3)
    assert batched._state == single.state
    # 25 normal entries take 26 words; the reference keeps the last sine
    # as a spare, which its word draws skip
    sample_channel(batched, 5)
    for _ in range(25):
        single.next_gaussian()
    words = batched.next_u64s(n)
    assert words.dtype == np.uint64 and words.shape == (n,)
    assert words.tolist() == [single.next_u64() for _ in range(n)]
    assert batched._state == single.state
    # the state wraps mod 2^64 as the scalar stream does
    top, top_single = RngState(2**64 - 1), ScalarStream(2**64 - 1)
    assert top.next_u64s(n).tolist() == [top_single.next_u64() for _ in range(n)]
    assert top._state == top_single.state
    with pytest.raises(InvalidInputError):
        top.next_u64s(-1)


def test_sample_channel_matches_the_scalar_reference():
    for l in range(1, 17):
        # odd l * l leaves the reference a spare sine, which is dropped
        for seed in [*range(300), 2**64 - 1]:
            cases = [(derive_trial_rng(seed, l), reference_trial_stream(seed, l))]
            if seed == 2**64 - 1:
                cases.append((RngState(seed), ScalarStream(seed)))
            for rng, ref in cases:
                h = sample_channel(rng, l)
                expected = [ref.next_gaussian() for _ in range(l * l)]
                assert h.shape == (l, l) and h.dtype == np.float64
                assert h.ravel().tolist() == expected, (l, seed)
                assert rng._state == ref.state, (l, seed)


def test_trial_stream_is_pinned():
    # exact words and entries of the stream; changing them moves every seeded CSV
    assert derive_trial_rng(42, 3).next_u64s(4).tolist() == [
        962144556405080021, 17939881129334414147, 3674771360076380311, 16749200793999783175,
    ]
    pinned = {
        (42, 3, 5): [
            "2.3942926680026986", "-0.41751590386452314", "1.504326928426987",
            "-0.9817303217933353", "0.6850786035491321", "-1.8873180795563802",
            "1.2608542922528414", "-0.274717830585374", "0.55453834296484",
            "-0.16112293712088688", "0.011905661710654988", "1.0006089773269062",
            "-0.31717464225757586", "-0.6912778527169188", "-0.8762204906585589",
            "0.2745689002012358", "1.081760092996053", "-0.44641793629960963",
            "0.6381916470027057", "-0.5705401228891284", "-0.8838978174640245",
            "-0.19388071137302323", "-0.3387719589214516", "0.819761505715785",
            "-0.5359006854313608",
        ],
        (1, 0, 2): [
            "-0.028249746095854695", "-1.065617648414326", "-0.22791952286763478",
            "0.0830941684715007",
        ],
        (2**64 - 1, 7, 1): ["0.497966157711714"],
    }
    for (seed, trial, l), entries in pinned.items():
        h = sample_channel(derive_trial_rng(seed, trial), l)
        assert [repr(x) for x in h.ravel().tolist()] == entries


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
    for power in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="finite"):
            ChannelRealization(h=np.eye(2), power=power)
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
