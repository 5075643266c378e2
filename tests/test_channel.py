import math
from fractions import Fraction

import numpy as np
import pytest

import ifrx.channel
from ifrx.channel import (ChannelRealization, _words, capacity, parse_matrix_text,
                          prepare_capacity, sample_channel)
from ifrx.errors import InstanceTooLargeError, InvalidInputError, ParseError, SingularMatrixError
from ifrx.ifcore import mmse_rates, zf_rates
from ifrx.sdm import SearchConfig
from ifrx.select import design_if
from oracles import bareiss_det


MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class ScalarStream:
    """splitmix64 one word at a time in Python ints, with Box-Muller
    caching its sine as a spare for the next call: the reference for a
    trial's words and ``sample_channel``."""

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


def seed_at_the_top(trial_index):
    """The master seed whose trial ``trial_index`` starts its counter at
    2^64 - 1, so that every word's counter wraps past 2^64."""
    return MASK64 ^ reference_mix((trial_index * GOLDEN) & MASK64)


def test_same_seed_same_stream():
    assert _words(42, 0, 10).tolist() == _words(42, 0, 10).tolist()
    assert np.array_equal(sample_channel(42, 0, 3), sample_channel(42, 0, 3))


def test_distinct_trials_distinct_streams():
    assert _words(42, 0, 1)[0] != _words(42, 1, 1)[0]
    assert not np.array_equal(sample_channel(42, 0, 3), sample_channel(42, 1, 3))


@pytest.mark.parametrize("n", [0, 1, 32, 1000])
def test_next_u64s_continues_the_stream_like_single_draws(n):
    # word k of a trial is the stream's k-th single draw: after a 5 x 5
    # channel's 26 words (the reference keeps the last sine as a spare,
    # which its word draws skip) the counter goes on as the stream does
    single = reference_trial_stream(42, 3)
    assert sample_channel(42, 3, 5).ravel().tolist() == [single.next_gaussian() for _ in range(25)]
    words = _words(42, 3, 26 + n)[26:]
    assert words.dtype == np.uint64 and words.shape == (n,)
    assert words.tolist() == [single.next_u64() for _ in range(n)]
    # the counter wraps mod 2^64 as the scalar stream does
    top, top_single = _words(seed_at_the_top(9), 9, n), ScalarStream(MASK64)
    assert top.tolist() == [top_single.next_u64() for _ in range(n)]


def test_sample_channel_matches_the_scalar_reference():
    for l in range(1, 17):
        # odd l * l leaves the reference a spare sine, which is dropped
        cases = [(seed, l) for seed in [*range(300), 2**64 - 1, seed_at_the_top(l)]]
        for seed, trial in cases + [(2**64 - 1, 2**64 - 1)]:
            ref = reference_trial_stream(seed, trial)
            h = sample_channel(seed, trial, l)
            expected = [ref.next_gaussian() for _ in range(l * l)]
            assert h.shape == (l, l) and h.dtype == np.float64
            assert h.ravel().tolist() == expected, (l, seed, trial)


def test_trial_stream_is_pinned():
    # exact words and entries of a trial; changing them moves every seeded CSV
    assert _words(42, 3, 4).tolist() == [
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
        h = sample_channel(seed, trial, l)
        assert [repr(x) for x in h.ravel().tolist()] == entries


def test_trial_rng_is_order_free():
    # drawing other trials in between must not change trial 5's channel
    first = sample_channel(7, 5, 3)
    for idx in (2, 9, 0):
        sample_channel(7, idx, 3)
    again = sample_channel(7, 5, 3)
    assert np.array_equal(first, again)


def test_sample_channel_moments():
    rng_seeds = range(10000)
    acc = np.zeros((4, 4))
    acc2 = np.zeros((4, 4))
    for t in rng_seeds:
        h = sample_channel(20260810, t, 4)
        acc += h
        acc2 += h * h
    n = len(rng_seeds)
    mean = acc / n
    var = acc2 / n - mean**2
    assert np.all(mean >= -0.05) and np.all(mean <= 0.05)
    assert np.all(var >= 0.9) and np.all(var <= 1.1)


def test_sample_channel_scalar_deterministic():
    vals = {sample_channel(3, 3, 1)[0, 0] for _ in range(5)}
    assert len(vals) == 1


def test_sample_channel_shape_and_finite():
    h = sample_channel(1, 1, 8)
    assert h.shape == (8, 8)
    assert np.all(np.isfinite(h))
    with pytest.raises(InvalidInputError):
        sample_channel(1, 1, 0)


def test_sample_channel_reads_integer_arguments_only():
    # a truncating cast read 1.5 as seed 1, 0.9 as trial 0 and "1" as seed
    # 1, and an l of 2.0 raised a raw TypeError
    for args in ((1.5, 0, 2), (1, 0.9, 2), ("1", 0, 2), (1, 0, 2.0), (None, 0, 2)):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            sample_channel(*args)
    # an integer of any type reads as its value, the seed and the trial index mod 2^64
    expected = sample_channel(7, 5, 3)
    assert np.array_equal(sample_channel(np.int64(7), np.uint8(5), np.int32(3)), expected)
    assert np.array_equal(sample_channel(7 - 2**64, 5 + 2**64, 3), expected)


def test_sample_channel_refuses_too_many_entries_before_building(monkeypatch):
    def no_words(*args):
        raise AssertionError("words drawn")

    monkeypatch.setattr(ifrx.channel, "_words", no_words)
    for l in (1025, 100_000, 10**20, 10**400):
        with pytest.raises(InstanceTooLargeError, match=f"^an L = {l} channel has {l * l} "
                                                        f"entries, over the limit {2**20}$"):
            sample_channel(1, 0, l)
    assert ifrx.channel.CHANNEL_ENTRY_LIMIT == 1024**2


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


def exact_capacity(ch):
    """(1/2) log2 det(I + P H H^T) of the realization's exact binary
    fractions, from the integer determinant of the scaled matrix."""
    h = [[Fraction(x) for x in row] for row in ch.h.tolist()]
    m = [[(i == j) + Fraction(ch.power) * sum(a * b for a, b in zip(h[i], h[j]))
          for j in range(ch.l)] for i in range(ch.l)]
    scale = math.lcm(*(x.denominator for row in m for x in row))
    return 0.5 * (math.log2(bareiss_det([[x * scale for x in row] for row in m]))
                  - ch.l * math.log2(scale))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
@pytest.mark.parametrize("power", [1e20, 1e30])
def test_capacity_of_a_rank_one_channel_at_high_power(power):
    # H H^T = [[5, 10], [10, 20]] has det 0, so det(I + P H H^T) is 1 + 25P;
    # the float determinant loses the I and capacity reads 0.0 (exact: 35.54
    # and 52.15 bits)
    ch = ChannelRealization(h=[[1, 2], [2, 4]], power=power)
    assert capacity(ch) == pytest.approx(exact_capacity(ch), rel=1e-12)


@pytest.mark.parametrize("l, snr_db", [(8, 600.0), (16, 300.0), (2, 3080.0)])
def test_capacity_beyond_the_float_range_matches_an_exact_log_determinant(l, snr_db):
    # the running product of the determinant overflowed: capacity read inf
    # after a RuntimeWarning, and at 3080 dB the slice I + P H H^T itself
    # overflowed
    chs = [ChannelRealization(h=sample_channel(1, t, l), power=10.0 ** (snr_db / 10))
           for t in range(3)]
    chs.append(ChannelRealization(h=chs[0].h, power=10.0))
    prepare_capacity(chs)
    for ch in chs:
        assert math.isfinite(ch.memo["capacity"])
        assert ch.memo["capacity"] == pytest.approx(exact_capacity(ch), rel=1e-12)
        # a stacked slice reads as it would alone
        assert capacity(ChannelRealization(h=ch.h, power=ch.power)) == ch.memo["capacity"]


def test_capacity_whose_fallback_determinant_rounds_to_zero_raises():
    # I + P H H^T overflows, and det(H H^T + I/P) of a rank-deficient H
    # loses I/P: capacity read -inf
    ch = ChannelRealization(h=[[1.0, 2.0], [2.0, 4.0]], power=1e308)
    with pytest.raises(SingularMatrixError, match=r"^det\(H H\^T \+ I/P\) rounds to zero at P = 1e\+308$"):
        capacity(ch)
    assert "capacity" not in ch.memo
    # a full-rank H past the float range is still finite
    assert math.isfinite(capacity(ChannelRealization(h=[[1.0, 2.0], [3.0, 4.0]], power=1e308)))


def test_an_overflowing_h_is_refused_by_name():
    # H H^T (or H^T H, for ZF) overflowed: a RuntimeWarning escaped, then
    # the kernel's "m contains non-finite entries" was raised
    uses = (lambda ch: design_if(ch, SearchConfig(2, 1), "sdm"),
            lambda ch: design_if(ch, SearchConfig(2, 1), "exhaustive"),
            mmse_rates, zf_rates, capacity)
    for h in ([[1e300, 0.0], [0.0, 1.0]], [[1e154, 1.0], [1e154, 2.0]]):
        for use in uses:
            with pytest.raises(InvalidInputError, match="^h is too large"):
                use(ChannelRealization(h=h, power=1.0))
    # entries near the limit that H H^T and its trace hold are accepted
    assert capacity(ChannelRealization(h=[[1e153, 0.0], [0.0, 1e153]], power=1.0)) > 0


def test_a_whitener_slice_past_the_float_range_is_refused_by_name():
    # H H^T and its trace fit, but H H^T + I/P did not: a RuntimeWarning
    # escaped from the whitener stack, then the kernel's "m contains
    # non-finite entries" was raised
    h = [[1.3e154, 0.0], [0.0, 1.0]]
    with pytest.raises(InvalidInputError,
                       match=r"^h is too large at power 1e-308: H H\^T \+ I/P overflows a float$"):
        mmse_rates(ChannelRealization(h=h, power=1e-308))
    # the same h where 1/P leaves room, and a small h at that power, are accepted
    assert mmse_rates(ChannelRealization(h=h, power=1e-300)).total >= 0
    assert mmse_rates(ChannelRealization(h=np.eye(2), power=1e-308)).total == 0.0


def test_channel_realization_validation():
    with pytest.raises(InvalidInputError):
        ChannelRealization(h=np.eye(2), power=0.0)
    for power in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="finite"):
            ChannelRealization(h=np.eye(2), power=power)
    # a subnormal power's 1/P overflowed the whitener slice I/P
    for power in (1e-310, 5e-324):
        with pytest.raises(InvalidInputError, match="^power .* is too small: 1/P overflows a float$"):
            ChannelRealization(h=np.eye(2), power=power)
    assert ChannelRealization(h=np.eye(2), power=1e-308).power == 1e-308
    with pytest.raises(InvalidInputError):
        ChannelRealization(h=np.ones((2, 3)), power=1.0)


def test_channel_realization_reads_real_input_only():
    # each raised a raw ValueError or TypeError, or a complex h silently
    # lost its imaginary part
    for power in ("abc", None, b"4", 2j):
        with pytest.raises(InvalidInputError, match="^power must be a real number"):
            ChannelRealization(h=np.eye(2), power=power)
    for h in ("abc", [[1.0, 0.0], [1.0]], [[1.0, "a"], [0.0, 1.0]], [[1.0, None], [0.0, 1.0]],
              [[1.0 + 1j, 0.0], [0.0, 1.0]], np.eye(2, dtype=complex)):
        with pytest.raises(InvalidInputError):
            ChannelRealization(h=h, power=1.0)
    for power in (np.float32(4.0), np.int64(4), 4, True):
        ch = ChannelRealization(h=np.eye(2), power=power)
        assert type(ch.power) is float and ch.power == float(power)
    for h in ([[True, False], [False, True]], np.eye(2, dtype=np.int8),
              [[Fraction(1), 0], [0, 2**70]]):
        assert ChannelRealization(h=h, power=1.0).h.dtype == np.float64


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
    with pytest.raises(ParseError, match="^line 2: non-finite entry$"):
        parse_matrix_text("1 2\n3 inf\n")
