import numpy as np
import pytest

from alsalign.prng import SplitMix64
from alsalign.signals import gen_white_noise

# first outputs of the reference recurrence, frozen from an independent
# big-integer evaluation of state += 0x9E3779B97F4A7C15 + two mix steps
KNOWN_STREAMS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B],
    1234567: [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77, 0x3FBEF740E9177B3F],
    2**64 - 1: [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9, 0x6D1DB36CCBA982D2],
}


def test_known_answer_streams():
    for seed, expected in KNOWN_STREAMS.items():
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(4)] == expected


@pytest.mark.parametrize("n", [257, 16_000])
def test_symmetric_block_matches_scalar_path(n):
    for seed in (0, 1, 42, 2**63, 2**64 - 1):
        scalar = SplitMix64(seed)
        expected = [2.0 * scalar.next_float() - 1.0 for _ in range(n)]
        assert SplitMix64(seed).symmetric_block(n).tolist() == expected


def test_empty_block_leaves_state_unchanged():
    rng = SplitMix64(2**64 - 1)
    block = rng.symmetric_block(0)
    assert block.dtype == np.float64
    assert block.shape == (0,)
    assert rng.next_u64() == SplitMix64(2**64 - 1).next_u64()


def test_block_then_scalar_continues_the_stream():
    rng_a = SplitMix64(99)
    rng_a.symmetric_block(10)
    rng_b = SplitMix64(99)
    for _ in range(10):
        rng_b.next_float()
    assert rng_a.next_u64() == rng_b.next_u64()


def test_float_range():
    s = SplitMix64(7).symmetric_block(10_000)
    assert s.min() >= -1.0
    assert s.max() < 1.0


def test_same_seed_is_bit_identical():
    a = SplitMix64(123).symmetric_block(1000)
    b = SplitMix64(123).symmetric_block(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = SplitMix64(1).symmetric_block(100)
    b = SplitMix64(2).symmetric_block(100)
    assert not np.array_equal(a, b)


def test_seed_outside_64_bits_rejected():
    # wrapping them would give -1 the stream of 2**64 - 1, and 2**64 + 5 that of 5;
    # both ends of [0, 2**64) are in KNOWN_STREAMS
    for seed in (-1, 2**64, 2**64 + 5, np.int64(-1)):
        with pytest.raises(ValueError) as exc:
            SplitMix64(seed)
        assert str(exc.value) == f"seed must be in [0, 2**64), got {int(seed)}"


def test_negative_block_length_rejected():
    with pytest.raises(ValueError):
        SplitMix64(0).symmetric_block(-1)


@pytest.mark.parametrize("seed", [7.0, np.int64(7), np.uint64(7), np.float64(7.0)], ids=["float", "int64", "uint64", "float64"])
def test_whole_number_seed_is_the_int_seed(seed):
    assert SplitMix64(seed).next_u64() == SplitMix64(7).next_u64()


@pytest.mark.parametrize(
    "seed, shown",
    [
        (1.5, "1.5"),
        (-0.5, "-0.5"),
        ("7", "'7'"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (np.float64(7.25), repr(np.float64(7.25))),
    ],
    ids=["fraction", "negative-fraction", "string", "nan", "inf", "numpy-fraction"],
)
def test_seed_that_is_not_a_whole_number_rejected(seed, shown):
    # cutting it to an int would give another seed's stream
    with pytest.raises(ValueError) as exc:
        SplitMix64(seed)
    assert str(exc.value) == f"seed must be a whole number, got {shown}"


def test_white_noise_seed_is_checked():
    with pytest.raises(ValueError, match="^seed must be a whole number, got 1.5$"):
        gen_white_noise(1.5, 10, 8000)
    with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got -1$"):
        gen_white_noise(-1, 10, 8000)
