import numpy as np
import pytest

from mpflow.rng import Xoshiro256


def test_deterministic_stream():
    a = Xoshiro256(12345)
    b = Xoshiro256(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_seeds_give_different_streams():
    a = Xoshiro256(1)
    b = Xoshiro256(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_splitmix64_published_vectors():
    from mpflow.rng import _splitmix64

    z, w1 = _splitmix64(0)
    z, w2 = _splitmix64(z)
    assert w1 == 0xE220A8397B1DCDAF
    assert w2 == 0x6E789E6AA1B965F4


def test_xoshiro_step_hand_derived():
    # With state [1,2,3,4]: out1 = rotl(2*5,7)*9 = 11520; the update then
    # zeroes s1, so out2 = 0.
    rng = Xoshiro256(0)
    rng._s = [1, 2, 3, 4]
    assert rng.next_u64() == 11520
    assert rng.next_u64() == 0


def test_known_stream_frozen():
    # Frozen from this implementation; guards the seeding chain against change.
    rng = Xoshiro256(0)
    assert rng.next_u64() == 11091344671253066420


def test_uniform_range_and_mean():
    rng = Xoshiro256(7)
    vals = np.array([rng.uniform(-2.0, 3.0) for _ in range(4000)])
    assert vals.min() >= -2.0 and vals.max() < 3.0
    assert abs(vals.mean() - 0.5) < 0.1


def test_uniform_array_shape_and_determinism():
    a = Xoshiro256(9).uniform_array((3, 4), -1, 1)
    b = Xoshiro256(9).uniform_array((3, 4), -1, 1)
    assert a.shape == (3, 4)
    assert np.array_equal(a, b)


def _uniform_loop(rng, n, lo, hi):
    return np.array([rng.uniform(lo, hi) for _ in range(n)])


@pytest.mark.parametrize("n", [0, 1, 333])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2, 2), (-0.37, 1e3)])
def test_uniform_array_has_the_bits_of_one_draw_at_a_time(n, lo, hi):
    got = Xoshiro256(31).uniform_array(n, lo, hi)
    want = _uniform_loop(Xoshiro256(31), n, lo, hi)
    assert got.shape == (n,) and got.tobytes() == want.tobytes()
    assert Xoshiro256(31).uniform_array((3, 4), lo, hi).tobytes() == (
        _uniform_loop(Xoshiro256(31), 12, lo, hi).tobytes())


def test_units_are_the_top_53_bits_of_each_word():
    rng = Xoshiro256(3)
    want = [(rng.next_u64() >> 11) * 2.0**-53 for _ in range(64)]
    assert Xoshiro256(3).units(64).tolist() == want
    assert Xoshiro256(3).units(0).shape == (0,)


def test_next_u64_after_a_batched_draw_continues_the_stream():
    one_by_one = Xoshiro256(77)
    stream = [one_by_one.next_u64() for _ in range(40)]
    rng = Xoshiro256(77)
    rng.units(5)
    rng.uniform_array((3, 4), -1.0, 1.0)
    rng.units(0)
    rng.uniform()
    assert rng.next_u64() == stream[18]
    assert [rng.next_u64() for _ in range(21)] == stream[19:]
