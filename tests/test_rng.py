import numpy as np

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
