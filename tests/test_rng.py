"""Block draws (`Rng.randbelow_many`) against the scalar SplitMix64 stream.

Every test runs with warnings as errors: under NumPy 1.x, uint64 mixed with a
Python int or int64 promotes to float64 and silently loses exactness, and
uint64 scalar overflow warns, so either slip fails here.
"""

import numpy as np
import pytest

from ffil.rng import Rng

pytestmark = pytest.mark.filterwarnings("error")

SEEDS = (0, 1, 42, 2**64 - 1, 12345678901234567)
MODULI = (1, 2, 3, 13, 23, 101, 7919, 2**31 - 1, 2**31)
COUNTS = (0, 1, 7, 500, 4845)


def _scalar(rng, n, count):
    return [rng.randbelow(n) for _ in range(count)]


def _check_same(seed, n, count):
    a, b = Rng(seed), Rng(seed)
    want = _scalar(a, n, count)
    got = b.randbelow_many(n, count)
    assert got.dtype == np.int64 and got.shape == (count,)
    assert got.tolist() == want, (seed, n, count)
    assert b._counter == a._counter, (seed, n, count)


@pytest.mark.parametrize("n", MODULI)
def test_block_draws_match_scalar_stream(n):
    for seed in SEEDS:
        for count in COUNTS:
            _check_same(seed, n, count)


def test_interleaved_scalar_and_block_calls_share_one_stream():
    for seed in SEEDS:
        ref, mixed = Rng(seed), Rng(seed)
        want, got = [], []
        for step, (n, count) in enumerate([(13, 7), (2**31, 500), (101, 1), (7919, 4845),
                                           (3, 0), (2**31 - 1, 23), (1, 5), (23, 500)]):
            want += _scalar(ref, n, count)
            if step % 2:
                got += _scalar(mixed, n, count)
            else:
                got += mixed.randbelow_many(n, count).tolist()
            assert mixed._counter == ref._counter
        assert got == want


def test_low_acceptance_needs_several_blocks():
    # n just above a power of two accepts about half the candidates, so some
    # streams outrun the first block of 2 * count + 8 candidates
    n = 2**62 + 1
    outran = 0
    for seed in range(300):
        for count in (1, 7, 20):
            ref = Rng(seed)
            _scalar(ref, n, count)
            outran += ref._counter > 2 * count + 8
            _check_same(seed, n, count)
    assert outran > 0


def test_largest_modulus_and_derived_streams():
    for seed in SEEDS:
        _check_same(seed, 2**63, 500)
        _check_same(Rng(seed).derive(7).seed, 13, 4845)


@pytest.mark.parametrize("n", [0, -1, -(2**40), 2**63 + 1])
def test_out_of_range_modulus_raises(n):
    with pytest.raises(ValueError):
        Rng(1).randbelow_many(n, 3)


def test_scalar_randbelow_rejects_nonpositive_n():
    for n in (0, -5):
        with pytest.raises(ValueError):
            Rng(1).randbelow(n)
