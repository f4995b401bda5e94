import random

import pytest

from bbcharpoly.ff import (
    DlogContext,
    check_modulus,
    factorize,
    find_generator,
    find_index_calculus_field,
    index_calculus_subprime,
    is_prime,
    next_prime,
)


def test_check_modulus():
    assert check_modulus(7) == 7
    assert check_modulus((1 << 31) - 1) == (1 << 31) - 1
    for bad in (2, 9, (1 << 31) + 11):
        with pytest.raises(ValueError, match=str(bad)):
            check_modulus(bad)
        with pytest.raises(ValueError, match=str(bad)):
            DlogContext(bad)


def test_is_prime_small_range():
    sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in sieve)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(100) == {2: 2, 5: 2}
    assert factorize(65536) == {2: 16}
    assert factorize(10006) == {2: 1, 5003: 1}


def test_find_generator_examples():
    # Orders verified by enumerating powers.
    g7 = find_generator(7)
    assert type(g7) is int
    seen = {pow(g7, e, 7) for e in range(6)}
    assert seen == {1, 2, 3, 4, 5, 6}

    g11 = find_generator(11)
    assert g11 == 2
    seen = {pow(2, e, 11) for e in range(10)}
    assert len(seen) == 10

    assert find_generator(3) == 2


def test_generator_order_property():
    rng = random.Random(7)
    for _ in range(25):
        q = next_prime(rng.randrange(3, 50000))
        g = find_generator(q)
        # the powers of g return to 1 first at exponent q - 1
        acc, order = g, 1
        while acc != 1:
            acc = acc * g % q
            order += 1
        assert order == q - 1


def test_dlog_examples():
    ctx = DlogContext(11)
    assert ctx.q == 11
    assert ctx.generator == 2
    assert ctx.dlog(4) == 2
    assert ctx.dlog(7) == 7  # 2^7 = 128 = 7 mod 11
    assert ctx.dlog(ctx.generator) == 1
    assert ctx.dlog(1) == 0


def test_dlog_rejects_zero():
    ctx = DlogContext(11)
    with pytest.raises(ValueError):
        ctx.dlog(0)


def test_dlog_exhaustive_small_field():
    q = 10007
    ctx = DlogContext(q)
    g = ctx.generator
    acc = 1
    for e in range(q - 1):
        assert ctx.dlog(acc) == e
        acc = acc * g % q


def test_dlog_bsgs_large_field():
    q = next_prime(1 << 21)
    ctx = DlogContext(q)
    g = ctx.generator
    rng = random.Random(3)
    for _ in range(50):
        e = rng.randrange(q - 1)
        assert ctx.dlog(pow(g, e, q)) == e


def test_find_index_calculus_field_examples():
    q, p = find_index_calculus_field(3)
    assert (q, p) == (11, 5)
    for n in (10, 100):
        q, p = find_index_calculus_field(n)
        assert p > n and q > 2 * n
        assert is_prime(p) and is_prime(q)
        assert (q - 1) % p == 0


def test_find_index_calculus_field_random_sweep():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randrange(2, 10**5)
        q, p = find_index_calculus_field(n, rng)
        assert is_prime(q) and is_prime(p)
        assert p > n
        assert (q - 1) % p == 0
        assert q > 2 * n


def test_index_calculus_subprime():
    assert index_calculus_subprime(10007, 60) == 5003
    assert index_calculus_subprime(101, 60) is None  # 100 = 2^2 * 5^2
    assert index_calculus_subprime(65537, 2) is None  # 65536 = 2^16
    assert index_calculus_subprime(101, 4) == 5
