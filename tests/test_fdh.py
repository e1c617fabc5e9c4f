import random

import pytest

from semecs.fdh import Fdh, fdh_pair
from semecs.group import PRODUCTION_GROUP, TOY_GROUP, decode_scalar

from oracles import oracle_fdh

# Golden values pinned from the reference transcript (blake2s construction);
# any change to the hash-input layout is a wire-format break.
TOY_GOLDEN = {
    (0, b"abc"): 7,
    (1, b"abc"): 4,
    (0, b"abd"): 10,
}
PROD_GOLDEN = {
    (0, b""): 0x197C92728BDAA9B5F2682C9534929BE279B72A19EC0528B9DA1AA0C1FA753A95,
    (0, b"abc"): 0x104C71E7D48C28A8BEC389F33BA5AE9F280D6C797D83160498162EB590513A26,
    (1, b"abc"): 0x2702BF17F3FA969A43DA90E0DC9B46918B5FB2709A0D9E877E095BC36E8EF1FE,
}


def test_toy_golden_values():
    h0, h1 = fdh_pair(TOY_GROUP.q)
    assert h0.eval(b"abc") == TOY_GOLDEN[(0, b"abc")]
    assert h1.eval(b"abc") == TOY_GOLDEN[(1, b"abc")]
    assert h0.eval(b"abd") == TOY_GOLDEN[(0, b"abd")]


def test_production_golden_values():
    h0, h1 = fdh_pair(PRODUCTION_GROUP.q)
    assert h0.eval(b"") == PROD_GOLDEN[(0, b"")]
    assert h0.eval(b"abc") == PROD_GOLDEN[(0, b"abc")]
    assert h1.eval(b"abc") == PROD_GOLDEN[(1, b"abc")]


@pytest.mark.parametrize("params", [TOY_GROUP, PRODUCTION_GROUP], ids=["toy", "prod"])
def test_matches_independent_oracle(params, rng):
    h0, h1 = fdh_pair(params.q)
    for _ in range(300):
        msg = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        assert h0.eval(msg) == oracle_fdh(params.q, 0, msg)
        assert h1.eval(msg) == oracle_fdh(params.q, 1, msg)
        # any buffer hashes as its octets, a view into a larger one included
        for buf in (bytearray(msg), memoryview(msg), memoryview(b"\x01" + msg)[1:]):
            assert h0.eval(buf) == h0.eval(msg) and h1.eval(buf) == h1.eval(msg)


def test_eval_refuses_text():
    h0, _ = fdh_pair(PRODUCTION_GROUP.q)
    with pytest.raises(TypeError):
        h0.eval("abc")


@pytest.mark.parametrize(
    "q",
    [2, 11, 2**127 - 1, 2**130 - 5, PRODUCTION_GROUP.q, 2**521 - 1],
    ids=["2", "11", "2^127-1", "2^130-5", "prod", "2^521-1"],
)
def test_matches_oracle_across_expansion_lengths(q, rng):
    # 1, 1, 1, 2, 2 and 5 BLAKE2s digests per pass; 2^127 - 1 fills one digest
    # exactly and 2^130 - 5 spills one octet into a second.  q = 2 and q = 11
    # hit the zero-residue re-derivation often.
    h0, h1 = Fdh(q, 0), Fdh(q, 1)
    for _ in range(200):
        msg = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        assert h0.eval(msg) == oracle_fdh(q, 0, msg)
        assert h1.eval(msg) == oracle_fdh(q, 1, msg)


@pytest.mark.parametrize("q", [2, 11, PRODUCTION_GROUP.q], ids=["2", "11", "prod"])
def test_prefixed_hash_evaluates_the_prefix_then_the_message(q, rng):
    # q = 2 and q = 11 hit the zero-residue re-derivation often; it must
    # extend the prefixed message, not the message alone
    for h in (Fdh(q, 0), Fdh(q, 1)):
        for _ in range(200):
            prefix, msg = (rng.randbytes(rng.randrange(0, 40)) for _ in range(2))
            seeded = h.prefixed(prefix)
            expected = oracle_fdh(q, h.hash_id, prefix + msg)
            assert seeded.eval(msg) == h.eval(prefix + msg) == expected
            assert seeded.eval(memoryview(msg)) == expected
            assert h.prefixed(memoryview(prefix)).eval(msg) == expected
            assert seeded.eval_encoded(msg) == h.eval_encoded(prefix + msg)
            assert h.eval(msg) == oracle_fdh(q, h.hash_id, msg)  # h itself absorbed nothing


@pytest.mark.parametrize("params", [TOY_GROUP, PRODUCTION_GROUP], ids=["toy", "prod"])
def test_output_always_in_z_q_star(params):
    # deterministic corpus; 10^5 inputs per backend
    h0, h1 = fdh_pair(params.q)
    rnd = random.Random(1234)
    for i in range(100_000):
        msg = i.to_bytes(4, "big") + rnd.getrandbits(64).to_bytes(8, "big")
        v = (h0 if i % 2 else h1).eval(msg)
        assert 1 <= v < params.q


def test_deterministic(rng):
    h0, _ = fdh_pair(PRODUCTION_GROUP.q)
    for _ in range(50):
        msg = rng.getrandbits(128).to_bytes(16, "big")
        assert h0.eval(msg) == h0.eval(msg)


def test_domain_separation_between_h0_and_h1(rng):
    h0, h1 = fdh_pair(PRODUCTION_GROUP.q)
    differs = 0
    for _ in range(1000):
        msg = rng.getrandbits(128).to_bytes(16, "big")
        if h0.eval(msg) != h1.eval(msg):
            differs += 1
    assert differs >= 1  # in practice: all of them
    assert differs > 990


def test_eval_encoded_contracts(rng):
    for params in (TOY_GROUP, PRODUCTION_GROUP):
        h0, _ = fdh_pair(params.q)
        for _ in range(100):
            msg = rng.getrandbits(64).to_bytes(8, "big")
            blob = h0.eval_encoded(msg)
            assert len(blob) == params.scalar_len == h0.scalar_len
            assert decode_scalar(params, blob) == h0.eval(msg)
    h0_toy, _ = fdh_pair(TOY_GROUP.q)
    outs = {h0_toy.eval_encoded(bytes([i])) for i in range(256)}
    assert outs <= {bytes([v]) for v in range(1, 11)}


def test_parameter_validation():
    with pytest.raises(ValueError):
        Fdh(q=11, hash_id=2)
    with pytest.raises(ValueError):
        Fdh(q=1, hash_id=0)
