from dataclasses import replace

import pytest

from semecs.errors import (
    DuplicateBeta,
    EmptyMessage,
    KeyExhausted,
    MalformedEncoding,
    NotExtractable,
    StatePersistFailure,
)
from semecs.group import PRODUCTION_GROUP, TOY_GROUP, count_group_ops, exp
from semecs.keystore import record_from_semecs_public
from semecs.semecs import (
    ENVELOPE_HEADER_LEN,
    SignedEnvelope,
    build_search_index,
    envelope_challenge,
    extract_private_key,
    join_message,
    semecs_keygen,
    semecs_keygen_from_secret,
    semecs_sign,
    semecs_verify_indexed,
    semecs_verify_search,
    split_message,
)

from oracles import semecs_keygen_transcript, semecs_sign_transcript


# --- message split / join ---------------------------------------------------

def test_split_long_message():
    msg = bytes(range(40))
    m_bar, m_tilde, padded = split_message(msg, 32)
    assert m_bar == msg[:32] and m_tilde == msg[32:] and padded is False


def test_split_short_message_pads():
    msg = b"hello"
    m_bar, m_tilde, padded = split_message(msg, 32)
    assert m_bar == msg + b"\x80" + b"\x00" * 26
    assert m_tilde == b"" and padded is True


def test_split_boundary_is_unpadded():
    msg = bytes(range(32))
    m_bar, m_tilde, padded = split_message(msg, 32)
    assert m_bar == msg and m_tilde == b"" and padded is False


def test_split_rejects_empty():
    with pytest.raises(EmptyMessage):
        split_message(b"", 32)


def test_join_inverts_split(rng):
    for _ in range(500):
        n = rng.randrange(1, 100)
        msg = bytes(rng.randrange(256) for _ in range(n))
        assert join_message(*split_message(msg, 32)) == msg


def test_join_rejects_bad_padding():
    with pytest.raises(MalformedEncoding):
        join_message(b"\x00" * 32, b"", True)  # no 0x80 marker
    with pytest.raises(MalformedEncoding):
        join_message(b"\x80" + b"\x00" * 31, b"", True)  # empty message
    with pytest.raises(MalformedEncoding):
        join_message(b"a" * 32, b"tail", True)  # padded with remainder


# --- key generation ---------------------------------------------------------

def test_keygen_transcript_matches_oracle():
    _, pk = semecs_keygen_from_secret(TOY_GROUP, 2, y=3, require_index=False)
    expected = semecs_keygen_transcript(TOY_GROUP, 3, 2)
    assert pk.Y == expected["Y"] == 8
    for j, row in enumerate(expected["rows"]):
        assert pk.gammas[j] == row["gamma"]
        assert pk.betas[j] == row["beta"]
    # golden token table for y=3: (r, R, z, gamma, beta)
    assert [(r["r"], r["R"], r["z"]) for r in expected["rows"]] == [(8, 3, 4), (6, 18, 10)]
    assert pk.gammas == (b"\x01", b"\x0e")
    assert pk.betas == (b"\x01", b"\x02")


def test_production_keygen_matches_oracle():
    # R_j = alpha^r_j comes from the fixed-base table; the oracle uses raw pow
    y = 0x1D6E_51F0_0DD5_EED5
    _, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, 16, y=y)
    expected = semecs_keygen_transcript(PRODUCTION_GROUP, y, 16)
    assert pk.Y == expected["Y"]
    assert list(pk.gammas) == [row["gamma"] for row in expected["rows"]]
    assert list(pk.betas) == [row["beta"] for row in expected["rows"]]


def test_keygen_is_deterministic_in_y(big_toy):
    _, pk1 = semecs_keygen_from_secret(big_toy, 8, y=1234)
    _, pk2 = semecs_keygen_from_secret(big_toy, 8, y=1234)
    assert record_from_semecs_public(pk1) == record_from_semecs_public(pk2)
    _, pk3 = semecs_keygen_from_secret(big_toy, 8, y=1235)
    assert pk3.betas != pk1.betas


def test_keygen_counts_k_plus_one_exponentiations(big_toy):
    # K commitments R_j plus Y itself; no other group work
    with count_group_ops() as ops:
        semecs_keygen_from_secret(big_toy, 8, y=99)
    assert ops.exp_count == 9
    assert ops.double_exp_count == 0 and ops.mul_count == 0


def test_keygen_retries_until_betas_distinct(rng):
    # q=11 admits at most 10 distinct beta octets, so K=16 can never index
    with pytest.raises(DuplicateBeta):
        semecs_keygen(TOY_GROUP, 16, rng)
    state, pk = semecs_keygen(TOY_GROUP, 3, rng)  # small K: retries find a y
    assert pk.search_index is not None
    assert len(set(pk.betas)) == 3


def test_keygen_validation(big_toy):
    with pytest.raises(ValueError):
        semecs_keygen_from_secret(big_toy, 0, y=5)
    with pytest.raises(ValueError):
        semecs_keygen_from_secret(big_toy, 2, y=0)
    with pytest.raises(ValueError):
        semecs_keygen_from_secret(big_toy, 1 << 32, y=5)


@pytest.mark.parametrize("K", [1, 2, 1024])
def test_public_key_size_formula(K):
    # serialized payload = encode(Y) + K token pairs = (2K+1) * 32 octets
    _, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, K, y=0xDEADBEEF)
    record = record_from_semecs_public(pk)
    assert len(record.payload) == (2 * K + 1) * 32


# --- signing ----------------------------------------------------------------

def test_sign_transcript_matches_oracle():
    state, pk = semecs_keygen_from_secret(TOY_GROUP, 2, y=3, require_index=False)
    msg = b"hello-semecs-msg"
    env = semecs_sign(state, msg)
    expected = semecs_sign_transcript(TOY_GROUP, 3, 0, msg)
    assert env.c == expected["c"]
    assert env.s == expected["s"]
    assert env.m_tilde == expected["m_tilde"]
    assert env.padded == expected["padded"]
    assert envelope_challenge(TOY_GROUP, env) == expected["e"]
    # golden: r0=8, z0=4, c=0x6c, e=9, s=3
    assert (expected["r"], expected["z"], expected["e"], expected["s"]) == (8, 4, 9, 3)
    ok, recovered = semecs_verify_indexed(pk, env)
    assert ok and recovered == msg


def test_sign_performs_zero_group_operations(big_toy):
    state, _ = semecs_keygen_from_secret(big_toy, 64, y=7, require_index=False)
    with count_group_ops() as ops:
        for i in range(64):
            semecs_sign(state, bytes([i]) * 20)
    assert (ops.exp_count, ops.double_exp_count, ops.mul_count) == (0, 0, 0)


def test_signing_needs_no_randomness_and_is_reproducible(big_toy):
    s1, _ = semecs_keygen_from_secret(big_toy, 4, y=42)
    s2, _ = semecs_keygen_from_secret(big_toy, 4, y=42)
    for i in range(4):
        msg = bytes([i]) * 10
        assert semecs_sign(s1, msg).to_bytes(big_toy) == semecs_sign(s2, msg).to_bytes(
            big_toy
        )


def test_exhaustion(big_toy):
    state, _ = semecs_keygen_from_secret(big_toy, 2, y=9)
    semecs_sign(state, b"one")
    semecs_sign(state, b"two")
    with pytest.raises(KeyExhausted):
        semecs_sign(state, b"three")


def test_persist_hook_failure_holds_the_signature(big_toy):
    state, _ = semecs_keygen_from_secret(big_toy, 4, y=11)
    calls = []
    state.persist = calls.append
    env = semecs_sign(state, b"persisted")
    assert calls == [0] and state.j == 1 and env.j == 0

    def explode(_j):
        raise OSError("disk gone")

    state.persist = explode
    with pytest.raises(StatePersistFailure):
        semecs_sign(state, b"lost")
    assert state.j == 1  # in-memory counter did not move


# --- verification and recovery ----------------------------------------------

@pytest.mark.parametrize(
    "length", [1, 31, 32, 33, 96], ids=["1", "L-1", "L", "L+1", "3L"]
)
def test_round_trip_recovery_across_lengths(length, rng):
    state, pk = semecs_keygen_from_secret(
        PRODUCTION_GROUP, 3, y=rng.randrange(1, PRODUCTION_GROUP.q)
    )
    for _ in range(3):
        msg = bytes(rng.randrange(256) for _ in range(length))
        env = semecs_sign(state, msg)
        ok, recovered = semecs_verify_indexed(pk, env)
        assert ok and recovered == msg
        state.j -= 1  # reuse the index deliberately; this is a verification test


def test_verify_counts_one_double_exp_and_no_exp():
    state, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, 2, y=0xA11CE)
    env = semecs_sign(state, b"counted verification")
    with count_group_ops() as ops:
        assert semecs_verify_indexed(pk, env)[0]
    assert (ops.exp_count, ops.double_exp_count, ops.mul_count) == (0, 1, 0)
    with count_group_ops() as ops:
        assert semecs_verify_search(pk, env)[0]
    assert (ops.exp_count, ops.double_exp_count, ops.mul_count) == (0, 1, 0)


def test_verify_rejects_out_of_range_index(big_toy):
    state, pk = semecs_keygen_from_secret(big_toy, 4, y=13)
    env = semecs_sign(state, b"range check")
    assert semecs_verify_indexed(pk, replace(env, j=4)) == (False, None)
    assert semecs_verify_indexed(pk, replace(env, j=-1)) == (False, None)


def test_verify_rejects_wrong_c_length(big_toy):
    state, pk = semecs_keygen_from_secret(big_toy, 4, y=13)
    env = semecs_sign(state, b"c length")
    bad = SignedEnvelope(
        j=env.j, padded=env.padded, s=env.s, c=env.c + b"\x00", m_tilde=env.m_tilde
    )
    assert semecs_verify_indexed(pk, bad) == (False, None)


def test_verify_rejects_bit_flips(big_toy, rng):
    state, pk = semecs_keygen_from_secret(big_toy, 8, y=77)
    msg = b"flip one bit anywhere and the verifier must notice"
    env = semecs_sign(state, msg)
    flipped_c = bytes([env.c[0] ^ 0x01]) + env.c[1:]
    assert semecs_verify_indexed(
        pk, SignedEnvelope(env.j, env.padded, env.s, flipped_c, env.m_tilde)
    ) == (False, None)
    assert semecs_verify_indexed(
        pk, SignedEnvelope(env.j, env.padded, (env.s + 1) % big_toy.q, env.c, env.m_tilde)
    ) == (False, None)
    assert semecs_verify_indexed(
        pk, SignedEnvelope(env.j, env.padded, env.s, env.c, b"!" + env.m_tilde[1:])
    ) == (False, None)


def test_verify_rejects_padded_envelope_with_remainder(big_toy):
    state, pk = semecs_keygen_from_secret(big_toy, 4, y=21)
    env = semecs_sign(state, b"xy")  # padded on this group (scalar_len = 3)
    assert env.padded
    bad = SignedEnvelope(env.j, True, env.s, env.c, b"extra")
    assert semecs_verify_indexed(pk, bad) == (False, None)


# --- search-based verification ----------------------------------------------

def test_search_recovers_the_index(big_toy, rng):
    K = 128
    state, pk = semecs_keygen(big_toy, K, rng)
    for j in (0, 1, 63, 127):
        state.j = j
        msg = b"searchable payload " + bytes([j])
        env = semecs_sign(state, msg)
        # the search path never reads env.j
        ok, found, recovered = semecs_verify_search(pk, replace(env, j=9999))
        assert ok and found == j and recovered == msg


def test_search_comparison_budget(big_toy, rng):
    K = 128
    _, pk = semecs_keygen(big_toy, K, rng)
    budget = 8  # ceil(log2 128) + 1
    for target in list(pk.betas) + [b"\x00\x00\x00", b"\xff\xff\xff"]:
        _, comparisons = pk.search_index.lookup(target)
        assert comparisons <= budget


def test_search_rejects_forgeries(big_toy, rng):
    state, pk = semecs_keygen(big_toy, 16, rng)
    env = semecs_sign(state, b"honest message")
    for _ in range(50):
        forged = SignedEnvelope(
            j=0,
            padded=False,
            s=rng.randrange(0, big_toy.q),
            c=bytes(rng.randrange(256) for _ in range(big_toy.scalar_len)),
            m_tilde=b"junk",
        )
        ok, found, recovered = semecs_verify_search(pk, forged)
        assert not ok and found is None and recovered is None
    ok, _, _ = semecs_verify_search(pk, env)
    assert ok


def test_search_requires_an_index():
    state, pk = semecs_keygen_from_secret(TOY_GROUP, 16, y=3, require_index=False)
    env = semecs_sign(state, b"no index here")
    assert pk.search_index is None
    with pytest.raises(ValueError):
        semecs_verify_search(pk, env)


def test_search_and_indexed_agree(big_toy, rng):
    state, pk = semecs_keygen(big_toy, 32, rng)
    envs = [semecs_sign(state, bytes([i]) * (1 + i % 5)) for i in range(32)]
    for trial in range(500):
        env = envs[rng.randrange(32)]
        if trial % 2:
            field = rng.randrange(3)
            if field == 0:
                env = SignedEnvelope(
                    env.j, env.padded, rng.randrange(0, big_toy.q), env.c, env.m_tilde
                )
            elif field == 1:
                c = bytearray(env.c)
                c[rng.randrange(len(c))] ^= 1 << rng.randrange(8)
                env = SignedEnvelope(env.j, env.padded, env.s, bytes(c), env.m_tilde)
            else:
                env = SignedEnvelope(env.j, not env.padded, env.s, env.c, env.m_tilde)
        ok_i, rec_i = semecs_verify_indexed(pk, env)
        ok_s, _, rec_s = semecs_verify_search(pk, env)
        assert ok_i == ok_s and rec_i == rec_s


# --- index reuse extraction ---------------------------------------------------

def test_extraction_recovers_every_toy_key():
    for y in range(1, 11):
        state_a, pk = semecs_keygen_from_secret(TOY_GROUP, 1, y=y, require_index=False)
        state_b, _ = semecs_keygen_from_secret(TOY_GROUP, 1, y=y, require_index=False)
        env_a = semecs_sign(state_a, b"first message")
        e_a = envelope_challenge(TOY_GROUP, env_a)
        # pick a second message whose challenge differs (q=11 collides often)
        for i in range(32):
            state_b.j = 0
            env_b = semecs_sign(state_b, b"second message %d" % i)
            e_b = envelope_challenge(TOY_GROUP, env_b)
            if e_b != e_a:
                break
        else:
            pytest.fail("no distinct challenge found")
        recovered = extract_private_key(TOY_GROUP, (e_a, env_a.s), (e_b, env_b.s))
        assert recovered == y
        assert exp(TOY_GROUP, TOY_GROUP.alpha, recovered) == pk.Y


def test_extraction_requires_distinct_challenges():
    with pytest.raises(NotExtractable):
        extract_private_key(TOY_GROUP, (5, 2), (5, 9))


def test_extraction_on_production_group(rng):
    y = rng.randrange(1, PRODUCTION_GROUP.q)
    state_a, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, 1, y=y)
    state_b, _ = semecs_keygen_from_secret(PRODUCTION_GROUP, 1, y=y)
    env_a = semecs_sign(state_a, b"alpha transcript")
    env_b = semecs_sign(state_b, b"bravo transcript")
    recovered = extract_private_key(
        PRODUCTION_GROUP,
        (envelope_challenge(PRODUCTION_GROUP, env_a), env_a.s),
        (envelope_challenge(PRODUCTION_GROUP, env_b), env_b.s),
    )
    assert recovered == y
    assert exp(PRODUCTION_GROUP, PRODUCTION_GROUP.alpha, recovered) == pk.Y


# --- envelope wire format -----------------------------------------------------

def test_envelope_round_trip(rng):
    for params in (TOY_GROUP, PRODUCTION_GROUP):
        for _ in range(100):
            env = SignedEnvelope(
                j=rng.randrange(0, 1 << 32),
                padded=bool(rng.randrange(2)),
                s=rng.randrange(0, params.q),
                c=bytes(rng.randrange(256) for _ in range(params.scalar_len)),
                m_tilde=bytes(rng.randrange(256) for _ in range(rng.randrange(0, 50))),
            )
            assert SignedEnvelope.from_bytes(params, env.to_bytes(params)) == env


def test_envelope_malformed_inputs(big_toy):
    state, _ = semecs_keygen_from_secret(big_toy, 1, y=5)
    blob = semecs_sign(state, b"serialize me").to_bytes(big_toy)
    with pytest.raises(MalformedEncoding):
        SignedEnvelope.from_bytes(big_toy, blob[:4])
    with pytest.raises(MalformedEncoding):
        SignedEnvelope.from_bytes(big_toy, b"\x09" + blob[1:])
    bad_flag = blob[:5] + b"\x02" + blob[6:]
    with pytest.raises(MalformedEncoding):
        SignedEnvelope.from_bytes(big_toy, bad_flag)


def test_envelope_overhead_accounting():
    state, _ = semecs_keygen_from_secret(PRODUCTION_GROUP, 2, y=31337)
    long_msg = bytes(range(64))
    env = semecs_sign(state, long_msg)
    assert len(env.to_bytes(PRODUCTION_GROUP)) - len(long_msg) == 32 + ENVELOPE_HEADER_LEN
    short = semecs_sign(state, b"tiny")
    assert len(short.to_bytes(PRODUCTION_GROUP)) == ENVELOPE_HEADER_LEN + 2 * 32


# --- search index -------------------------------------------------------------

def test_build_search_index_matches_sort_oracle(rng):
    betas = [bytes([rng.randrange(256), i]) for i in range(16)]
    index = build_search_index(betas)
    oracle = sorted(range(16), key=lambda i: betas[i])
    assert list(index.order) == oracle
    assert list(index.sorted_betas) == sorted(betas)


def test_build_search_index_singleton_and_duplicates():
    assert build_search_index([b"\x01"]).order == (0,)
    with pytest.raises(DuplicateBeta):
        build_search_index([b"\x01", b"\x02", b"\x01"])
