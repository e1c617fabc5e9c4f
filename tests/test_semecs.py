import hashlib
import os
import time

import pytest

from semecs.errors import (
    DuplicateBeta,
    EmptyMessage,
    KeyExhausted,
    MalformedEncoding,
    NotExtractable,
    StatePersistFailure,
)
from semecs.eta import EtaSigningState, eta_keygen_from_secrets, eta_sign
from semecs.group import BIG_TOY_GROUP, PRODUCTION_GROUP, TOY_GROUP, count_group_ops, exp
from semecs import eta as eta_mod, group, semecs as semecs_mod
from semecs.keystore import (
    eta_public_from_record,
    record_from_eta_public,
    record_from_semecs_public,
    semecs_public_from_record,
    serialize_record,
)
from semecs.schnorr import SchnorrKeyPair, schnorr_sign
from semecs.semecs import (
    ENVELOPE_HEADER_LEN,
    SemecsSigningState,
    SignedEnvelope,
    Tokens,
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

from conftest import assert_reaped, fail_keygen_ranges, no_new_descriptors, run_in_threads
from oracles import eta_keygen_transcript, semecs_keygen_transcript, semecs_sign_transcript
from oracles import scalar_octets as oracle_scalar_octets


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
    _, pk = semecs_keygen_from_secret(TOY_GROUP, 2, y=3)
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


# --- keygen split across forked workers --------------------------------------

_SPLIT_K = 2 * semecs_mod._MIN_INDICES_PER_WORKER  # smallest K split two ways
_SCHEMES = pytest.mark.parametrize("scheme", ["semecs", "eta"])


def _keygen_tokens(scheme, params, K, secret):
    """The tokens of a fresh key, in index order (gamma_j || beta_j for SEMECS)."""
    if scheme == "eta":
        return list(eta_keygen_from_secrets(params, K, y=secret, r0=secret + 1)[1].tokens)
    _, pk = semecs_keygen_from_secret(params, K, y=secret)
    return [gamma + beta for gamma, beta in zip(pk.gammas, pk.betas)]


def _oracle_tokens(scheme, params, K, secret):
    """What :func:`_keygen_tokens` returns, from ``tests/oracles.py``."""
    if scheme == "eta":
        return eta_keygen_transcript(params, secret, secret + 1, K)["tokens"]
    rows = semecs_keygen_transcript(params, secret, K)["rows"]
    return [row["gamma"] + row["beta"] for row in rows]


@_SCHEMES
@pytest.mark.parametrize(
    "K, n_forks",
    [(_SPLIT_K - 1, 0), (_SPLIT_K, 1), (_SPLIT_K + 257, 2)],  # the last: 6 tickets, one of 129
    ids=["below", "at", "odd-above"],
)
def test_split_keygen_matches_oracle(cores, forks, K, n_forks, scheme):
    cores(3)
    with no_new_descriptors(), count_group_ops() as ops:
        tokens = _keygen_tokens(scheme, BIG_TOY_GROUP, K, 0x5EED)
    assert ops.exp_count == K + 1  # the children's powers count too
    assert len(forks) == n_forks
    assert tokens == _oracle_tokens(scheme, BIG_TOY_GROUP, K, 0x5EED)
    assert_reaped(forks)


def test_split_production_record_hashes_as_the_serial_one(cores, forks):
    def record_digest():
        _, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, _SPLIT_K + 1, y=0x1D6E51F0)
        return hashlib.sha256(serialize_record(record_from_semecs_public(pk))).digest()

    cores(1)
    serial = record_digest()
    cores(2)
    assert record_digest() == serial
    assert len(forks) == 1
    assert_reaped(forks)


@_SCHEMES
def test_keygen_builds_the_alpha_table_before_it_forks(cores, forks, monkeypatch, scheme):
    # as in a fresh process: no power computed and no table built yet
    monkeypatch.setattr(group, "_pow_countdown", group._POW_PHASE)
    group._alpha_table.cache_clear()
    tables_at_fork, recording_fork = [], os.fork

    def fork():
        tables_at_fork.append(group._alpha_table.cache_info().currsize)
        return recording_fork()

    cores(2)
    monkeypatch.setattr(os, "fork", fork)
    _keygen_tokens(scheme, PRODUCTION_GROUP, _SPLIT_K, 0x1D6E51F0)
    assert tables_at_fork == [1]
    assert_reaped(forks)


@_SCHEMES
@pytest.mark.parametrize("call", [1, 2])
def test_keygen_fork_failure_leaves_no_child(cores, forks, monkeypatch, call, scheme):
    cores(3)  # two forks: the first fails, or the second after the first succeeded
    calls, recording_fork = [], os.fork

    def fork():
        calls.append(1)
        if len(calls) == call:
            raise OSError(11, "Resource temporarily unavailable")
        return recording_fork()

    monkeypatch.setattr(os, "fork", fork)
    with no_new_descriptors(), pytest.raises(OSError, match="temporarily unavailable"):
        _keygen_tokens(scheme, BIG_TOY_GROUP, 3 * semecs_mod._MIN_INDICES_PER_WORKER, 7)
    assert len(forks) == call - 1
    assert_reaped(forks)


@_SCHEMES
@pytest.mark.parametrize("exc", [RuntimeError("a parent ticket failed"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_parent_failure_kills_and_reaps_every_child(cores, forks, monkeypatch, exc, scheme):
    cores(3)
    fail_keygen_ranges(monkeypatch, in_child=False, exc=exc)
    started = time.monotonic()
    with no_new_descriptors(), pytest.raises(type(exc)):
        _keygen_tokens(scheme, BIG_TOY_GROUP, _SPLIT_K * 2, 7)
    assert time.monotonic() - started < 20  # the sleeping children were killed
    assert len(forks) == 2
    assert_reaped(forks)


@_SCHEMES
def test_failed_child_raises_child_process_error(cores, forks, monkeypatch, scheme):
    cores(2)
    fail_keygen_ranges(monkeypatch, in_child=True, exc=RuntimeError())
    with no_new_descriptors(), pytest.raises(ChildProcessError):
        _keygen_tokens(scheme, BIG_TOY_GROUP, _SPLIT_K, 7)
    assert len(forks) == 1
    assert_reaped(forks)


@_SCHEMES
def test_a_slowed_child_leaves_its_tickets_to_the_parent(cores, forks, monkeypatch, scheme):
    parent, parent_indices, real_buffer = os.getpid(), [], semecs_mod._token_buffer

    def token_buffer(K, width, token_range):
        slept = []  # the child's own copy after the fork

        def range_slowed_in_the_child(lo, hi):
            if os.getpid() == parent:
                parent_indices.append(hi - lo)
            elif not slept:
                slept.append(time.sleep(0.5))  # the child's first ticket only
            return token_range(lo, hi)

        return real_buffer(K, width, range_slowed_in_the_child)

    for module in (semecs_mod, eta_mod):
        monkeypatch.setattr(module, "_token_buffer", token_buffer)
    cores(2)
    K = 2 * _SPLIT_K
    with no_new_descriptors(), count_group_ops() as ops:
        tokens = _keygen_tokens(scheme, BIG_TOY_GROUP, K, 0x5EED)
    assert sum(parent_indices) > K // 2  # a static split gives each worker half
    assert tokens == _oracle_tokens(scheme, BIG_TOY_GROUP, K, 0x5EED)
    assert ops.exp_count == K + 1
    assert len(forks) == 1
    assert_reaped(forks)


# --- signing ----------------------------------------------------------------

def test_sign_transcript_matches_oracle():
    state, pk = semecs_keygen_from_secret(TOY_GROUP, 2, y=3)
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


@pytest.mark.parametrize("j", [0, semecs_mod.MAX_K - 1])
@pytest.mark.parametrize("length", [1, 31, 32, 33, 200])
def test_production_sign_matches_oracle(length, j):
    # 32-octet scalars: the masks are XORed as integers, so check every octet of
    # c, including a leading zero octet (the message opens with z_j's own first octet)
    y = 0x5EC5 << 200 | 0xC0FFEE
    z_first = oracle_scalar_octets(PRODUCTION_GROUP, semecs_sign_transcript(
        PRODUCTION_GROUP, y, j, b"\x00" * 32)["z"])[:1]
    msg = (z_first + bytes(range(0xFF, 0, -1)))[:length]
    state = SemecsSigningState(PRODUCTION_GROUP, y, j, semecs_mod.MAX_K)
    env = semecs_sign(state, msg)
    expected = semecs_sign_transcript(PRODUCTION_GROUP, y, j, msg)
    assert env.c[0] == 0 and len(env.c) == 32
    assert (env.j, env.c, env.s, env.m_tilde, env.padded) == (
        j, expected["c"], expected["s"], expected["m_tilde"], expected["padded"])
    assert envelope_challenge(PRODUCTION_GROUP, env) == expected["e"]
    if j == 0:  # recovery XORs gamma_j, H0(R') and c as integers too, and keeps
        # a leading zero octet of M-bar
        state, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, 2, y)
        assert semecs_verify_indexed(pk, env) == (True, msg)
        state.j, zeros = 1, bytes(length)
        assert semecs_verify_indexed(pk, semecs_sign(state, zeros)) == (True, zeros)


def test_sign_performs_zero_group_operations(big_toy):
    state, _ = semecs_keygen_from_secret(big_toy, 64, y=7)
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


def test_threads_sharing_one_signer_release_each_index_once():
    state = SemecsSigningState(PRODUCTION_GROUP, y=0x5EC5, j=0, K=2000)
    envs = run_in_threads(lambda: semecs_sign(state, b"one shared signer"))
    assert len({env.j for env in envs}) == len(envs) == 2000
    assert state.j == 2000


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
    assert semecs_verify_indexed(pk, env._replace(j=4)) == (False, None)
    assert semecs_verify_indexed(pk, env._replace(j=-1)) == (False, None)


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


@pytest.mark.parametrize(
    "tamper",
    [
        lambda env, q: env._replace(c=env.c + b"\x00"),
        lambda env, q: env._replace(c=env.c[:-1]),
        lambda env, q: env._replace(m_tilde=b"extra"),
        lambda env, q: env._replace(s=q),
        lambda env, q: env._replace(s=-1),
    ],
    ids=["c-long", "c-short", "padded-remainder", "s-q", "s-negative"],
)
def test_both_verifiers_refuse_out_of_range_envelopes_before_group_ops(big_toy, tamper):
    state, pk = semecs_keygen_from_secret(big_toy, 4, y=21)
    env = semecs_sign(state, b"xy")  # padded on this group (scalar_len = 3)
    bad = tamper(env, big_toy.q)
    with count_group_ops() as ops:
        assert semecs_verify_indexed(pk, bad) == (False, None)
        assert semecs_verify_search(pk, bad) == (False, None, None)
    assert (ops.exp_count, ops.double_exp_count, ops.mul_count) == (0, 0, 0)


# --- search-based verification ----------------------------------------------

def test_search_recovers_the_index(big_toy, rng):
    K = 128
    state, pk = semecs_keygen(big_toy, K, rng)
    for j in (0, 1, 63, 127):
        state.j = j
        msg = b"searchable payload " + bytes([j])
        env = semecs_sign(state, msg)
        # the search path never reads env.j
        ok, found, recovered = semecs_verify_search(pk, env._replace(j=9999))
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
    state, pk = semecs_keygen_from_secret(TOY_GROUP, 16, y=3)
    env = semecs_sign(state, b"no index here")
    with pytest.raises(DuplicateBeta):
        pk.search_index
    # the key is refused before the envelope is looked at, even one with s >= q
    for envelope in (env, env._replace(s=TOY_GROUP.q)):
        with pytest.raises(DuplicateBeta):
            semecs_verify_search(pk, envelope)


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
        state_a, pk = semecs_keygen_from_secret(TOY_GROUP, 1, y=y)
        state_b, _ = semecs_keygen_from_secret(TOY_GROUP, 1, y=y)
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
        assert exp(TOY_GROUP, recovered) == pk.Y


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
    assert exp(PRODUCTION_GROUP, recovered) == pk.Y


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
    assert [betas[i] for i in index.order] == sorted(betas)


def test_build_search_index_singleton_and_duplicates():
    assert tuple(build_search_index([b"\x01"]).order) == (0,)
    with pytest.raises(DuplicateBeta):
        build_search_index([b"\x01", b"\x02", b"\x01"])


def test_public_key_holds_only_its_tokens(big_toy):
    _, pk = semecs_keygen_from_secret(big_toy, 5, y=7)
    assert list(pk._fields) == ["params", "Y", "gammas", "betas"]
    assert pk.K == len(pk.betas) == 5


def test_search_index_is_built_on_the_first_search_only(big_toy, monkeypatch):
    state, pk = semecs_keygen_from_secret(big_toy, 8, y=11)
    envs = [semecs_sign(state, b"message %d" % i) for i in range(3)]
    record = record_from_semecs_public(pk)
    built = []
    real = semecs_mod.build_search_index
    monkeypatch.setattr(
        semecs_mod, "build_search_index", lambda betas: built.append(1) or real(betas)
    )
    loaded = semecs_public_from_record(record)
    assert all(semecs_verify_indexed(loaded, env)[0] for env in envs)
    assert len(built) == 0
    assert semecs_verify_search(loaded, envs[0])[:2] == (True, 0)
    assert len(built) == 1
    assert semecs_verify_search(loaded, envs[1])[:2] == (True, 1)
    assert len(built) == 1


# --- token views ------------------------------------------------------------

def test_tokens_view_behaves_like_the_tuple_of_its_tokens():
    buf = bytes(range(40))
    view = Tokens(buf, 3, 5, 2, 7)  # 2-octet tokens at offsets 3, 8, ..., 33
    oracle = tuple(buf[off : off + 2] for off in range(3, 38, 5))
    assert len(view) == len(oracle) == 7
    assert tuple(view) == oracle
    for i in range(-7, 7):
        assert view[i] == oracle[i]
    for i in (7, -8):
        with pytest.raises(IndexError):
            oracle[i]
        with pytest.raises(IndexError):
            view[i]
    for other in (oracle, list(oracle)):
        assert view == other and other == view
        assert not (view != other or other != view)
    changed = oracle[:-1] + (b"zz",)
    for other in (changed, list(changed), oracle[:-1], list(oracle[:-1])):
        assert view != other and other != view
        assert not (view == other or other == view)
    assert hash(view) == hash(oracle)
    assert Tokens(buf, 0, 2, 2, 0) == ()


def test_token_views_slice_to_tuples_of_tokens(big_toy):
    _, pk = semecs_keygen_from_secret(big_toy, 5, y=0x5EED)
    loaded = semecs_public_from_record(record_from_semecs_public(pk))
    _, eta_pk = eta_keygen_from_secrets(big_toy, 5, y=3, r0=4)
    eta_loaded = eta_public_from_record(record_from_eta_public(eta_pk))
    for view in (loaded.gammas, loaded.betas, eta_pk.tokens, eta_loaded.tokens):
        assert isinstance(view, Tokens)
        tokens = list(view)
        for cut in (slice(0, 2), slice(None), slice(3, None), slice(None, None, -2),
                    slice(-2, 9), slice(4, 1)):
            assert view[cut] == tuple(tokens[cut])


def test_public_record_round_trips_through_the_views():
    _, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, 9, y=0x5EED)
    record = record_from_semecs_public(pk)
    loaded = semecs_public_from_record(record)
    assert isinstance(loaded.betas, Tokens) and isinstance(pk.betas, Tokens)
    assert loaded == pk and hash(loaded) == hash(pk)
    assert serialize_record(record_from_semecs_public(loaded)) == serialize_record(record)


def test_signer_states_compare_by_value_and_are_unhashable():
    semecs = SemecsSigningState(TOY_GROUP, y=3, j=1, K=4)
    eta = EtaSigningState(TOY_GROUP, y=3, r_cur=5, j=1, K=4)
    # lock and persist take no part in ==
    same_semecs = SemecsSigningState(TOY_GROUP, y=3, j=1, K=4, persist=print)
    same_eta = EtaSigningState(TOY_GROUP, y=3, r_cur=5, j=1, K=4)
    assert semecs.lock is not same_semecs.lock and eta.lock is not same_eta.lock
    assert semecs == same_semecs and not semecs != same_semecs
    assert eta == same_eta and not eta != same_eta
    for other in (SemecsSigningState(BIG_TOY_GROUP, 3, 1, 4),
                  SemecsSigningState(TOY_GROUP, 4, 1, 4),
                  SemecsSigningState(TOY_GROUP, 3, 2, 4),
                  SemecsSigningState(TOY_GROUP, 3, 1, 5),
                  eta, (TOY_GROUP, 3, 1, 4)):
        assert semecs != other
    for other in (EtaSigningState(TOY_GROUP, 3, 6, 1, 4), EtaSigningState(TOY_GROUP, 3, 5, 2, 4)):
        assert eta != other
    for state in (semecs, eta):
        with pytest.raises(TypeError):
            hash(state)


def test_every_record_type_replaces_and_round_trips(big_toy):
    state, pk = semecs_keygen_from_secret(big_toy, 4, y=7)
    env = semecs_sign(state, b"replace me")
    eta_state, eta_pk = eta_keygen_from_secrets(big_toy, 2, y=3, r0=4)
    kp = SchnorrKeyPair.from_private(big_toy, 5)
    records = (pk, env, pk.search_index, eta_pk, eta_sign(eta_state, b"m"), kp,
               schnorr_sign(kp, b"m"), record_from_semecs_public(pk))
    for value in records:
        first = value._fields[0]
        assert value._replace() == value and type(value._replace()) is type(value)
        changed = value._replace(**{first: None})
        assert getattr(changed, first) is None and changed != value
        assert changed._replace(**{first: getattr(value, first)}) == value
    # a replaced public key builds its own search index
    other = pk._replace(betas=tuple(pk.betas)[::-1])
    assert other.search_index is not pk.search_index
    assert tuple(other.search_index.order) == tuple(pk.K - 1 - i for i in pk.search_index.order)


def test_no_secret_appears_in_a_repr():
    y, r0 = 0x5EED5EED5EED, 0xC0FFEEC0FFEE
    semecs_state, _ = semecs_keygen_from_secret(PRODUCTION_GROUP, 2, y=y)
    eta_state, _ = eta_keygen_from_secrets(PRODUCTION_GROUP, 2, y=y, r0=r0)
    schnorr_key = SchnorrKeyPair.from_private(PRODUCTION_GROUP, y)
    for obj, secrets in ((semecs_state, {"y": y}),
                         (eta_state, {"y": y, "r_cur": eta_state.r_cur}),
                         (schnorr_key, {"y": y})):
        text = repr(obj)
        assert type(obj).__name__ in text and "params=" in text
        for name, value in secrets.items():
            assert f"{name}=" not in text
            assert str(value) not in text and hex(value)[2:] not in text
