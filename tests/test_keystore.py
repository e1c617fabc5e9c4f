import fcntl
import hashlib
import multiprocessing
import os
import random
import threading
import tracemalloc
from unittest import mock

import pytest

from semecs import keystore
from semecs.errors import (
    CorruptState,
    DuplicateBeta,
    IoFailure,
    KeyExhausted,
    StaleState,
    StatePersistFailure,
)
from semecs import group
from semecs.eta import eta_keygen, eta_keygen_from_secrets
from semecs.group import BIG_TOY_GROUP, PRODUCTION_GROUP, TOY_GROUP, GroupParams
from semecs.keystore import (
    SignerStateRecord,
    advance_counter,
    load_state,
    parse_record,
    save_state,
    serialize_record,
)
from semecs.schnorr import SchnorrKeyPair, schnorr_keygen
from semecs.semecs import (
    MAX_K,
    SemecsPublicKey,
    SemecsSigningState,
    build_search_index,
    extract_private_key,
    semecs_keygen,
    semecs_keygen_from_secret,
    semecs_sign,
    Tokens,
)

from conftest import run_in_threads
from faults import ADVANCE_FAULTS, fails_on_call, short_write
from oracles import element_octets, eta_keygen_transcript, semecs_keygen_transcript
from signers import SIGNERS


def _semecs_record(params=None, K=4, y=5):
    state, pk = semecs_keygen_from_secret(params or BIG_TOY_GROUP, K, y=y)
    return keystore.record_from_semecs_state(state), state, pk


# --- serialization ------------------------------------------------------------

def test_record_round_trip_fuzz():
    rnd = random.Random(99)
    groups = [TOY_GROUP, BIG_TOY_GROUP, PRODUCTION_GROUP]
    for _ in range(10_000):
        params = groups[rnd.randrange(3)]
        K = rnd.randrange(0, 1 << 20)
        record = SignerStateRecord(
            scheme_tag=rnd.choice(
                (keystore.SCHEME_SCHNORR, keystore.SCHEME_ETA, keystore.SCHEME_SEMECS)
            ),
            role=rnd.choice(
                (keystore.ROLE_SECRET, keystore.ROLE_PUBLIC, keystore.ROLE_STATE)
            ),
            params=params,
            j=rnd.randrange(0, K + 1),
            K=K,
            payload=bytes(rnd.randrange(256) for _ in range(rnd.randrange(0, 64))),
        )
        assert parse_record(serialize_record(record)) == record


def test_save_load_round_trip(tmp_path):
    record, _, _ = _semecs_record()
    path = tmp_path / "signer.sk"
    save_state(path, record)
    assert load_state(path) == record


def test_truncated_file_is_corrupt(tmp_path):
    record, _, _ = _semecs_record()
    path = tmp_path / "signer.sk"
    save_state(path, record)
    data = path.read_bytes()
    for cut in (0, 3, 10, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(CorruptState):
            load_state(path)


def test_bitflip_breaks_integrity(tmp_path):
    record, _, _ = _semecs_record()
    path = tmp_path / "signer.sk"
    save_state(path, record)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptState):
        load_state(path)


def test_bad_magic_and_version():
    record, _, _ = _semecs_record()
    blob = serialize_record(record)
    wrong_magic = b"XMKS" + blob[4:]
    body = wrong_magic[:-32]
    with pytest.raises(CorruptState):
        parse_record(body + hashlib.blake2s(body).digest())
    body = blob[:4] + b"\x09" + blob[5:-32]
    with pytest.raises(CorruptState):
        parse_record(body + hashlib.blake2s(body).digest())


def test_counter_beyond_capacity_is_corrupt():
    # j > K cannot be produced by serialize_record; craft the bytes directly
    record, _, _ = _semecs_record(K=2)
    blob = serialize_record(record)
    body = bytearray(blob[:-32])
    j_off = body.index((2).to_bytes(8, "big"))  # K field; j sits 8 bytes before
    body[j_off - 8 : j_off] = (3).to_bytes(8, "big")
    forged = bytes(body) + hashlib.blake2s(bytes(body)).digest()
    with pytest.raises(CorruptState):
        parse_record(forged)


def test_unknown_tags_rejected():
    record, _, _ = _semecs_record()
    blob = serialize_record(record)
    body = bytearray(blob[:-32])
    body[5] = 0x77  # scheme tag
    forged = bytes(body) + hashlib.blake2s(bytes(body)).digest()
    with pytest.raises(CorruptState):
        parse_record(forged)


def test_unknown_role_under_a_valid_tag_is_corrupt():
    record, _, _ = _semecs_record()
    body = bytearray(serialize_record(record)[:-32])
    body[7] = 0x77  # role
    forged = bytes(body) + hashlib.blake2s(bytes(body)).digest()
    with pytest.raises(CorruptState, match="unknown role"):
        parse_record(forged)


@pytest.mark.parametrize(
    "change", [{"scheme_tag": 0x77}, {"role": 0x77}, {"j": 5}],
    ids=["scheme-tag", "role", "j-past-K"],
)
def test_serialize_refuses_unknown_tags_and_a_counter_past_capacity(change):
    record, _, _ = _semecs_record(K=4)
    with pytest.raises(ValueError):
        serialize_record(record._replace(**change))


@pytest.mark.parametrize(
    "params,group_id",
    [(PRODUCTION_GROUP, keystore.GROUP_TOY), (TOY_GROUP, keystore.GROUP_PRODUCTION),
     (PRODUCTION_GROUP, 0x77)],
    ids=["toy-byte-on-prod", "prod-byte-on-toy", "unknown-byte"],
)
def test_group_byte_must_match_the_parameters(params, group_id):
    kp = SchnorrKeyPair.from_private(params, 3)
    body = bytearray(serialize_record(keystore.record_from_schnorr_key(kp))[:-32])
    body[6] = group_id
    forged = bytes(body) + hashlib.blake2s(bytes(body)).digest()
    with pytest.raises(CorruptState, match="group byte"):
        parse_record(forged)


def test_modulus_wider_than_production_is_corrupt():
    # GroupParams accepts this group; the loader must refuse it before its
    # alpha^q check, whose pow on a wide modulus can stall for seconds
    p = (1 << 1024) + 1
    record, _, _ = _semecs_record()
    wide = record._replace(params=GroupParams(p=p, q=2, alpha=p - 1))
    with pytest.raises(CorruptState):
        parse_record(serialize_record(wide))


def _with_group(record, p, q, alpha):
    """The bytes of ``record`` with (p, q, alpha) for its group, re-tagged.

    Written octet by octet, since GroupParams refuses some of these groups.
    """
    def group_field(*values):
        return b"".join(map(keystore._len16, values))

    body = serialize_record(record)[:-32]
    old = group_field(*record.params)
    assert body[8 : 8 + len(old)] == old
    body = body[:8] + group_field(p, q, alpha) + body[8 + len(old):]
    return body + hashlib.blake2s(body).digest()


def test_composite_toy_group_order_is_corrupt():
    record = keystore.record_from_schnorr_key(SchnorrKeyPair.from_private(TOY_GROUP, 3))
    assert parse_record(_with_group(record, 23, 11, 2)) == record
    with pytest.raises(CorruptState, match="composite"):
        parse_record(_with_group(record, 23, 22, 2))  # 22 | 22 and 2^22 = 1 mod 23


def test_large_group_order_other_than_production_is_corrupt(tmp_path):
    # q = p - 1 passes GroupParams, which tests only a toy q for primality
    P = PRODUCTION_GROUP
    params = GroupParams(p=P.p, q=P.p - 1, alpha=4)
    record = keystore.record_from_schnorr_key(SchnorrKeyPair.from_private(P, 9))
    with pytest.raises(CorruptState, match="production group"):
        parse_record(_with_group(record, *params))
    # and nothing writes a record that could not be read back
    with pytest.raises(ValueError, match="production group"):
        serialize_record(record._replace(params=params))
    with pytest.raises(ValueError, match="production group"):
        save_state(tmp_path / "mid.sk", record._replace(params=params))
    assert os.listdir(tmp_path) == []


_SECRET_LOADERS = {
    keystore.SCHEME_SCHNORR: keystore.schnorr_key_from_record,
    keystore.SCHEME_ETA: keystore.eta_state_from_record,
    keystore.SCHEME_SEMECS: keystore.semecs_state_from_record,
}


def test_zero_secret_scalar_is_corrupt(zero_secret_record):
    with pytest.raises(CorruptState):
        _SECRET_LOADERS[zero_secret_record.scheme_tag](zero_secret_record)


def test_non_canonical_secret_scalar_is_corrupt(zero_secret_record):
    L = PRODUCTION_GROUP.scalar_len
    q = PRODUCTION_GROUP.q.to_bytes(L, "big")  # the named slot holds q in place of 0
    record = zero_secret_record._replace(payload=zero_secret_record.payload.replace(bytes(L), q))
    assert record.payload.count(q) == 1
    with pytest.raises(CorruptState, match="not canonical"):
        _SECRET_LOADERS[record.scheme_tag](record)


def test_capacity_beyond_the_index_field_is_corrupt(large_k_record):
    record = parse_record(serialize_record(large_k_record))  # the record itself loads
    with pytest.raises(CorruptState, match="capacity"):
        _SECRET_LOADERS[record.scheme_tag](record)


def test_k_time_public_key_without_capacity_is_corrupt():
    kp = SchnorrKeyPair.from_private(PRODUCTION_GROUP, 9)
    schnorr_pk = keystore.record_from_schnorr_public(PRODUCTION_GROUP, kp.Y)
    # a Schnorr public payload is exactly an ETA public key with K = 0
    as_eta = schnorr_pk._replace(scheme_tag=keystore.SCHEME_ETA)
    with pytest.raises(CorruptState, match="capacity"):
        keystore.eta_public_from_record(as_eta)


def test_production_records_share_the_group_constant():
    kp = SchnorrKeyPair.from_private(PRODUCTION_GROUP, 9)
    blob = serialize_record(keystore.record_from_schnorr_key(kp))
    assert parse_record(blob).params is PRODUCTION_GROUP


def test_parsed_toy_params_share_the_constant_table_entry():
    kp = SchnorrKeyPair.from_private(BIG_TOY_GROUP, 9)
    group._alpha_table(BIG_TOY_GROUP)
    before = group._alpha_table.cache_info()
    parsed = parse_record(serialize_record(keystore.record_from_schnorr_key(kp))).params
    assert parsed is not BIG_TOY_GROUP and parsed == BIG_TOY_GROUP
    assert group._alpha_table(parsed) is group._alpha_table(BIG_TOY_GROUP)
    assert group._alpha_table.cache_info().misses == before.misses


_Y, _R0 = 0x5EED5EED5EED, 0xC0FFEEC0FFEE


def _records_by_scheme_and_role():
    kp = SchnorrKeyPair.from_private(PRODUCTION_GROUP, _Y)
    eta_state, eta_pk = eta_keygen_from_secrets(PRODUCTION_GROUP, 2, y=_Y, r0=_R0)
    semecs_state, semecs_pk = semecs_keygen_from_secret(PRODUCTION_GROUP, 2, y=_Y)
    return {
        "schnorr-secret": keystore.record_from_schnorr_key(kp),
        "schnorr-public": keystore.record_from_schnorr_public(PRODUCTION_GROUP, kp.Y),
        "eta-state": keystore.record_from_eta_state(eta_state),
        "eta-public": keystore.record_from_eta_public(eta_pk),
        "semecs-state": keystore.record_from_semecs_state(semecs_state),
        "semecs-public": keystore.record_from_semecs_public(semecs_pk),
    }


@pytest.mark.parametrize("kind", ["schnorr-secret", "schnorr-public", "eta-state",
                                  "eta-public", "semecs-state", "semecs-public"])
def test_record_repr_shows_no_secret(kind):
    record = _records_by_scheme_and_role()[kind]
    text = repr(record)
    assert text.startswith("SignerStateRecord(scheme_tag=") and "params=" in text
    assert f"payload=<{len(record.payload)} octets>" in text
    assert record.payload.hex() not in text and repr(record.payload) not in text
    for value in (_Y, _R0):
        assert str(value) not in text and hex(value)[2:] not in text.lower()
    # the repr hides the payload; equality, _replace and the field order keep it
    assert record._fields == ("scheme_tag", "role", "params", "j", "K", "payload")
    assert record._replace() == record and record._replace(payload=b"") != record
    assert parse_record(serialize_record(record)) == record


def test_scheme_role_mismatch_raises():
    record, _, _ = _semecs_record()
    with pytest.raises(CorruptState):
        keystore.eta_state_from_record(record)
    with pytest.raises(CorruptState):
        keystore.semecs_public_from_record(record)


# --- per-scheme conversions -----------------------------------------------------

def test_schnorr_record_round_trip(rng):
    kp = schnorr_keygen(PRODUCTION_GROUP, rng)
    record = keystore.record_from_schnorr_key(kp)
    assert len(record.payload) == 32
    assert keystore.schnorr_key_from_record(record) == kp
    pub = keystore.record_from_schnorr_public(PRODUCTION_GROUP, kp.Y)
    assert keystore.schnorr_public_from_record(pub) == kp.Y


def test_eta_record_round_trip(big_toy, rng):
    state, pk = eta_keygen(big_toy, 5, rng)
    record = keystore.record_from_eta_state(state)
    restored = keystore.eta_state_from_record(record)
    assert restored == state
    pub = keystore.record_from_eta_public(pk)
    assert keystore.eta_public_from_record(pub) == pk


def test_semecs_record_round_trip(big_toy, rng):
    state, pk = semecs_keygen(big_toy, 6, rng)
    restored = keystore.semecs_state_from_record(keystore.record_from_semecs_state(state))
    assert (restored.y, restored.j, restored.K) == (state.y, state.j, state.K)
    pk2 = keystore.semecs_public_from_record(keystore.record_from_semecs_public(pk))
    assert pk2 == pk


_PUBLIC_LOADERS = {
    "eta": keystore.eta_public_from_record,
    "semecs": keystore.semecs_public_from_record,
}


@pytest.mark.parametrize("scheme", sorted(_PUBLIC_LOADERS))
def test_single_index_keys_round_trip_and_sign_once(tmp_path, scheme):
    secret, public = keystore.keygen_records(scheme, BIG_TOY_GROUP, 1)
    pk = _PUBLIC_LOADERS[scheme](parse_record(serialize_record(public)))
    path = tmp_path / "one.sk"
    save_state(path, secret)
    release = SIGNERS[scheme].sign(keystore.open_signer(path), b"the only message")
    assert release.j == 0 and SIGNERS[scheme].verify(pk, release)
    with pytest.raises(KeyExhausted):
        SIGNERS[scheme].sign(keystore.open_signer(path), b"a second message")


def test_semecs_state_at_the_largest_capacity_loads_and_signs_its_last_index(tmp_path):
    state = SemecsSigningState(PRODUCTION_GROUP, 0x5EC5, MAX_K - 1, MAX_K)
    record = keystore.record_from_semecs_state(state)
    assert parse_record(serialize_record(record)) == record
    path = tmp_path / "last.sk"
    save_state(path, record)
    handle = keystore.open_signer(path)
    assert (handle.y, handle.j, handle.K) == (state.y, MAX_K - 1, MAX_K)
    assert semecs_sign(handle, b"the last index").j == MAX_K - 1
    assert load_state(path).j == MAX_K
    with pytest.raises(KeyExhausted):
        semecs_sign(keystore.open_signer(path), b"one too many")


def test_loaded_semecs_public_key_views_its_payload():
    # a K = 1024 production key's payload is 65 568 octets; 2K token objects
    # of 32 octets each would keep about 150 KB beyond it
    _, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, 1024, y=0xACE0FBA5E)
    record = keystore.record_from_semecs_public(pk)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = keystore.semecs_public_from_record(record)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loaded == pk
    assert kept < 4096, f"loading the key kept {kept} octets"


def _oracle_payload(params, y, K, order=None):
    """Y's encoding, then gamma_j || beta_{order[j]} for every j, from the oracle."""
    t = semecs_keygen_transcript(params, y, K)
    rows, order = t["rows"], order or range(K)
    return element_octets(params, t["Y"]) + b"".join(
        row["gamma"] + rows[k]["beta"] for row, k in zip(rows, order)
    )


def test_loaded_semecs_public_key_writes_the_buffer_it_views(tmp_path):
    _, pk = semecs_keygen_from_secret(BIG_TOY_GROUP, 5, y=5)
    save_state(tmp_path / "k.pk", keystore.record_from_semecs_public(pk))
    loaded = keystore.semecs_public_from_record(load_state(tmp_path / "k.pk"))
    record = keystore.record_from_semecs_public(loaded)
    assert record.payload is loaded.gammas.buffer is loaded.betas.buffer
    expected = _oracle_payload(BIG_TOY_GROUP, 5, 5)
    assert record.payload == expected
    assert serialize_record(record) == serialize_record(record._replace(payload=expected))


def test_fresh_built_and_replaced_semecs_keys_write_the_oracle_octets():
    _, pk = semecs_keygen_from_secret(BIG_TOY_GROUP, 5, y=5)
    with mock.patch.object(Tokens, "__iter__", side_effect=AssertionError("token by token")):
        fresh = keystore.record_from_semecs_public(pk)  # keygen's own buffer, not a join
    assert fresh.payload is pk.gammas.buffer is pk.betas.buffer
    assert fresh.payload == _oracle_payload(BIG_TOY_GROUP, 5, 5)
    hand = SemecsPublicKey(pk.params, pk.Y, tuple(pk.gammas), tuple(pk.betas))
    reordered = pk._replace(betas=tuple(pk.betas)[::-1])
    keys = ((hand, None), (pk._replace(), None), (reordered, range(4, -1, -1)))
    for key, order in keys:
        assert "payload" not in vars(key)  # joined from its tokens on first use
        record = keystore.record_from_semecs_public(key)
        assert record.payload == _oracle_payload(BIG_TOY_GROUP, 5, 5, order)
        assert keystore.record_from_semecs_public(key).payload is record.payload


def test_fresh_loaded_and_hand_built_eta_keys_write_the_oracle_octets(tmp_path):
    g, L = BIG_TOY_GROUP, BIG_TOY_GROUP.scalar_len
    t = eta_keygen_transcript(g, 5, 7, 6)
    expected = element_octets(g, t["Y"]) + b"".join(t["tokens"])
    _, pk = eta_keygen_from_secrets(g, 6, y=5, r0=7)
    save_state(tmp_path / "k.pk", keystore.record_from_eta_public(pk))
    loaded = keystore.eta_public_from_record(load_state(tmp_path / "k.pk"))
    spaced = b"".join(token + b"\xff" * L for token in t["tokens"])  # a view with gaps
    with mock.patch.object(Tokens, "__iter__", side_effect=AssertionError("token by token")):
        records = [keystore.record_from_eta_public(key) for key in (pk, loaded)]  # no copy
    assert records[0].payload is pk.tokens.buffer and records[1].payload is loaded.tokens.buffer
    for tokens in (tuple(t["tokens"]), Tokens(spaced, 0, 2 * L, L, 6)):
        records.append(keystore.record_from_eta_public(pk._replace(tokens=tokens)))
    assert [record.payload for record in records] == [expected] * 4
    assert len({serialize_record(record) for record in records}) == 1


def test_semecs_public_file_size_formula(tmp_path):
    # file = fixed header + (2K+1) * scalar_len on the production group
    sizes = {}
    for K in (1, 2, 8):
        _, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, K, y=0xACE0FBA5E)
        path = tmp_path / f"k{K}.pk"
        save_state(path, keystore.record_from_semecs_public(pk))
        sizes[K] = path.stat().st_size
    L = PRODUCTION_GROUP.scalar_len
    header = sizes[1] - 3 * L
    assert sizes[2] == header + 5 * L
    assert sizes[8] == header + 17 * L


# --- counter advancement ---------------------------------------------------------

def test_advance_counter_sequential(tmp_path):
    record, _, _ = _semecs_record(K=4)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    advance_counter(path, 0)
    advance_counter(path, 1)
    assert load_state(path).j == 2


def test_advance_counter_detects_stale_writer(tmp_path):
    record, _, _ = _semecs_record(K=4)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    advance_counter(path, 0)
    with pytest.raises(StaleState):
        advance_counter(path, 0)


def test_advance_counter_stops_at_capacity(tmp_path):
    record, _, _ = _semecs_record(K=1)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    advance_counter(path, 0)
    with pytest.raises(StaleState):
        advance_counter(path, 1)


def test_signer_waits_for_the_lock_on_its_keys_directory(tmp_path, monkeypatch, signer):
    # the lock is on the directory that holds the file, wherever the process runs
    keys, elsewhere = tmp_path / "keys", tmp_path / "elsewhere"
    keys.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    record, pk = signer.keygen(BIG_TOY_GROUP, 4, 77)
    path = keys / "signer.sk"
    save_state(path, record)
    handle, releases = keystore.open_signer(path), []
    thread = threading.Thread(target=lambda: releases.append(signer.sign(handle, b"m")))
    fd = os.open(keys, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        thread.start()
        thread.join(timeout=0.3)
        assert thread.is_alive() and load_state(path).j == 0
    finally:
        os.close(fd)  # releases the lock
        if thread.ident is not None:
            thread.join(timeout=60)
    assert not thread.is_alive()
    assert [release.j for release in releases] == [0] and load_state(path).j == 1
    assert signer.verify(pk, releases[0])


def test_interleaved_writers_cannot_share_an_index(tmp_path):
    record, _, _ = _semecs_record(K=8)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    # two handles loaded at the same counter: only one may win
    a = load_state(path)
    b = load_state(path)
    advance_counter(path, a.j)
    with pytest.raises(StaleState):
        advance_counter(path, b.j)


def test_advance_counter_swaps_payload_atomically(tmp_path, big_toy, rng):
    state, _ = eta_keygen(big_toy, 3, rng)
    path = tmp_path / "eta.sk"
    save_state(path, keystore.record_from_eta_state(state))
    new_payload = b"\x01" * (2 * big_toy.scalar_len)
    advance_counter(path, 0, new_payload=new_payload)
    record = load_state(path)
    assert record.j == 1 and record.payload == new_payload


@pytest.mark.parametrize("call", list(ADVANCE_FAULTS))
def test_failed_atomic_write_leaves_no_temp_file(tmp_path, call):
    record, _, _ = _semecs_record(K=4)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    target, name, real, n, on_disk_j = ADVANCE_FAULTS[call]
    with mock.patch.object(target, name, side_effect=fails_on_call(real, n)):
        with pytest.raises(IoFailure):
            advance_counter(path, 0)
    assert os.listdir(tmp_path) == ["signer.sk"]
    assert load_state(path).j == on_disk_j
    advance_counter(path, on_disk_j)
    assert load_state(path).j == on_disk_j + 1


@pytest.mark.parametrize("call", list(ADVANCE_FAULTS))
def test_signer_hook_fails_closed_on_each_advance_fault(tmp_path, signer, call):
    record, pk = signer.keygen(BIG_TOY_GROUP, 3, 41)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    target, name, real, n, on_disk_j = ADVANCE_FAULTS[call]
    advance = keystore.advance_counter

    def faulty_advance(*args, **kwargs):
        with mock.patch.object(target, name, side_effect=fails_on_call(real, n)):
            return advance(*args, **kwargs)

    handle = keystore.open_signer(path)
    before = handle._value()
    with mock.patch.object(keystore, "advance_counter", faulty_advance):
        with pytest.raises(StatePersistFailure, match="No space left on device") as info:
            signer.sign(handle, b"held back")
    assert isinstance(info.value.__cause__, IoFailure)
    assert handle._value() == before  # j, and ETA's chain value, kept
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".smks.")]
    assert load_state(path).j == on_disk_j

    released = []
    if on_disk_j:
        # index 0 is burned on disk; the stale handle must not release it
        with pytest.raises(StatePersistFailure) as info:
            signer.sign(handle, b"stale handle")
        assert isinstance(info.value.__cause__, StaleState)
        assert handle._value() == before
    else:
        released.append(signer.sign(handle, b"retried"))
        assert released[-1].j == 0
    released.append(signer.sign(keystore.open_signer(path), b"fresh handle"))
    assert released[-1].j == 1
    assert all(signer.verify(pk, release) for release in released)


def test_short_writes_that_complete_leave_a_loadable_record(tmp_path):
    record, _, _ = _semecs_record(K=4)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    with mock.patch.object(os, "write", side_effect=short_write):
        advance_counter(path, 0)
    assert os.listdir(tmp_path) == ["signer.sk"]
    assert load_state(path) == record._replace(j=1)


def test_open_signer_writes_through(tmp_path, big_toy, signer):
    record, pk = signer.keygen(big_toy, 4, 77)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    handle = keystore.open_signer(path)
    release = signer.sign(handle, b"write through")
    assert release.j == 0 and signer.verify(pk, release)
    assert load_state(path).j == 1
    # the file holds the whole advanced state; a second handle continues from it
    handle2 = keystore.open_signer(path)
    assert handle2 == handle
    assert signer.sign(handle2, b"next").j == 1


@pytest.mark.parametrize("swap", ["another key", "another K", "the other scheme"])
def test_a_release_refuses_a_swapped_state_file(tmp_path, big_toy, signer, swap):
    # another state at the same counter replaces the file under an open handle:
    # the compare-and-set on j passes, but the file is not the handle's record,
    # so nothing is released and the other state keeps its octets
    path = tmp_path / "signer.sk"
    save_state(path, signer.keygen(big_toy, 4, 77)[0])
    handle = keystore.open_signer(path)
    other_scheme = next(s for s in SIGNERS.values() if s is not signer)
    scheme, K, y = {"another key": (signer, 4, 78), "another K": (signer, 5, 77),
                    "the other scheme": (other_scheme, 4, 77)}[swap]
    other = scheme.keygen(big_toy, K, y)[0]
    save_state(path, other)
    before = handle._value()
    with pytest.raises(StatePersistFailure) as info:
        signer.sign(handle, b"after the swap")
    assert isinstance(info.value.__cause__, StaleState)
    assert path.read_bytes() == serialize_record(other) and handle._value() == before


def test_restarted_eta_signer_never_reuses_an_index(tmp_path, big_toy):
    signer = SIGNERS["eta"]
    record, pk = signer.keygen(big_toy, 4, 77)
    path = tmp_path / "eta.sk"
    save_state(path, record)
    first = signer.sign(keystore.open_signer(path), b"before the restart")
    assert load_state(path).j == 1
    second = signer.sign(keystore.open_signer(path), b"after the restart")
    assert (first.j, second.j) == (0, 1)
    assert load_state(path).j == 2
    assert signer.verify(pk, first) and signer.verify(pk, second)


def test_crash_between_advance_and_release_burns_the_index(tmp_path, big_toy, signer):
    record, _ = signer.keygen(big_toy, 8, 123)
    path = tmp_path / "signer.sk"
    save_state(path, record)

    class Crash(Exception):
        pass

    handle = keystore.open_signer(path)
    durable = handle.persist

    def crashing_persist(*args):
        durable(*args)
        raise Crash  # simulated power loss after the durable write

    handle.persist = crashing_persist
    with pytest.raises(StatePersistFailure) as info:
        signer.sign(handle, b"never released")
    assert isinstance(info.value.__cause__, Crash)
    assert load_state(path).j == 1  # index 0 burned

    assert signer.sign(keystore.open_signer(path), b"released after recovery").j == 1


_RACE_SIGNS = 100


def _race_signer(signer, path, tag, barrier, results):
    """Open-sign-persist ``_RACE_SIGNS`` times; report (j, e, s) of each release."""
    barrier.wait(timeout=60)
    released, lost = [], 0
    for i in range(_RACE_SIGNS):
        try:
            release = signer.sign(keystore.open_signer(path), b"%s message %d" % (tag, i))
        except StatePersistFailure:
            lost += 1  # the other process won this index
            continue
        released.append(release[:3])
    results.put((released, lost))


def test_two_processes_never_release_one_index(tmp_path, signer):
    y = 0x5EC5
    record, _ = signer.keygen(PRODUCTION_GROUP, 2 * _RACE_SIGNS + 8, y)
    path = tmp_path / "shared.sk"
    save_state(path, record)
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    results = ctx.Queue()
    workers = [
        ctx.Process(target=_race_signer,
                    args=(signer, os.fspath(path), tag, barrier, results))
        for tag in (b"a", b"b")
    ]
    for worker in workers:
        worker.start()
    try:
        outcomes = [results.get(timeout=120) for _ in workers]
    finally:
        for worker in workers:
            worker.join(timeout=30)
            if worker.is_alive():
                worker.terminate()
    assert [worker.exitcode for worker in workers] == [0, 0]

    released = [row for rows, _ in outcomes for row in rows]
    first_use = {}
    reused = []
    for j, e, s in released:
        if j in first_use:
            # a reused index hands the private key to anyone holding both envelopes
            recovered = extract_private_key(PRODUCTION_GROUP, first_use[j], (e, s))
            reused.append((j, recovered == y))
        first_use[j] = (e, s)
    assert not reused, f"indices released twice (index, key extracted): {reused}"
    assert load_state(path).j == len(released)
    assert len(released) + sum(lost for _, lost in outcomes) == 2 * _RACE_SIGNS


def test_threads_sharing_one_signer_handle_release_each_index_once(tmp_path, signer):
    record, pk = signer.keygen(BIG_TOY_GROUP, 40, 41)
    path = tmp_path / "signer.sk"
    save_state(path, record)
    handle = keystore.open_signer(path)
    releases = run_in_threads(lambda: signer.sign(handle, b"one shared handle"), calls=10)
    assert len({release.j for release in releases}) == len(releases) == 40
    assert load_state(path).j == 40
    assert keystore.open_signer(path) == handle
    assert all(signer.verify(pk, release) for release in releases)


# --- search index ------------------------------------------------------------

def test_build_search_index_orders_and_rejects_duplicates():
    index = build_search_index([b"\x03", b"\x01", b"\x02"])
    assert tuple(index.order) == (1, 2, 0)
    with pytest.raises(DuplicateBeta):
        build_search_index([b"\x01", b"\x01"])


def test_search_index_round_trips_through_serialization(big_toy, rng):
    _, pk = semecs_keygen(big_toy, 16, rng)
    pk2 = keystore.semecs_public_from_record(keystore.record_from_semecs_public(pk))
    assert pk2.search_index == pk.search_index
