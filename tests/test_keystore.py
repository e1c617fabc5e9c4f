import hashlib
import multiprocessing
import os
import random
from dataclasses import replace

import pytest

from semecs import keystore
from semecs.errors import CorruptState, DuplicateBeta, StaleState, StatePersistFailure
from semecs.eta import eta_keygen
from semecs.group import PRODUCTION_GROUP, TOY_GROUP, GroupParams, generate_toy_group
from semecs.keystore import (
    SignerStateRecord,
    advance_counter,
    load_state,
    open_semecs_signer,
    parse_record,
    save_state,
    serialize_record,
)
from semecs.schnorr import SchnorrKeyPair, schnorr_keygen
from semecs.semecs import (
    build_search_index,
    envelope_challenge,
    extract_private_key,
    semecs_keygen,
    semecs_keygen_from_secret,
    semecs_sign,
)


def _semecs_record(params=None, K=4, y=5):
    state, pk = semecs_keygen_from_secret(
        params or generate_toy_group(1 << 19), K, y=y, require_index=False
    )
    return keystore.record_from_semecs_state(state), state, pk


# --- serialization ------------------------------------------------------------

def test_record_round_trip_fuzz():
    rnd = random.Random(99)
    groups = [TOY_GROUP, generate_toy_group(1 << 19), PRODUCTION_GROUP]
    for _ in range(10_000):
        params = groups[rnd.randrange(3)]
        K = rnd.randrange(0, 1 << 20)
        record = SignerStateRecord(
            scheme_tag=rnd.choice(
                (keystore.SCHEME_SCHNORR, keystore.SCHEME_ETA, keystore.SCHEME_SEMECS)
            ),
            group_id=rnd.choice((keystore.GROUP_TOY, keystore.GROUP_PRODUCTION)),
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


def test_modulus_wider_than_production_is_corrupt():
    # GroupParams accepts this group; the loader must refuse it before its
    # alpha^q check, whose pow on a wide modulus can stall for seconds
    p = (1 << 1024) + 1
    record, _, _ = _semecs_record()
    wide = replace(record, params=GroupParams(p=p, q=2, alpha=p - 1))
    with pytest.raises(CorruptState):
        parse_record(serialize_record(wide))


_SECRET_LOADERS = {
    keystore.SCHEME_SCHNORR: keystore.schnorr_key_from_record,
    keystore.SCHEME_ETA: keystore.eta_state_from_record,
    keystore.SCHEME_SEMECS: keystore.semecs_state_from_record,
}


def test_zero_secret_scalar_is_corrupt(zero_secret_record):
    with pytest.raises(CorruptState):
        _SECRET_LOADERS[zero_secret_record.scheme_tag](zero_secret_record)


def test_capacity_beyond_the_index_field_is_corrupt(large_k_record):
    record = parse_record(serialize_record(large_k_record))  # the record itself loads
    with pytest.raises(CorruptState, match="capacity"):
        _SECRET_LOADERS[record.scheme_tag](record)


def test_k_time_public_key_without_capacity_is_corrupt():
    kp = SchnorrKeyPair.from_private(PRODUCTION_GROUP, 9)
    schnorr_pk = keystore.record_from_schnorr_public(PRODUCTION_GROUP, kp.Y)
    # a Schnorr public payload is exactly an ETA public key with K = 0
    as_eta = replace(schnorr_pk, scheme_tag=keystore.SCHEME_ETA)
    with pytest.raises(CorruptState, match="capacity"):
        keystore.eta_public_from_record(as_eta)


def test_production_records_share_the_group_constant():
    kp = SchnorrKeyPair.from_private(PRODUCTION_GROUP, 9)
    blob = serialize_record(keystore.record_from_schnorr_key(kp))
    assert parse_record(blob).params is PRODUCTION_GROUP


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
    assert pk2 == pk  # includes the rebuilt search index


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


def test_open_semecs_signer_writes_through(tmp_path, big_toy):
    state, pk = semecs_keygen_from_secret(big_toy, 4, y=77)
    path = tmp_path / "signer.sk"
    save_state(path, keystore.record_from_semecs_state(state))
    signer = open_semecs_signer(path)
    env = semecs_sign(signer, b"write through")
    assert env.j == 0
    assert load_state(path).j == 1
    # a second handle opened from disk continues at the next index
    signer2 = open_semecs_signer(path)
    assert semecs_sign(signer2, b"next").j == 1


def test_crash_between_advance_and_release_burns_the_index(tmp_path, big_toy):
    state, _ = semecs_keygen_from_secret(big_toy, 8, y=123)
    path = tmp_path / "signer.sk"
    save_state(path, keystore.record_from_semecs_state(state))

    released = []

    class Crash(Exception):
        pass

    def crashing_persist(j):
        advance_counter(path, j)
        raise Crash  # simulated power loss after the durable write

    signer = open_semecs_signer(path)
    signer.persist = crashing_persist
    with pytest.raises(Exception):
        semecs_sign(signer, b"never released")
    assert load_state(path).j == 1  # index 0 burned

    recovered = open_semecs_signer(path)
    env = semecs_sign(recovered, b"released after recovery")
    released.append(env.j)
    assert released == [1]


_RACE_SIGNS = 100


def _race_signer(path, tag, barrier, results):
    """Open-sign-persist ``_RACE_SIGNS`` times; report (j, e, s) of each release."""
    barrier.wait(timeout=60)
    released, lost = [], 0
    for i in range(_RACE_SIGNS):
        signer = open_semecs_signer(path)
        try:
            env = semecs_sign(signer, b"%s message %d" % (tag, i))
        except StatePersistFailure:
            lost += 1  # the other process won this index
            continue
        released.append((env.j, envelope_challenge(signer.params, env), env.s))
    results.put((released, lost))


def test_two_processes_never_release_one_index(tmp_path):
    y = 0x5EC5
    state, _ = semecs_keygen_from_secret(PRODUCTION_GROUP, 2 * _RACE_SIGNS + 8, y=y)
    path = tmp_path / "shared.sk"
    save_state(path, keystore.record_from_semecs_state(state))
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    results = ctx.Queue()
    workers = [
        ctx.Process(target=_race_signer, args=(os.fspath(path), tag, barrier, results))
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


# --- search index ------------------------------------------------------------

def test_build_search_index_orders_and_rejects_duplicates():
    index = build_search_index([b"\x03", b"\x01", b"\x02"])
    assert index.order == (1, 2, 0)
    with pytest.raises(DuplicateBeta):
        build_search_index([b"\x01", b"\x01"])


def test_search_index_round_trips_through_serialization(big_toy, rng):
    _, pk = semecs_keygen(big_toy, 16, rng)
    pk2 = keystore.semecs_public_from_record(keystore.record_from_semecs_public(pk))
    assert pk2.search_index == pk.search_index
