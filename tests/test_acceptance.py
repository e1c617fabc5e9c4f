"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest report.
"""

import contextlib
import random
import statistics
import time

import pytest

from semecs import keystore
from semecs.bench import AVR_ATMEGA2560, derive_profile, energy_compute, run_bench
from semecs.errors import KeyExhausted, StatePersistFailure
from semecs.eta import (
    EtaSignature,
    encode_signed_message as eta_encode,
    eta_keygen,
    eta_sign,
    eta_verify,
)
from semecs.group import PRODUCTION_GROUP, TOY_GROUP, count_group_ops, exp
from semecs.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from semecs.semecs import (
    ENVELOPE_HEADER_LEN,
    SignedEnvelope,
    envelope_challenge,
    extract_private_key,
    semecs_keygen_from_secret,
    semecs_sign,
    semecs_verify_indexed,
    semecs_verify_search,
)


@contextlib.contextmanager
def criterion(number: int, title: str):
    report = {}
    try:
        yield report
    except BaseException:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    detail = report.get("detail", "")
    print(f"[criterion {number}] PASS - {title}" + (f" ({detail})" if detail else ""))


def test_criterion_1_completeness_and_recovery_sweep():
    with criterion(1, "toy-group completeness sweep with exact recovery") as report:
        rnd = random.Random(101)
        L = TOY_GROUP.scalar_len
        lengths = sorted({1, max(1, L - 1), L, L + 1, 3 * L})
        started = time.perf_counter()
        checked = 0
        keypair_count = 0
        while checked < 200:
            keypair_count += 1
            y = rnd.randrange(1, TOY_GROUP.q)
            state, pk = semecs_keygen_from_secret(
                TOY_GROUP, 16, y=y
            )
            for j in range(16):
                n = lengths[checked % len(lengths)]
                message = bytes(rnd.randrange(256) for _ in range(n))
                env = semecs_sign(state, message)
                assert env.j == j
                ok, recovered = semecs_verify_indexed(pk, env)
                assert ok, f"index {j} rejected an honest envelope"
                assert recovered == message, f"index {j} recovered wrong bytes"
                checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"
        report["detail"] = (
            f"{checked} messages over {keypair_count} keypairs, "
            f"every index 0..15, {elapsed * 1e3:.0f} ms"
        )


def test_criterion_2_zero_group_operation_signing():
    with criterion(2, "1000 SEMECS signatures perform zero group operations") as report:
        state, _ = semecs_keygen_from_secret(
            TOY_GROUP, 1000, y=7
        )
        rnd = random.Random(202)
        with count_group_ops() as ops:
            for i in range(1000):
                semecs_sign(state, bytes(rnd.randrange(256) for _ in range(24)))
        assert ops.exp_count == 0
        assert ops.double_exp_count == 0
        assert ops.mul_count == 0
        report["detail"] = "exp=0 double_exp=0 mul=0 across 1000 sign calls"


def test_criterion_3_size_formulas_at_128_bit_level(tmp_path):
    with criterion(3, "serialized sizes: 32-octet secret, 32+header envelope, 8 MB key") as report:
        K = 1 << 17
        state, pk_small = semecs_keygen_from_secret(PRODUCTION_GROUP, 1, y=0xFEED)
        # secret: exactly scalar_len octets
        record = keystore.record_from_semecs_state(state)
        assert len(record.payload) == 32

        # envelope: cryptographic overhead is s plus the fixed 6-octet header
        message = bytes(range(200))
        env = semecs_sign(state, message)
        blob = env.to_bytes(PRODUCTION_GROUP)
        assert len(blob) - len(message) == 32 + ENVELOPE_HEADER_LEN

        # public key payload for K = 2^17: (2K+1) * 32 = 8,388,640 octets
        small_path = tmp_path / "small.pk"
        keystore.save_state(small_path, keystore.record_from_semecs_public(pk_small))
        header_size = small_path.stat().st_size - 3 * 32

        started = time.perf_counter()
        _, pk = semecs_keygen_from_secret(PRODUCTION_GROUP, K, y=0xFEED)
        keygen_s = time.perf_counter() - started
        assert keygen_s < 60.0, f"keygen took {keygen_s:.1f}s"
        pk_record = keystore.record_from_semecs_public(pk)
        assert len(pk_record.payload) == 8_388_640 == (2 * K + 1) * 32
        pk_path = tmp_path / "big.pk"
        keystore.save_state(pk_path, pk_record)
        assert pk_path.stat().st_size == header_size + 8_388_640
        report["detail"] = (
            f"payload 8,388,640 octets, file header {header_size} octets, "
            f"K=2^17 keygen {keygen_s:.2f}s"
        )


def test_criterion_4_energy_model_reproduction():
    with criterion(4, "energy model reproduces the reference AVR figures") as report:
        compute_mj, comm_uj = energy_compute(
            AVR_ATMEGA2560, cycles=195_776, bits_tx=256
        )
        assert compute_mj == pytest.approx(1.22, rel=0.01)
        assert comm_uj == pytest.approx(4.77, rel=0.01)

        avr = derive_profile("avr", volts=5.0, amps=0.020, clock_hz=16e6)
        assert avr.nj_per_cycle == pytest.approx(6.25, rel=0.001)
        radio = derive_profile("radio", volts=3.3, amps=0.0113, bitrate=2e6)
        assert radio.nj_per_bit == pytest.approx(18.65, rel=0.001)

        ecdsa_mj, _ = energy_compute(AVR_ATMEGA2560, cycles=48_188_992)
        ed_mj, _ = energy_compute(AVR_ATMEGA2560, cycles=23_211_611)
        assert ecdsa_mj == pytest.approx(301.18, rel=0.01)
        assert ed_mj == pytest.approx(145.07, rel=0.01)
        report["detail"] = (
            f"sign {compute_mj:.4f} mJ / tx {comm_uj:.4f} uJ; "
            f"{avr.nj_per_cycle:.4g} nJ/cycle, {radio.nj_per_bit:.4f} nJ/bit; "
            f"cross-checks {ecdsa_mj:.2f} / {ed_mj:.2f} mJ"
        )


def test_criterion_5_extraction_oracle_exhaustive():
    with criterion(5, "index reuse surrenders every toy private key") as report:
        started = time.perf_counter()
        for y in range(1, TOY_GROUP.q):
            state_a, pk = semecs_keygen_from_secret(
                TOY_GROUP, 1, y=y
            )
            env_a = semecs_sign(state_a, b"first transcript")
            e_a = envelope_challenge(TOY_GROUP, env_a)
            env_b = None
            for i in range(64):  # distinct challenge needed; q=11 collides often
                state_b, _ = semecs_keygen_from_secret(
                    TOY_GROUP, 1, y=y
                )
                candidate = semecs_sign(state_b, b"second transcript %d" % i)
                if envelope_challenge(TOY_GROUP, candidate) != e_a:
                    env_b = candidate
                    break
            assert env_b is not None
            e_b = envelope_challenge(TOY_GROUP, env_b)
            recovered = extract_private_key(TOY_GROUP, (e_a, env_a.s), (e_b, env_b.s))
            assert recovered == y
            assert exp(TOY_GROUP, recovered) == pk.Y
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"extraction sweep took {elapsed:.3f}s"
        report["detail"] = f"all y in [1,10] recovered, {elapsed * 1e3:.0f} ms"


def test_criterion_6_exhaustion_and_crash_safety(tmp_path, big_toy):
    with criterion(6, "key exhaustion fails closed; faults burn but never reuse") as report:
        state, _ = semecs_keygen_from_secret(big_toy, 3, y=5)
        for _ in range(3):
            semecs_sign(state, b"use up an index")
        with pytest.raises(KeyExhausted):
            semecs_sign(state, b"one too many")

        # fault injection: simulated crash between counter advance and release
        full_state, _ = semecs_keygen_from_secret(
            big_toy, 2200, y=99
        )
        path = tmp_path / "crashy.sk"
        keystore.save_state(path, keystore.record_from_semecs_state(full_state))
        rnd = random.Random(606)
        released = []
        faults = 0
        while faults < 1000:
            signer = keystore.open_signer(path)
            if rnd.random() < 0.5:
                durable = signer.persist

                def crash_after_advance(j, _durable=durable):
                    _durable(j)
                    raise OSError("injected crash between advance and release")

                signer.persist = crash_after_advance
                with pytest.raises(StatePersistFailure):
                    semecs_sign(signer, b"victim of the fault")
                faults += 1
            else:
                released.append(semecs_sign(signer, b"released envelope").j)
        assert len(released) == len(set(released)), "an index was reused"
        assert keystore.load_state(path).j == faults + len(released)
        report["detail"] = (
            f"{faults} faults burned, {len(released)} envelopes released, "
            "all indices distinct"
        )


def test_criterion_7_verification_path_agreement():
    with criterion(7, "indexed and search verification agree over 10^4 envelopes") as report:
        params = PRODUCTION_GROUP
        rnd = random.Random(707)
        K = 128
        state, pk = semecs_keygen_from_secret(params, K, y=rnd.randrange(1, params.q))
        honest = []
        for j in range(K):
            n = rnd.choice((1, 31, 32, 33, 96))
            message = bytes(rnd.randrange(256) for _ in range(n))
            honest.append((semecs_sign(state, message), message))

        budget = 8  # ceil(log2 128) + 1
        max_comparisons = 0
        agreements = 0
        accepted_honest = 0
        for trial in range(10_000):
            env, message = honest[rnd.randrange(K)]
            mangled = trial % 2 == 1
            if mangled:
                field = rnd.randrange(4)
                if field == 0:
                    env = SignedEnvelope(
                        env.j, env.padded, rnd.randrange(0, params.q), env.c, env.m_tilde
                    )
                elif field == 1:
                    c = bytearray(env.c)
                    c[rnd.randrange(len(c))] ^= 1 << rnd.randrange(8)
                    env = SignedEnvelope(env.j, env.padded, env.s, bytes(c), env.m_tilde)
                elif field == 2 and env.m_tilde:
                    t = bytearray(env.m_tilde)
                    t[rnd.randrange(len(t))] ^= 1 << rnd.randrange(8)
                    env = SignedEnvelope(env.j, env.padded, env.s, env.c, bytes(t))
                else:
                    env = SignedEnvelope(env.j, not env.padded, env.s, env.c, env.m_tilde)

            ok_i, rec_i = semecs_verify_indexed(pk, env)
            ok_s, j_s, rec_s = semecs_verify_search(pk, env)
            assert ok_i == ok_s and rec_i == rec_s
            agreements += 1
            if ok_s:
                assert j_s == env.j
            if not mangled:
                assert ok_i and rec_i == message
                accepted_honest += 1
            _, comparisons = pk.search_index.lookup(
                pk.betas[env.j] if ok_s else b"\x00" * params.scalar_len
            )
            max_comparisons = max(max_comparisons, comparisons)
        assert max_comparisons <= budget
        report["detail"] = (
            f"{agreements} agreements ({accepted_honest} honest accepts), "
            f"max {max_comparisons} beta comparisons (budget {budget})"
        )


def test_criterion_8_baseline_round_trips(big_toy):
    with criterion(8, "Schnorr and ETA baselines hold on both backends") as report:
        rnd = random.Random(808)
        cases = 1000
        for params in (big_toy, PRODUCTION_GROUP):
            kp = schnorr_keygen(params, rnd)
            for _ in range(cases):
                message = bytes(rnd.randrange(256) for _ in range(rnd.randrange(1, 48)))
                sig = schnorr_sign(kp, message, rnd)
                assert schnorr_verify(params, kp.Y, message, sig)

            state, pk = eta_keygen(params, cases, rnd)
            sigs = []
            for i in range(cases):
                message = bytes([i & 0xFF]) * (1 + i % 17)
                sig = eta_sign(state, message, rnd)
                sigs.append((message, sig))
                assert eta_verify(pk, message, sig)
            # replay with altered index
            message0, sig0 = sigs[0]
            assert not eta_verify(pk, message0, EtaSignature(sig0.s, sig0.x, 1))
            # layout: (s, x, j) framed as scalar, 16-octet x, 4-octet index
            blob = eta_encode(params, sig0, message0)
            assert len(blob) - len(message0) == 1 + 4 + params.scalar_len + 16
        report["detail"] = f"{cases} round trips per scheme per backend"


def test_criterion_9_sign_is_hash_bound_not_group_bound():
    with criterion(9, "production sign is >10x faster than verify (median)") as report:
        # alternate short sign and verify runs so that a change of host speed
        # during the test moves both sides of each round's ratio alike
        rounds = []
        for _ in range(20):
            sign = run_bench("semecs", "sign", PRODUCTION_GROUP, iterations=500)
            verify = run_bench("semecs", "verify", PRODUCTION_GROUP, iterations=500)
            rounds.append((sign.median_ns, verify.median_ns))
        sign_ns = statistics.median(s for s, _ in rounds)
        verify_ns = statistics.median(v for _, v in rounds)
        ratio = statistics.median(v / s for s, v in rounds)
        assert ratio > 10, f"sign {sign_ns:.0f} ns vs verify {verify_ns:.0f} ns"
        report["detail"] = (
            f"sign median {sign_ns / 1e3:.1f} us, "
            f"verify median {verify_ns / 1e3:.1f} us, "
            f"ratio {ratio:.1f}x (median of 20 paired rounds)"
        )
