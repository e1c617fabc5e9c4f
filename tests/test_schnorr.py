import pytest

from semecs.errors import MalformedEncoding
from semecs.group import (
    PRODUCTION_GROUP,
    TOY_GROUP,
    double_exp,
    exp,
)
from semecs.schnorr import (
    SchnorrKeyPair,
    SchnorrSignature,
    decode_signed_message,
    encode_signed_message,
    schnorr_keygen,
    schnorr_sign,
    schnorr_verify,
)

from conftest import FixedSource
from oracles import brute_force_dlog, schnorr_transcript


def test_forced_private_keys():
    assert SchnorrKeyPair.from_private(TOY_GROUP, 3).Y == 8
    assert SchnorrKeyPair.from_private(TOY_GROUP, 1).Y == 2  # alpha itself
    with pytest.raises(ValueError):
        SchnorrKeyPair.from_private(TOY_GROUP, 0)
    with pytest.raises(ValueError):
        SchnorrKeyPair.from_private(TOY_GROUP, 11)


def test_keygen_consistent_with_dlog_oracle(rng):
    for _ in range(20):
        kp = schnorr_keygen(TOY_GROUP, rng)
        assert brute_force_dlog(TOY_GROUP, kp.Y) == kp.y


def test_forced_transcript_matches_oracle():
    # y=3, r=4: R = 2^4 = 16, e = H0(M || 0x10), s = (4 - 3e) mod 11
    msg = b"schnorr-toy-message"
    kp = SchnorrKeyPair.from_private(TOY_GROUP, 3)
    sig = schnorr_sign(kp, msg, FixedSource(r=4))
    expected = schnorr_transcript(TOY_GROUP, 3, 4, msg)
    assert sig.e == expected["e"] == 3
    assert sig.s == expected["s"] == 6
    assert schnorr_verify(TOY_GROUP, kp.Y, msg, sig)


def test_verifier_recomputes_the_signer_commitment(rng):
    # algebraic identity: R' = Y^e * alpha^s equals the signer's R
    for _ in range(50):
        kp = schnorr_keygen(TOY_GROUP, rng)
        r = rng.randrange(1, TOY_GROUP.q)
        sig = schnorr_sign(kp, b"identity", FixedSource(r=r))
        assert double_exp(TOY_GROUP, kp.Y, sig.e, sig.s) == exp(TOY_GROUP, r)


@pytest.mark.parametrize("params", [TOY_GROUP, PRODUCTION_GROUP], ids=["toy", "prod"])
def test_sign_verify_round_trip(params, rng):
    n = 200 if params is PRODUCTION_GROUP else 1000
    kp = schnorr_keygen(params, rng)
    for i in range(n):
        msg = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        sig = schnorr_sign(kp, msg, rng)
        assert schnorr_verify(params, kp.Y, msg, sig)


def test_rejects_flipped_message_bit(rng):
    kp = schnorr_keygen(PRODUCTION_GROUP, rng)
    msg = b"the message as signed"
    sig = schnorr_sign(kp, msg, rng)
    assert not schnorr_verify(PRODUCTION_GROUP, kp.Y, b"The message as signed", sig)


def test_rejects_wrong_public_key(rng):
    kp = schnorr_keygen(PRODUCTION_GROUP, rng)
    other = schnorr_keygen(PRODUCTION_GROUP, rng)
    sig = schnorr_sign(kp, b"msg", rng)
    assert not schnorr_verify(PRODUCTION_GROUP, other.Y, b"msg", sig)


def test_rejects_tweaked_s_by_majority_on_toy_group(rng):
    # false accepts happen at rate ~1/q on the toy group; demand a strong majority
    rejected = 0
    trials = 100
    for _ in range(trials):
        kp = schnorr_keygen(TOY_GROUP, rng)
        msg = bytes(rng.randrange(256) for _ in range(8))
        sig = schnorr_sign(kp, msg, rng)
        bad = SchnorrSignature(s=(sig.s + 1) % TOY_GROUP.q, e=sig.e)
        if not schnorr_verify(TOY_GROUP, kp.Y, msg, bad):
            rejected += 1
    assert rejected > trials * 0.6


def test_out_of_range_signature_fields_rejected(rng):
    kp = schnorr_keygen(TOY_GROUP, rng)
    sig = schnorr_sign(kp, b"m", rng)
    assert not schnorr_verify(TOY_GROUP, kp.Y, b"m", SchnorrSignature(s=11, e=sig.e))
    assert not schnorr_verify(TOY_GROUP, kp.Y, b"m", SchnorrSignature(s=sig.s, e=-1))


def test_signed_message_wire_round_trip(rng):
    kp = schnorr_keygen(PRODUCTION_GROUP, rng)
    msg = b"wire format round trip"
    sig = schnorr_sign(kp, msg, rng)
    blob = encode_signed_message(PRODUCTION_GROUP, sig, msg)
    assert len(blob) == 1 + 2 * 32 + len(msg)
    sig2, msg2 = decode_signed_message(PRODUCTION_GROUP, blob)
    assert sig2 == sig and msg2 == msg
    with pytest.raises(MalformedEncoding):
        decode_signed_message(PRODUCTION_GROUP, blob[:10])
    with pytest.raises(MalformedEncoding):
        decode_signed_message(PRODUCTION_GROUP, b"\x07" + blob[1:])
