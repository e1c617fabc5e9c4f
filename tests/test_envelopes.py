"""Golden envelope octets: every scheme's encoder writes, and its decoder reads,
exactly the framing that ``tests/oracles.py`` concatenates from its transcripts."""

import pytest

from semecs import eta, schnorr
from semecs.eta import eta_keygen_from_secrets, eta_sign
from semecs.group import PRODUCTION_GROUP, TOY_GROUP
from semecs.schnorr import SchnorrKeyPair, schnorr_sign
from semecs.semecs import MAX_K, SemecsSigningState, SignedEnvelope, semecs_sign

from conftest import FixedSource
from oracles import eta_envelope, eta_keygen_transcript, schnorr_envelope, semecs_envelope

GROUPS = pytest.mark.parametrize("params", [TOY_GROUP, PRODUCTION_GROUP], ids=["toy", "prod"])
X = bytes(range(eta.X_LEN))
SECRETS = {TOY_GROUP: (3, 4), PRODUCTION_GROUP: (0x7E57AB1E, 0xC4A15EED)}  # (y, r or r0)


def test_toy_envelopes_are_the_literal_octets():
    # the golden transcripts of test_schnorr, test_eta and test_semecs, framed
    msg = b"schnorr-toy-message"
    assert schnorr_envelope(TOY_GROUP, 3, 4, msg) == b"\x01\x06\x03" + msg
    msg = b"eta-toy-message"
    assert eta_envelope(TOY_GROUP, 3, 4, 0, X, msg) == b"\x01\x00\x00\x00\x00\x0a" + X + msg
    msg = b"hello-semecs-msg"
    assert semecs_envelope(TOY_GROUP, 3, 0, msg) == b"\x01\x00\x00\x00\x00\x00\x03\x6c" + msg[1:]


@GROUPS
@pytest.mark.parametrize("message", [b"m", bytes(range(40))], ids=["short", "long"])
def test_schnorr_envelope_octets(params, message):
    y, r = SECRETS[params]
    sig = schnorr_sign(SchnorrKeyPair.from_private(params, y), message, FixedSource(r=r))
    golden = schnorr_envelope(params, y, r, message)
    assert schnorr.encode_signed_message(params, sig, message) == golden
    assert schnorr.decode_signed_message(params, golden) == (sig, message)


@GROUPS
@pytest.mark.parametrize("message", [b"m", bytes(range(40))], ids=["short", "long"])
def test_eta_envelope_octets(params, message):
    y, r0 = SECRETS[params]
    state, _ = eta_keygen_from_secrets(params, 2, y=y, r0=r0)
    chain = eta_keygen_transcript(params, y, r0, 2)["chain"]
    for j in (0, 1):  # the index field and the chain both move
        sig = eta_sign(state, message, FixedSource(x=X))
        golden = eta_envelope(params, y, chain[j], j, X, message)
        assert eta.encode_signed_message(params, sig, message) == golden
        assert eta.decode_signed_message(params, golden) == (sig, message)


@GROUPS
@pytest.mark.parametrize("j", [0, 0x01020304, MAX_K - 1])
@pytest.mark.parametrize("message", [b"m", bytes(range(40))], ids=["short", "long"])
def test_semecs_envelope_octets(params, j, message):
    y, _ = SECRETS[params]
    env = semecs_sign(SemecsSigningState(params, y, j, MAX_K), message)
    golden = semecs_envelope(params, y, j, message)
    assert env.to_bytes(params) == golden
    assert SignedEnvelope.from_bytes(params, golden) == env
