"""The two K-time signers behind one interface, for the durable-signing tests.

Each :class:`Signer` makes a state record, signs on a handle that
``keystore.open_signer`` opened from its file, verifies what it released and
writes a handle's state record.  A release carries the transcript (e, s) that
``extract_private_key`` solves, so a test can show what a reused index would
give away.
"""

from typing import Callable, NamedTuple

from semecs import keystore
from semecs.eta import eta_keygen_from_secrets, eta_sign, eta_verify
from semecs.fdh import fdh_pair
from semecs.semecs import (
    envelope_challenge,
    semecs_keygen_from_secret,
    semecs_sign,
    semecs_verify_indexed,
)


class Release(NamedTuple):
    """One released signature: its index, its transcript (e, s) and what verifies it."""

    j: int
    e: int
    s: int
    message: bytes
    signature: object  # a SignedEnvelope or an EtaSignature


class Signer(NamedTuple):
    keygen: Callable  # (params, K, y) -> (state record, public key)
    sign: Callable  # (signer, message) -> Release
    verify: Callable  # (public key, Release) -> bool
    record: Callable  # (signer) -> its state record


def _semecs_keygen(params, K, y):
    state, pk = semecs_keygen_from_secret(params, K, y=y)
    return keystore.record_from_semecs_state(state), pk


def _semecs_sign(signer, message):
    env = semecs_sign(signer, message)
    return Release(env.j, envelope_challenge(signer.params, env), env.s, message, env)


def _eta_keygen(params, K, y):
    state, pk = eta_keygen_from_secrets(params, K, y=y, r0=y + 1)
    return keystore.record_from_eta_state(state), pk


def _eta_sign(signer, message):
    sig = eta_sign(signer, message)
    h0, _ = fdh_pair(signer.params.q)
    e = h0.eval(message + sig.j.to_bytes(8, "big") + sig.x)  # e_j = H0(M || j || x_j)
    return Release(sig.j, e, sig.s, message, sig)


SIGNERS = {
    "eta": Signer(
        _eta_keygen, _eta_sign,
        lambda pk, r: eta_verify(pk, r.message, r.signature),
        keystore.record_from_eta_state,
    ),
    "semecs": Signer(
        _semecs_keygen, _semecs_sign,
        lambda pk, r: semecs_verify_indexed(pk, r.signature)[0],
        keystore.record_from_semecs_state,
    ),
}
