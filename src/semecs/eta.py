"""ETA: hash-chained K-time signatures with per-signature randomness.

The preliminary multiple-time scheme.  Ephemeral scalars form a forward
hash chain r_{j+1} = H0(r_j); the public key commits to each chain point via
a token v_j = H1(R_j) with R_j = alpha^{r_j}.  Keygen hashes the chain, then
splits the independent powers R_j across cores as SEMECS keygen does (see
:mod:`semecs.semecs`).  Each signature carries a fresh 128-bit randomizer x_j
in place of the commitment, so the scheme needs an online RNG -- the
limitation its successor removes.  Two signatures at one index give up y, so
:func:`semecs.keystore.open_signer` stores j and r_{j+1} before each release.

Hash assignment (the source algorithm uses one untyped H): the chain step and
the message hash use H0, verification tokens use H1.  Golden vectors pin this.
"""

from __future__ import annotations

import hmac
import threading
from collections import namedtuple
from typing import NamedTuple

from .fdh import fdh_pair
from .group import (
    GroupParams,
    double_exp,
    encode_element,
    encode_scalar,
    decode_scalar,
    exp,
    join_envelope,
    random_octets,
    random_scalar,
    scalar_sub_mul,
    split_envelope,
)
from .semecs import INDEX_LEN, _KTimePublicKey, _SigningState, _check_keygen, _token_buffer

X_LEN = 16  # kappa = 128 bits of per-signature randomness


class EtaSigningState(_SigningState):
    """Mutable signer state: (y, current chain value, counter); ``persist(j, r_{j+1})``.

    sign() moves it under ``lock`` after any hook returns; open_signer's stores y and r_{j+1}.
    Dropped chain values are not recoverable from the fields kept here.
    """

    def __init__(self, params: GroupParams, y: int, r_cur: int, j: int, K: int) -> None:
        self.params, self.y, self.r_cur, self.j, self.K = params, y, r_cur, j, K
        self.lock = threading.Lock()


class EtaPublicKey(_KTimePublicKey, namedtuple("EtaPublicKey", "params Y tokens")):
    """Y and the tokens v_j = H1(R_j), one scalar_len digest per index."""


class EtaSignature(NamedTuple):
    s: int
    x: bytes
    j: int


def _index_octets(j: int) -> bytes:
    # j is hashed as 8 octets big-endian for unambiguous concatenation
    return j.to_bytes(8, "big")


def eta_keygen_from_secrets(
    params: GroupParams, K: int, y: int, r0: int
) -> tuple[EtaSigningState, EtaPublicKey]:
    """Deterministic key generation from (y, r0) -- the test seam."""
    _check_keygen(params, K, y, r0)
    h0, h1 = fdh_pair(params.q)
    big_y = exp(params, y)
    L, element_len = params.scalar_len, params.element_len
    chain = [r0]  # r_0 .. r_{K-1}, hashed here so that each range is independent
    for _ in range(K - 1):
        chain.append(h0.eval(chain[-1].to_bytes(L, "big")))
    tokens = _token_buffer(K, L, lambda lo, hi: b"".join([
        h1.eval_encoded(exp(params, r).to_bytes(element_len, "big")) for r in chain[lo:hi]
    ]))
    pk = EtaPublicKey.viewing(params, big_y, encode_element(params, big_y) + tokens, K)
    return EtaSigningState(params=params, y=y, r_cur=r0, j=0, K=K), pk


def eta_keygen(
    params: GroupParams, K: int, rng=None
) -> tuple[EtaSigningState, EtaPublicKey]:
    """K-time keypair with uniform y and chain seed r0."""
    return eta_keygen_from_secrets(
        params, K, random_scalar(params, rng), random_scalar(params, rng)
    )


def eta_sign(state: EtaSigningState, message: bytes, rng=None) -> EtaSignature:
    """Sign with the current chain value, then advance the chain.

    e_j = H0(M || j || x_j), s_j = (r_j - e_j*y) mod q with the randomizer x_j
    drawn from ``rng``.  Once the persist hook (if any) returns, the state moves
    to r_{j+1} = H0(r_j), and the old chain value is dropped before returning.
    """
    with state.lock:
        j = state._unspent_index()
        params = state.params
        x = random_octets(X_LEN, rng)
        h0, _ = fdh_pair(params.q)
        e = h0.eval(message + _index_octets(j) + x)
        s = scalar_sub_mul(params.q, state.r_cur, e, state.y)
        state._persist_then_advance(j, r_cur=h0.eval(encode_scalar(params, state.r_cur)))
    return EtaSignature(s=s, x=x, j=j)


def eta_verify(pk: EtaPublicKey, message: bytes, sig: EtaSignature) -> bool:
    """Recompute R'_j = Y^{H0(M||j||x)} * alpha^{s} and check v_j = H1(R'_j)."""
    if sig.j < 0 or sig.j >= pk.K:
        return False
    if len(sig.x) != X_LEN or not 0 <= sig.s < pk.params.q:
        return False
    params = pk.params
    h0, h1 = fdh_pair(params.q)
    e = h0.eval(message + _index_octets(sig.j) + sig.x)
    big_r = double_exp(params, pk.Y, e, sig.s)
    candidate = h1.eval_encoded(encode_element(params, big_r))
    return hmac.compare_digest(candidate, pk.tokens[sig.j])


# --- wire format -----------------------------------------------------------

def encode_signed_message(params: GroupParams, sig: EtaSignature, message: bytes) -> bytes:
    """version || j || s || x || message."""
    j = sig.j.to_bytes(INDEX_LEN, "big")
    return join_envelope(j, encode_scalar(params, sig.s), sig.x, message)


def decode_signed_message(params: GroupParams, data: bytes) -> tuple[EtaSignature, bytes]:
    j, s, x, message = split_envelope(data, INDEX_LEN, params.scalar_len, X_LEN)
    return EtaSignature(s=decode_scalar(params, s), x=x, j=int.from_bytes(j, "big")), message
