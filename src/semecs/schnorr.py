"""Classical Schnorr signatures over an abstract prime-order group.

The ancestor of the multiple-time schemes in this package; kept as a
correctness cross-check and benchmark baseline.  The signature is the pair
(s, e) -- the challenge travels, not the commitment R -- framed on the wire
by :func:`semecs.group.join_envelope` like the other schemes' envelopes.
"""

from __future__ import annotations

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
    random_scalar,
    scalar_sub_mul,
    split_envelope,
)


class SchnorrKeyPair(NamedTuple):
    params: GroupParams
    y: int  # private: left out of the repr
    Y: int  # public, alpha^y mod p

    def __repr__(self) -> str:
        return f"SchnorrKeyPair(params={self.params!r}, Y={self.Y!r})"

    @classmethod
    def from_private(cls, params: GroupParams, y: int) -> "SchnorrKeyPair":
        """Deterministic constructor from the private scalar (test seam)."""
        if not 1 <= y < params.q:
            raise ValueError("private key must lie in [1, q-1]")
        return cls(params=params, y=y, Y=exp(params, y))


class SchnorrSignature(NamedTuple):
    s: int
    e: int


def schnorr_keygen(params: GroupParams, rng=None) -> SchnorrKeyPair:
    """Draw y uniformly from Z_q* and publish Y = alpha^y mod p."""
    return SchnorrKeyPair.from_private(params, random_scalar(params, rng))


def schnorr_sign(kp: SchnorrKeyPair, message: bytes, rng=None) -> SchnorrSignature:
    """Sign: R = alpha^r, e = H0(M || R), s = (r - e*y) mod q.

    The nonce r is drawn from ``rng`` (default: the operating-system CSPRNG);
    a deterministic source gives a reproducible transcript.
    """
    params = kp.params
    r = random_scalar(params, rng)
    h0, _ = fdh_pair(params.q)
    big_r = exp(params, r)
    e = h0.eval(message + encode_element(params, big_r))
    s = scalar_sub_mul(params.q, r, e, kp.y)
    return SchnorrSignature(s=s, e=e)


def schnorr_verify(
    params: GroupParams, big_y: int, message: bytes, sig: SchnorrSignature
) -> bool:
    """Accept iff e = H0(M || Y^e * alpha^s)."""
    if not (0 <= sig.s < params.q and 0 <= sig.e < params.q):
        return False
    h0, _ = fdh_pair(params.q)
    big_r = double_exp(params, big_y, sig.e, sig.s)
    return h0.eval(message + encode_element(params, big_r)) == sig.e


# --- wire format -----------------------------------------------------------

def encode_signed_message(params: GroupParams, sig: SchnorrSignature, message: bytes) -> bytes:
    """version || s || e || message."""
    return join_envelope(encode_scalar(params, sig.s), encode_scalar(params, sig.e), message)


def decode_signed_message(params: GroupParams, data: bytes) -> tuple[SchnorrSignature, bytes]:
    s, e, message = split_envelope(data, params.scalar_len, params.scalar_len)
    return SchnorrSignature(s=decode_scalar(params, s), e=decode_scalar(params, e)), message
