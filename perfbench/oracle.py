"""Benchmark-side oracles: key records and envelopes built without the package.

The hash and group arithmetic come from ``tests/oracles.py`` (raw hashlib and
``pow``).  The record and envelope layouts are re-derived here from the
documented formats (``keystore`` and ``semecs`` module docstrings), so the
program under test never produces the inputs it is checked against.
"""

from __future__ import annotations

import hashlib

import oracles  # tests/oracles.py, put on sys.path by run.py

MAGIC = b"SMKS"
SCHEME_ETA, SCHEME_SEMECS = 0x02, 0x03
GROUP_PRODUCTION = 0x02
ROLE_PUBLIC, ROLE_STATE = 0x02, 0x03
TAG_LEN = 32
ENVELOPE_HEADER_LEN = 6  # version, 4-octet j, padded flag

# PRODUCTION_GROUP, restated so a changed constant in the package shows up.
P = 0x800000000000000000000000000000000000000000000000000000000002FF7F
Q = 0x4000000000000000000000000000000000000000000000000000000000017FBF
ALPHA = 4


def _len16(value: int) -> bytes:
    blob = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return len(blob).to_bytes(2, "big") + blob


def record_bytes(scheme: int, role: int, j: int, K: int, payload: bytes) -> bytes:
    """A complete key/state record in the production group, tag included."""
    body = (
        MAGIC
        + bytes([1, scheme, GROUP_PRODUCTION, role])
        + _len16(P) + _len16(Q) + _len16(ALPHA)
        + j.to_bytes(8, "big") + K.to_bytes(8, "big")
        + len(payload).to_bytes(4, "big") + payload
    )
    return body + hashlib.blake2s(body).digest()


def record_fields(data: bytes) -> tuple[int, int, bytes]:
    """(j, K, payload) of a production-group record; raises ValueError if the
    header or tag differs from what :func:`record_bytes` writes."""
    body, tag = data[:-TAG_LEN], data[-TAG_LEN:]
    if hashlib.blake2s(body).digest() != tag:
        raise ValueError("integrity tag mismatch")
    head = record_bytes(body[5], body[7], 0, 0, b"")[: -TAG_LEN - 20]
    if body[: len(head)] != head:
        raise ValueError("record header differs from the oracle's")
    off = len(head)
    j = int.from_bytes(body[off : off + 8], "big")
    K = int.from_bytes(body[off + 8 : off + 16], "big")
    n = int.from_bytes(body[off + 16 : off + 20], "big")
    payload = body[off + 20 :]
    if len(payload) != n:
        raise ValueError("payload length mismatch")
    return j, K, payload


def scalar(x: int) -> bytes:
    return x.to_bytes(32, "big")


def semecs_state_record(y: int, j: int, K: int) -> bytes:
    return record_bytes(SCHEME_SEMECS, ROLE_STATE, j, K, scalar(y))


def semecs_token(y: int, j: int) -> bytes:
    """gamma_j || beta_j for index j of the key with private scalar y."""
    seed = scalar(y) + j.to_bytes(8, "big")
    big_r = pow(ALPHA, oracles.oracle_fdh(Q, 0, seed), P)
    z = oracles.oracle_fdh(Q, 1, seed)
    pre = big_r.to_bytes(32, "big")
    gamma = (z ^ oracles.oracle_fdh(Q, 0, pre)).to_bytes(32, "big")
    return gamma + scalar(oracles.oracle_fdh(Q, 1, pre))


def semecs_public_record(y: int, K: int) -> bytes:
    """The public-key record for K indices, streamed into one buffer."""
    payload = bytearray(pow(ALPHA, y, P).to_bytes(32, "big"))
    for j in range(K):
        payload += semecs_token(y, j)
    return record_bytes(SCHEME_SEMECS, ROLE_PUBLIC, 0, K, bytes(payload))


class _Params:
    def __init__(self):
        self.p, self.q, self.alpha = P, Q, ALPHA


PARAMS = _Params()


def semecs_envelope(y: int, j: int, message: bytes) -> bytes:
    """Wire bytes of the SEMECS envelope signing ``message`` at index j."""
    t = oracles.semecs_sign_transcript(PARAMS, y, j, message)
    return (
        bytes([1]) + j.to_bytes(4, "big") + bytes([1 if t["padded"] else 0])
        + scalar(t["s"]) + t["c"] + t["m_tilde"]
    )
