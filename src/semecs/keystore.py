"""Bit-exact serialization and crash-safe state files for all three schemes.

One record format covers secret keys, signer states and public keys:

    magic "SMKS" | version | scheme_tag | group_id | role        (8 octets)
    params: len16(p) p | len16(q) q | len16(alpha) alpha
    j (8 octets BE) | K (8 octets BE)
    payload_len (4 octets BE) | payload
    integrity_tag = BLAKE2s-256 over everything preceding it     (32 octets)

All integers big-endian; files are position-independent single-record blobs.
Writes are atomic (temp file, fsync, rename), and the signing counter is
advanced on disk BEFORE a signature is released: a crash in between loses one
index, never reuses one -- index reuse surrenders the private key.  The
counter's compare-and-set holds an exclusive ``flock`` on the state file's
directory, so signers in separate processes cannot both win one index.

The integrity tag is tamper evidence, not authentication; at-rest encryption
is out of scope here.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import os
import tempfile
from dataclasses import dataclass, replace as _replace
from typing import Optional

from . import eta as eta_mod
from . import schnorr as schnorr_mod
from . import semecs as semecs_mod
from .errors import CorruptState, IoFailure, MalformedEncoding, StaleState
from .group import (
    PRODUCTION_GROUP,
    GroupParams,
    decode_element,
    decode_scalar,
    encode_element,
    encode_scalar,
)

MAGIC = b"SMKS"
VERSION = 1

SCHEME_SCHNORR = 0x01
SCHEME_ETA = 0x02
SCHEME_SEMECS = 0x03
SCHEME_NAMES = {SCHEME_SCHNORR: "schnorr", SCHEME_ETA: "eta", SCHEME_SEMECS: "semecs"}

GROUP_TOY = 0x01
GROUP_PRODUCTION = 0x02

ROLE_SECRET = 0x01
ROLE_PUBLIC = 0x02
ROLE_STATE = 0x03
ROLE_NAMES = {ROLE_SECRET: "secret", ROLE_PUBLIC: "public", ROLE_STATE: "state"}

_TAG_LEN = 32

@dataclass(frozen=True)
class SignerStateRecord:
    """One key/state file worth of data, scheme-agnostic."""

    scheme_tag: int
    group_id: int
    role: int
    params: GroupParams
    j: int
    K: int
    payload: bytes


def group_id_for(params: GroupParams) -> int:
    return GROUP_TOY if params.is_toy else GROUP_PRODUCTION


# ---------------------------------------------------------------------------
# Record <-> bytes
# ---------------------------------------------------------------------------

def _len16(value: int) -> bytes:
    blob = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return len(blob).to_bytes(2, "big") + blob


def serialize_record(record: SignerStateRecord) -> bytes:
    if record.scheme_tag not in SCHEME_NAMES or record.role not in ROLE_NAMES:
        raise ValueError("unknown scheme or role tag")
    if not 0 <= record.j <= record.K:
        raise ValueError("counter j must lie in [0, K]")
    body = (
        MAGIC
        + bytes([VERSION, record.scheme_tag, record.group_id, record.role])
        + _len16(record.params.p)
        + _len16(record.params.q)
        + _len16(record.params.alpha)
        + record.j.to_bytes(8, "big")
        + record.K.to_bytes(8, "big")
        + len(record.payload).to_bytes(4, "big")
        + record.payload
    )
    return body + hashlib.blake2s(body).digest()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptState("record truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def take_len16_int(self) -> int:
        n = int.from_bytes(self.take(2), "big")
        return int.from_bytes(self.take(n), "big")


def parse_record(data: bytes) -> SignerStateRecord:
    if len(data) < _TAG_LEN:
        raise CorruptState("record truncated")
    body, tag = data[:-_TAG_LEN], data[-_TAG_LEN:]
    if hashlib.blake2s(body).digest() != tag:
        raise CorruptState("integrity tag mismatch")
    rd = _Reader(body)
    if rd.take(4) != MAGIC:
        raise CorruptState("bad magic")
    version, scheme_tag, group_id, role = rd.take(4)
    if version != VERSION:
        raise CorruptState(f"unsupported record version {version}")
    if scheme_tag not in SCHEME_NAMES:
        raise CorruptState(f"unknown scheme tag {scheme_tag:#x}")
    if role not in ROLE_NAMES:
        raise CorruptState(f"unknown role {role:#x}")
    p = rd.take_len16_int()
    q = rd.take_len16_int()
    alpha = rd.take_len16_int()
    # GroupParams checks alpha^q = 1 with a pow whose cost grows with p;
    # only toy groups and the 256-bit production group are ever written,
    # and the production group is the validated constant itself
    if p.bit_length() > PRODUCTION_GROUP.p.bit_length():
        raise CorruptState(f"group modulus of {p.bit_length()} bits is too wide")
    params = PRODUCTION_GROUP
    if (p, q, alpha) != (params.p, params.q, params.alpha):
        try:
            params = GroupParams(p=p, q=q, alpha=alpha)
        except ValueError as exc:
            raise CorruptState(f"invalid group parameters: {exc}") from exc
    j = int.from_bytes(rd.take(8), "big")
    K = int.from_bytes(rd.take(8), "big")
    payload_len = int.from_bytes(rd.take(4), "big")
    payload = rd.take(payload_len)
    if rd.pos != len(body):
        raise CorruptState("trailing bytes after payload")
    if j > K:
        raise CorruptState(f"counter j={j} exceeds capacity K={K}")
    return SignerStateRecord(
        scheme_tag=scheme_tag,
        group_id=group_id,
        role=role,
        params=params,
        j=j,
        K=K,
        payload=payload,
    )


# ---------------------------------------------------------------------------
# Atomic file I/O
# ---------------------------------------------------------------------------

def atomic_write(path, data: bytes) -> None:
    """Write-new, fsync, rename.  A crash leaves either the old or new file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".smks.")
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        dirfd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
    except OSError as exc:
        raise IoFailure(f"atomic write to {path!r} failed: {exc}") from exc


def save_state(path, record: SignerStateRecord) -> None:
    atomic_write(path, serialize_record(record))


def load_state(path) -> SignerStateRecord:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {os.fspath(path)!r}: {exc}") from exc
    return parse_record(data)


@contextlib.contextmanager
def _directory_lock(path):
    """Hold an exclusive flock on the directory containing ``path``.

    The directory, not the file: ``atomic_write`` replaces the file's inode,
    so a lock on the file would not be seen by the next writer.  Closing the
    descriptor releases the lock on every exit path.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError as exc:
        raise IoFailure(f"cannot open {directory!r} to lock it: {exc}") from exc
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError as exc:
            raise IoFailure(f"cannot lock {directory!r}: {exc}") from exc
        yield
    finally:
        os.close(fd)


def advance_counter(path, expected_j: int, new_payload: Optional[bytes] = None) -> None:
    """Compare-and-set the on-disk counter from expected_j to expected_j + 1.

    ``new_payload`` atomically replaces the secret payload in the same write
    (the ETA chain value moves with the counter; SEMECS payloads never
    change).  A mismatched counter means another writer got there first.
    The read, compare and write run under one directory lock, so two
    processes cannot both advance from the same expected_j.
    """
    with _directory_lock(path):
        record = load_state(path)
        if record.j != expected_j:
            raise StaleState(
                f"on-disk counter is {record.j}, expected {expected_j} "
                "(concurrent writer or stale handle)"
            )
        if record.j + 1 > record.K:
            raise StaleState(f"counter cannot advance past capacity K={record.K}")
        updated = _replace(
            record,
            j=record.j + 1,
            payload=record.payload if new_payload is None else new_payload,
        )
        save_state(path, updated)


# ---------------------------------------------------------------------------
# Scheme objects <-> records
# ---------------------------------------------------------------------------

def _record(
    tag: int, role: int, params: GroupParams, payload: bytes, j: int = 0, K: int = 0
) -> SignerStateRecord:
    return SignerStateRecord(tag, group_id_for(params), role, params, j, K, payload)


def _payload(record: SignerStateRecord, tag: int, role: int, size: int) -> bytes:
    """The payload of a ``tag``/``role`` record, which must be ``size`` octets.

    ETA and SEMECS records must also have K in [1, MAX_K]: their indices
    travel in a 4-octet envelope field, and K = 0 leaves no index at all.
    """
    if record.scheme_tag != tag or record.role != role:
        raise CorruptState(
            f"expected {SCHEME_NAMES[tag]}/{ROLE_NAMES[role]} record, found "
            f"{SCHEME_NAMES.get(record.scheme_tag, '?')}/{ROLE_NAMES.get(record.role, '?')}"
        )
    if tag != SCHEME_SCHNORR and not 1 <= record.K <= semecs_mod.MAX_K:
        raise CorruptState(f"capacity K={record.K} outside [1, {semecs_mod.MAX_K}]")
    if len(record.payload) != size:
        raise CorruptState(
            f"{SCHEME_NAMES[tag]} {ROLE_NAMES[role]} payload must be {size} octets, "
            f"got {len(record.payload)}"
        )
    return record.payload


def _element(params: GroupParams, blob: bytes) -> int:
    try:
        return decode_element(params, blob)
    except MalformedEncoding as exc:
        raise CorruptState(f"bad public key payload: {exc}") from exc


def _secret(params: GroupParams, blob: bytes) -> int:
    try:
        value = decode_scalar(params, blob)
    except MalformedEncoding as exc:
        raise CorruptState(f"bad secret payload: {exc}") from exc
    if value == 0:
        raise CorruptState("bad secret payload: secret scalar is zero")
    return value


def record_from_schnorr_key(kp: schnorr_mod.SchnorrKeyPair) -> SignerStateRecord:
    return _record(SCHEME_SCHNORR, ROLE_SECRET, kp.params, encode_scalar(kp.params, kp.y))


def schnorr_key_from_record(record: SignerStateRecord) -> schnorr_mod.SchnorrKeyPair:
    params = record.params
    payload = _payload(record, SCHEME_SCHNORR, ROLE_SECRET, params.scalar_len)
    return schnorr_mod.SchnorrKeyPair.from_private(params, _secret(params, payload))


def record_from_schnorr_public(
    params: GroupParams, big_y: int
) -> SignerStateRecord:
    return _record(SCHEME_SCHNORR, ROLE_PUBLIC, params, encode_element(params, big_y))


def schnorr_public_from_record(record: SignerStateRecord) -> int:
    params = record.params
    return _element(
        params, _payload(record, SCHEME_SCHNORR, ROLE_PUBLIC, params.element_len)
    )


def record_from_eta_state(state: eta_mod.EtaSigningState) -> SignerStateRecord:
    payload = encode_scalar(state.params, state.y) + encode_scalar(
        state.params, state.r_cur
    )
    return _record(SCHEME_ETA, ROLE_STATE, state.params, payload, state.j, state.K)


def eta_state_from_record(record: SignerStateRecord) -> eta_mod.EtaSigningState:
    params = record.params
    L = params.scalar_len
    payload = _payload(record, SCHEME_ETA, ROLE_STATE, 2 * L)
    return eta_mod.EtaSigningState(
        params=params,
        y=_secret(params, payload[:L]),
        r_cur=_secret(params, payload[L:]),
        j=record.j,
        K=record.K,
    )


def record_from_eta_public(pk: eta_mod.EtaPublicKey) -> SignerStateRecord:
    payload = encode_element(pk.params, pk.Y) + b"".join(pk.tokens)
    return _record(SCHEME_ETA, ROLE_PUBLIC, pk.params, payload, K=pk.K)


def eta_public_from_record(record: SignerStateRecord) -> eta_mod.EtaPublicKey:
    params = record.params
    L, elen = params.scalar_len, params.element_len
    payload = _payload(record, SCHEME_ETA, ROLE_PUBLIC, elen + record.K * L)
    tokens = tuple(payload[off : off + L] for off in range(elen, len(payload), L))
    return eta_mod.EtaPublicKey(
        params=params, Y=_element(params, payload[:elen]), tokens=tokens, K=record.K
    )


def record_from_semecs_state(state: semecs_mod.SemecsSigningState) -> SignerStateRecord:
    payload = encode_scalar(state.params, state.y)
    return _record(SCHEME_SEMECS, ROLE_STATE, state.params, payload, state.j, state.K)


def semecs_state_from_record(
    record: SignerStateRecord, persist=None
) -> semecs_mod.SemecsSigningState:
    params = record.params
    payload = _payload(record, SCHEME_SEMECS, ROLE_STATE, params.scalar_len)
    return semecs_mod.SemecsSigningState(
        params=params, y=_secret(params, payload), j=record.j, K=record.K, persist=persist
    )


def record_from_semecs_public(pk: semecs_mod.SemecsPublicKey) -> SignerStateRecord:
    tokens = b"".join(g + b for g, b in zip(pk.gammas, pk.betas))
    payload = encode_element(pk.params, pk.Y) + tokens
    return _record(SCHEME_SEMECS, ROLE_PUBLIC, pk.params, payload, K=pk.K)


def semecs_public_from_record(
    record: SignerStateRecord, require_index: bool = False
) -> semecs_mod.SemecsPublicKey:
    """Rebuild the public key; the sorted index is reconstructed, not stored.

    Rebuilding is deterministic over identical beta values, so the index
    round-trips stably through serialization.
    """
    params = record.params
    L, elen = params.scalar_len, params.element_len
    payload = _payload(record, SCHEME_SEMECS, ROLE_PUBLIC, elen + 2 * record.K * L)
    offsets = range(elen, len(payload), 2 * L)
    return semecs_mod.SemecsPublicKey.from_tokens(
        params,
        _element(params, payload[:elen]),
        [payload[off : off + L] for off in offsets],
        [payload[off + L : off + 2 * L] for off in offsets],
        require_index=require_index,
    )


def open_semecs_signer(path) -> semecs_mod.SemecsSigningState:
    """Load a SEMECS signer whose counter writes through to its state file."""
    record = load_state(path)
    return semecs_state_from_record(
        record, persist=lambda j, _p=os.fspath(path): advance_counter(_p, j)
    )
