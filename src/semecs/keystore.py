"""Bit-exact serialization and crash-safe state files for all three schemes.

One record format covers secret keys, signer states and public keys:

    magic "SMKS" | version | scheme_tag | group_id | role        (8 octets)
    params: len16(p) p | len16(q) q | len16(alpha) alpha
    j (8 octets BE) | K (8 octets BE)
    payload_len (4 octets BE) | payload
    integrity_tag = BLAKE2s-256 over everything preceding it     (32 octets)

All integers big-endian; files are position-independent single-record blobs.
A record is hashed and read in place, so its payload is the one copy made.
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
from typing import NamedTuple, Optional

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

class SignerStateRecord(NamedTuple):
    """One key/state file worth of data, scheme-agnostic; the repr hides the payload."""

    scheme_tag: int
    role: int
    params: GroupParams
    j: int
    K: int
    payload: bytes

    def __repr__(self) -> str:
        return (f"SignerStateRecord(scheme_tag={self.scheme_tag!r}, role={self.role!r}, "
                f"params={self.params!r}, j={self.j!r}, K={self.K!r}, "
                f"payload=<{len(self.payload)} octets>)")


def group_id_for(params: GroupParams) -> int:
    if not params.is_toy and params != PRODUCTION_GROUP:  # only a toy q is tested prime
        raise ValueError("a group order past the toy bound must be the production group's")
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
    header = (
        MAGIC
        + bytes([VERSION, record.scheme_tag, group_id_for(record.params), record.role])
        + _len16(record.params.p)
        + _len16(record.params.q)
        + _len16(record.params.alpha)
        + record.j.to_bytes(8, "big")
        + record.K.to_bytes(8, "big")
        + len(record.payload).to_bytes(4, "big")
    )
    tag = hashlib.blake2s(header)
    tag.update(record.payload)
    return b"".join((header, record.payload, tag.digest()))


def parse_record(data: bytes) -> SignerStateRecord:
    if len(data) < _TAG_LEN:
        raise CorruptState("record truncated")
    end, at = len(data) - _TAG_LEN, 0
    if hashlib.blake2s(memoryview(data)[:end]).digest() != data[end:]:
        raise CorruptState("integrity tag mismatch")

    def take(n: int) -> bytes:
        nonlocal at
        at += n
        if at > end:
            raise CorruptState("record truncated")
        return data[at - n : at]

    if take(4) != MAGIC:
        raise CorruptState("bad magic")
    version, scheme_tag, group_id, role = take(4)
    if version != VERSION:
        raise CorruptState(f"unsupported record version {version}")
    if scheme_tag not in SCHEME_NAMES:
        raise CorruptState(f"unknown scheme tag {scheme_tag:#x}")
    if role not in ROLE_NAMES:
        raise CorruptState(f"unknown role {role:#x}")
    # p, q and alpha: each a 2-octet length, then that many octets
    p, q, alpha = (
        int.from_bytes(take(int.from_bytes(take(2), "big")), "big") for _ in range(3)
    )
    # GroupParams checks alpha^q = 1 with a pow whose cost grows with p;
    # only toy groups and the 256-bit production group are ever written,
    # and the production group is the validated constant itself
    if p.bit_length() > PRODUCTION_GROUP.p.bit_length():
        raise CorruptState(f"group modulus of {p.bit_length()} bits is too wide")
    params = PRODUCTION_GROUP
    try:
        if (p, q, alpha) != (params.p, params.q, params.alpha):
            params = GroupParams(p=p, q=q, alpha=alpha)
        if group_id != group_id_for(params):
            raise CorruptState(f"group byte {group_id:#x} does not match the parameters")
    except ValueError as exc:
        raise CorruptState(f"invalid group parameters: {exc}") from exc
    j = int.from_bytes(take(8), "big")
    K = int.from_bytes(take(8), "big")
    payload = bytes(take(int.from_bytes(take(4), "big")))
    if at != end:
        raise CorruptState("trailing bytes after payload")
    if j > K:
        raise CorruptState(f"counter j={j} exceeds capacity K={K}")
    return SignerStateRecord(scheme_tag, role, params, j, K, payload)


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
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            # the temp file holds a copy of the record, secrets included
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
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


def advance_counter(path, expected_j: int, new_payload: Optional[bytes] = None,
                    expected: Optional[SignerStateRecord] = None) -> None:
    """Compare-and-set the on-disk counter from expected_j to expected_j + 1.

    ``new_payload`` atomically replaces the secret payload in the same write
    (open_signer's hook moves ETA's chain value; SEMECS's y is rewritten as
    it was).  A mismatched counter means another writer got there first; a
    record other than ``expected`` (open_signer passes its handle's) holds
    another key and is left as it is.  One directory lock covers the read,
    compare and write, so two processes cannot both advance from one j.
    """
    with _directory_lock(path):
        record = load_state(path)
        if record.j != expected_j:
            raise StaleState(
                f"on-disk counter is {record.j}, expected {expected_j} "
                "(concurrent writer or stale handle)"
            )
        if expected is not None and record != expected:
            raise StaleState("the state file holds another key (replaced under this handle)")
        if record.j + 1 > record.K:
            raise StaleState(f"counter cannot advance past capacity K={record.K}")
        payload = record.payload if new_payload is None else new_payload
        save_state(path, record._replace(j=record.j + 1, payload=payload))


# ---------------------------------------------------------------------------
# Scheme objects <-> records
# ---------------------------------------------------------------------------

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


def _scalars(record: SignerStateRecord, tag: int, role: int, n: int = 1) -> list[int]:
    """The n nonzero canonical scalars that a ``tag``/``role`` secret record holds."""
    params, L = record.params, record.params.scalar_len
    payload = _payload(record, tag, role, n * L)
    try:
        scalars = [decode_scalar(params, payload[at : at + L]) for at in range(0, n * L, L)]
    except MalformedEncoding as exc:
        raise CorruptState(f"bad secret payload: {exc}") from exc
    if 0 in scalars:
        raise CorruptState("bad secret payload: secret scalar is zero")
    return scalars


def _scalar_payload(params: GroupParams, *scalars: int) -> bytes:
    return b"".join(encode_scalar(params, scalar) for scalar in scalars)


def _public_from_record(record: SignerStateRecord, tag: int, key_type):
    """The ``key_type`` K-time public key, viewing the payload's tokens in place."""
    params, K = record.params, record.K
    payload = _payload(record, tag, ROLE_PUBLIC, key_type.payload_len(params, K))
    return key_type.viewing(params, _element(params, payload[: params.element_len]), payload, K)


def record_from_schnorr_key(kp: schnorr_mod.SchnorrKeyPair) -> SignerStateRecord:
    payload = _scalar_payload(kp.params, kp.y)
    return SignerStateRecord(SCHEME_SCHNORR, ROLE_SECRET, kp.params, 0, 0, payload)


def schnorr_key_from_record(record: SignerStateRecord) -> schnorr_mod.SchnorrKeyPair:
    (y,) = _scalars(record, SCHEME_SCHNORR, ROLE_SECRET)
    return schnorr_mod.SchnorrKeyPair.from_private(record.params, y)


def record_from_schnorr_public(
    params: GroupParams, big_y: int
) -> SignerStateRecord:
    payload = encode_element(params, big_y)
    return SignerStateRecord(SCHEME_SCHNORR, ROLE_PUBLIC, params, 0, 0, payload)


def schnorr_public_from_record(record: SignerStateRecord) -> int:
    params = record.params
    return _element(
        params, _payload(record, SCHEME_SCHNORR, ROLE_PUBLIC, params.element_len)
    )


def record_from_eta_state(state: eta_mod.EtaSigningState) -> SignerStateRecord:
    payload = _scalar_payload(state.params, state.y, state.r_cur)
    return SignerStateRecord(SCHEME_ETA, ROLE_STATE, state.params, state.j, state.K, payload)


def eta_state_from_record(record: SignerStateRecord) -> eta_mod.EtaSigningState:
    y, r_cur = _scalars(record, SCHEME_ETA, ROLE_STATE, 2)
    return eta_mod.EtaSigningState(record.params, y=y, r_cur=r_cur, j=record.j, K=record.K)


def record_from_eta_public(pk: eta_mod.EtaPublicKey) -> SignerStateRecord:
    return SignerStateRecord(SCHEME_ETA, ROLE_PUBLIC, pk.params, 0, pk.K, pk.payload)


def eta_public_from_record(record: SignerStateRecord) -> eta_mod.EtaPublicKey:
    return _public_from_record(record, SCHEME_ETA, eta_mod.EtaPublicKey)


def record_from_semecs_state(state: semecs_mod.SemecsSigningState) -> SignerStateRecord:
    payload = _scalar_payload(state.params, state.y)
    return SignerStateRecord(SCHEME_SEMECS, ROLE_STATE, state.params, state.j, state.K, payload)


def semecs_state_from_record(record: SignerStateRecord) -> semecs_mod.SemecsSigningState:
    (y,) = _scalars(record, SCHEME_SEMECS, ROLE_STATE)
    return semecs_mod.SemecsSigningState(record.params, y=y, j=record.j, K=record.K)


def record_from_semecs_public(pk: semecs_mod.SemecsPublicKey) -> SignerStateRecord:
    return SignerStateRecord(SCHEME_SEMECS, ROLE_PUBLIC, pk.params, 0, pk.K, pk.payload)


def semecs_public_from_record(record: SignerStateRecord) -> semecs_mod.SemecsPublicKey:
    """Rebuild the public key, viewing the payload's tokens in place.

    Its search index is built on first search.
    """
    return _public_from_record(record, SCHEME_SEMECS, semecs_mod.SemecsPublicKey)


def keygen_records(scheme: str, params: GroupParams, K: Optional[int] = None):
    """A fresh key's (secret, public) records; ``scheme`` is one of SCHEME_NAMES' values."""
    if scheme == "schnorr":
        kp = schnorr_mod.schnorr_keygen(params)
        return record_from_schnorr_key(kp), record_from_schnorr_public(params, kp.Y)
    if scheme == "eta":
        state, pk = eta_mod.eta_keygen(params, K)
        return record_from_eta_state(state), record_from_eta_public(pk)
    state, pk = semecs_mod.semecs_keygen(params, K)
    return record_from_semecs_state(state), record_from_semecs_public(pk)


def open_signer(path, record=None):
    """Load a SEMECS or ETA signer whose state writes through to ``path`` before each release.

    ``record`` is the file's record when the caller has already loaded it.
    """
    record = load_state(path) if record is None else record
    eta = record.scheme_tag == SCHEME_ETA
    state = (eta_state_from_record if eta else semecs_state_from_record)(record)
    write = record_from_eta_state if eta else record_from_semecs_state
    state.persist = lambda j, *moved: advance_counter(
        path, j, _scalar_payload(state.params, state.y, *moved), write(state))
    return state


open_semecs_signer = open_signer  # perfbench/workloads.py's sign_durable is its last caller
