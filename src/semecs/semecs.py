"""SEMECS: signer-efficient K-time signatures with message recovery.

The headline scheme.  Signing performs no group operation at all: the
ephemeral scalar r_j = H0(y || j) and the message mask z_j = H1(y || j) are
derived deterministically from the 32-octet private key, so a signature costs
a few hashes, one modular multiplication and one subtraction.  The public key
stores, per index j, the token pair

    gamma_j = z_j XOR H0(R_j)        (releases the mask after verification)
    beta_j  = H1(R_j)                (authenticates the recomputed commitment)

where R_j = alpha^{r_j}.  The signature is (s_j, c_j) with
c_j = first-scalar_len-octets-of-M XOR z_j, so c_j simultaneously randomizes
the Fiat-Shamir hash e_j = H0(c_j || M~) and carries message payload that the
verifier recovers via gamma_j.  Cryptographic transmission overhead beyond
the message is s_j alone (32 octets at the 128-bit level) plus the small
envelope header.

Verification is either indexed (j travels in the envelope) or index-free via
binary search over the sorted beta tokens.  Signing twice at one index is
fatal: :func:`extract_private_key` solves the two resulting linear equations
for y, which is why counter advancement must be persisted before a signature
is released (see :mod:`semecs.keystore`).
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (
    DuplicateBeta,
    EmptyMessage,
    KeyExhausted,
    MalformedEncoding,
    NotExtractable,
    StatePersistFailure,
)
from .fdh import fdh_pair
from .group import (
    GroupParams,
    double_exp,
    encode_element,
    encode_scalar,
    decode_scalar,
    exp,
    random_scalar,
    scalar_inv,
    scalar_sub_mul,
)

ENVELOPE_VERSION = 1
INDEX_LEN = 4  # wire width of j; K is capped accordingly
ENVELOPE_HEADER_LEN = 1 + INDEX_LEN + 1  # version, j, padded flag
MAX_K = (1 << (8 * INDEX_LEN)) - 1

#: Keygen draws a fresh y this many times before giving up on distinct betas.
INDEX_RETRY_BOUND = 8


# ---------------------------------------------------------------------------
# Message split / join
# ---------------------------------------------------------------------------

def split_message(message: bytes, scalar_len: int) -> tuple[bytes, bytes, bool]:
    """Split M into (M-bar, M-tilde, padded) with |M-bar| = scalar_len.

    Messages of at least scalar_len octets split verbatim; shorter messages
    are padded with 0x80 then zeros, signalled by the flag so recovery is
    injective.  The boundary case |M| = scalar_len is unpadded.
    """
    if not message:
        raise EmptyMessage("cannot sign an empty message")
    if len(message) >= scalar_len:
        return message[:scalar_len], message[scalar_len:], False
    m_bar = message + b"\x80" + b"\x00" * (scalar_len - len(message) - 1)
    return m_bar, b"", True


def join_message(m_bar: bytes, m_tilde: bytes, padded: bool) -> bytes:
    """Exact inverse of :func:`split_message`."""
    if not padded:
        return m_bar + m_tilde
    if m_tilde:
        raise MalformedEncoding("padded messages carry no remainder")
    trimmed = m_bar.rstrip(b"\x00")
    if not trimmed or trimmed[-1] != 0x80 or len(trimmed) == 1:
        raise MalformedEncoding("invalid message padding")
    return trimmed[:-1]


def _xor(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class SemecsSigningState:
    """The signer's entire secret: y plus the monotone counter j.

    Strictly single-writer.  When ``persist`` is set, sign() calls it with the
    index about to be consumed and refuses to release the signature unless it
    returns; wire it to the keystore's counter advancement for crash safety.
    """

    params: GroupParams
    y: int
    j: int
    K: int
    persist: Optional[Callable[[int], None]] = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class SearchIndex:
    """Permutation of token indices sorting the beta values ascending."""

    sorted_betas: tuple[bytes, ...]
    order: tuple[int, ...]  # order[k] = original index of sorted_betas[k]

    def lookup(self, beta: bytes) -> tuple[Optional[int], int]:
        """Binary-search a candidate beta.

        Returns (original index or None, number of beta comparisons made).
        Three-way probes, so at most floor(log2 K) + 1 <= ceil(log2 K) + 1
        comparisons.  Betas are public, but the equality leg still uses a
        constant-time compare out of hygiene.
        """
        lo, hi = 0, len(self.sorted_betas) - 1
        comparisons = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            probe = self.sorted_betas[mid]
            comparisons += 1
            if hmac.compare_digest(probe, beta):
                return self.order[mid], comparisons
            if probe < beta:
                lo = mid + 1
            else:
                hi = mid - 1
        return None, comparisons


def build_search_index(betas) -> SearchIndex:
    """Sort beta tokens for index-free verification.

    Raises :class:`DuplicateBeta` when two tokens collide -- binary search
    over the sorted values is then ambiguous and the key must be regenerated.
    """
    order = tuple(sorted(range(len(betas)), key=lambda i: betas[i]))
    sorted_betas = tuple(betas[i] for i in order)
    for a, b in zip(sorted_betas, sorted_betas[1:]):
        if a == b:
            raise DuplicateBeta("verification tokens collide; regenerate the key")
    return SearchIndex(sorted_betas=sorted_betas, order=order)


@dataclass(frozen=True)
class SemecsPublicKey:
    params: GroupParams
    Y: int
    gammas: tuple[bytes, ...]
    betas: tuple[bytes, ...]
    K: int
    search_index: Optional[SearchIndex]

    @classmethod
    def from_tokens(
        cls, params: GroupParams, big_y: int, gammas, betas, require_index: bool = True
    ) -> "SemecsPublicKey":
        """The public key over these tokens, with its search index built.

        With ``require_index=False`` a beta collision yields a key without a
        search index (indexed verification still works) instead of raising.
        """
        try:
            index = build_search_index(betas)
        except DuplicateBeta:
            if require_index:
                raise
            index = None
        return cls(params, big_y, tuple(gammas), tuple(betas), len(betas), index)


@dataclass(frozen=True)
class SignedEnvelope:
    """Wire form of a signature: (s, c) plus j, the padding flag and M-tilde."""

    j: int
    padded: bool
    s: int
    c: bytes
    m_tilde: bytes
    version: int = ENVELOPE_VERSION

    def to_bytes(self, params: GroupParams) -> bytes:
        return (
            bytes([self.version])
            + self.j.to_bytes(INDEX_LEN, "big")
            + bytes([1 if self.padded else 0])
            + encode_scalar(params, self.s)
            + self.c
            + self.m_tilde
        )

    @classmethod
    def from_bytes(cls, params: GroupParams, data: bytes) -> "SignedEnvelope":
        L = params.scalar_len
        if len(data) < ENVELOPE_HEADER_LEN + 2 * L:
            raise MalformedEncoding("envelope too short")
        if data[0] != ENVELOPE_VERSION:
            raise MalformedEncoding(f"unknown envelope version {data[0]}")
        flag = data[1 + INDEX_LEN]
        if flag not in (0, 1):
            raise MalformedEncoding("invalid padding flag")
        j = int.from_bytes(data[1 : 1 + INDEX_LEN], "big")
        off = ENVELOPE_HEADER_LEN
        s = decode_scalar(params, data[off : off + L])
        c = data[off + L : off + 2 * L]
        return cls(j=j, padded=bool(flag), s=s, c=c, m_tilde=data[off + 2 * L :])


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------

def _derivation_input(params: GroupParams, y: int, j: int) -> bytes:
    # H_i(y || j): canonical y encoding followed by 8 octets of j, so the
    # layout stays unambiguous far beyond any practical K
    return encode_scalar(params, y) + j.to_bytes(8, "big")


def semecs_keygen_from_secret(
    params: GroupParams, K: int, y: int, require_index: bool = True
) -> tuple[SemecsSigningState, SemecsPublicKey]:
    """Deterministic key generation from the private scalar y.

    Re-running with the same y reproduces a byte-identical public key.
    ``require_index=False`` is passed to :meth:`SemecsPublicKey.from_tokens`;
    only tiny toy groups, where scalar_len-octet tokens can collide by
    pigeonhole, need this escape hatch.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > MAX_K:
        raise ValueError(f"K exceeds the {INDEX_LEN}-octet envelope index")
    if not 1 <= y < params.q:
        raise ValueError("private key must lie in [1, q-1]")
    h0, h1 = fdh_pair(params.q)
    big_y = exp(params, params.alpha, y)
    gammas = []
    betas = []
    for j in range(K):
        seed = _derivation_input(params, y, j)
        r_j = h0.eval(seed)
        big_r = exp(params, params.alpha, r_j)
        z_j = h1.eval(seed)
        token_preimage = encode_element(params, big_r)
        gammas.append(_xor(encode_scalar(params, z_j), h0.eval_encoded(token_preimage)))
        betas.append(h1.eval_encoded(token_preimage))
    pk = SemecsPublicKey.from_tokens(params, big_y, gammas, betas, require_index)
    return SemecsSigningState(params=params, y=y, j=0, K=K), pk


def semecs_keygen(
    params: GroupParams, K: int, rng=None
) -> tuple[SemecsSigningState, SemecsPublicKey]:
    """K-time keypair with uniform y, retrying on beta collisions.

    Collisions have probability ~K^2 / 2^(8*scalar_len+1); they simply do not
    happen on the production group, but small toy groups can hit them and a
    fresh y usually clears it.
    """
    failure: DuplicateBeta | None = None
    for _ in range(INDEX_RETRY_BOUND):
        y = random_scalar(params, rng)
        try:
            return semecs_keygen_from_secret(params, K, y)
        except DuplicateBeta as exc:
            failure = exc
    raise DuplicateBeta(
        f"beta tokens still collide after {INDEX_RETRY_BOUND} fresh keys; "
        f"the group is too small for K={K} distinct tokens"
    ) from failure


# ---------------------------------------------------------------------------
# Signing
# ---------------------------------------------------------------------------

def semecs_sign(state: SemecsSigningState, message: bytes) -> SignedEnvelope:
    """Sign at the current index; no randomness and no group operation.

    c_j = M-bar XOR z_j, e_j = H0(c_j || M-tilde), s_j = (r_j - e_j*y) mod q.
    When a persist hook is installed the counter is durably advanced before
    the envelope is handed back; a crash in between burns the index, which is
    the safe failure mode (reuse would surrender the key).
    """
    if state.j >= state.K:
        raise KeyExhausted(f"all {state.K} indices consumed")
    params = state.params
    h0, h1 = fdh_pair(params.q)
    j = state.j
    m_bar, m_tilde, padded = split_message(message, params.scalar_len)
    seed = _derivation_input(params, state.y, j)
    r_j = h0.eval(seed)
    z_j = h1.eval(seed)
    c = _xor(m_bar, encode_scalar(params, z_j))
    e = h0.eval(c + m_tilde)
    s = scalar_sub_mul(params.q, r_j, e, state.y)
    envelope = SignedEnvelope(j=j, padded=padded, s=s, c=c, m_tilde=m_tilde)
    if state.persist is not None:
        try:
            state.persist(j)
        except Exception as exc:  # noqa: BLE001 - any hook failure holds the signature
            raise StatePersistFailure(
                f"could not durably advance the counter past index {j}"
            ) from exc
    state.j = j + 1
    return envelope


# ---------------------------------------------------------------------------
# Verification and recovery
# ---------------------------------------------------------------------------

def _recover(
    pk: SemecsPublicKey, j: int, env: SignedEnvelope, element_octets: bytes
) -> Optional[bytes]:
    h0, _ = fdh_pair(pk.params.q)
    m_bar = _xor(_xor(pk.gammas[j], h0.eval_encoded(element_octets)), env.c)
    try:
        return join_message(m_bar, env.m_tilde, env.padded)
    except MalformedEncoding:
        return None


def _checks_and_commitment(
    pk: SemecsPublicKey, env: SignedEnvelope
) -> Optional[bytes]:
    """Shared range checks plus recomputation of encode(R')."""
    params = pk.params
    if len(env.c) != params.scalar_len:
        return None
    if env.padded and env.m_tilde:
        return None
    if not 0 <= env.s < params.q:
        return None
    h0, _ = fdh_pair(params.q)
    e = h0.eval(env.c + env.m_tilde)
    big_r = double_exp(params, pk.Y, e, env.s)
    return encode_element(params, big_r)


def semecs_verify_indexed(
    pk: SemecsPublicKey, env: SignedEnvelope
) -> tuple[bool, Optional[bytes]]:
    """Verify against beta_j for the envelope's own index; recover M on success.

    All failures are (False, None) -- out-of-range j, malformed c, a beta
    mismatch, or unrecoverable padding.
    """
    if env.j < 0 or env.j >= pk.K:
        return False, None
    element_octets = _checks_and_commitment(pk, env)
    if element_octets is None:
        return False, None
    _, h1 = fdh_pair(pk.params.q)
    if not hmac.compare_digest(h1.eval_encoded(element_octets), pk.betas[env.j]):
        return False, None
    message = _recover(pk, env.j, env, element_octets)
    return (True, message) if message is not None else (False, None)


def semecs_verify_search(
    pk: SemecsPublicKey, env: SignedEnvelope
) -> tuple[bool, Optional[int], Optional[bytes]]:
    """Index-free verification: binary-search the candidate beta.

    Ignores ``env.j`` entirely.  The candidate digest H1(R') is computed once
    and located among the sorted betas in at most ceil(log2 K) + 1
    comparisons; a hit fixes the index (and thus the gamma used for
    recovery).  Returns (accepted, recovered index, recovered message).
    """
    if pk.search_index is None:
        raise ValueError("public key carries no search index")
    element_octets = _checks_and_commitment(pk, env)
    if element_octets is None:
        return False, None, None
    _, h1 = fdh_pair(pk.params.q)
    j, _comparisons = pk.search_index.lookup(h1.eval_encoded(element_octets))
    if j is None:
        return False, None, None
    message = _recover(pk, j, env, element_octets)
    return (True, j, message) if message is not None else (False, None, None)


# ---------------------------------------------------------------------------
# Index-reuse key extraction
# ---------------------------------------------------------------------------

def extract_private_key(
    params: GroupParams,
    transcript_a: tuple[int, int],
    transcript_b: tuple[int, int],
) -> int:
    """Solve two same-index transcripts (e, s), (e*, s*) for the private key.

    Both transcripts satisfying R_j = Y^e * alpha^s gives the linear system
    r_j = y*e + s and r_j = y*e* + s* mod q, hence
    y = (s* - s) * (e - e*)^-1 mod q.  This is the misuse detector showing
    why an index must never be reused; callers confirm the result against Y.
    """
    e_a, s_a = transcript_a
    e_b, s_b = transcript_b
    diff = (e_a - e_b) % params.q
    if diff == 0:
        raise NotExtractable("equal challenges leave the system underdetermined")
    return (s_b - s_a) * scalar_inv(params.q, diff) % params.q


def envelope_challenge(params: GroupParams, env: SignedEnvelope) -> int:
    """The Fiat-Shamir challenge e = H0(c || M-tilde) of an envelope."""
    h0, _ = fdh_pair(params.q)
    return h0.eval(env.c + env.m_tilde)

