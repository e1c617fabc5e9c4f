"""SEMECS: signer-efficient K-time signatures with message recovery.

The headline scheme.  Signing performs no group operation at all: the
ephemeral scalar r_j = H0(y || j) and the message mask z_j = H1(y || j) are
derived deterministically from the 32-octet private key, so a signature costs
a few hashes, one modular multiplication and one subtraction.  H0 and H1
absorb y's encoding once per signer state and keygen, so each index j hashes
only j's 8 octets, unambiguous far beyond any practical K.  The public key
stores, per index j, the token pair

    gamma_j = z_j XOR H0(R_j)        (releases the mask after verification)
    beta_j  = H1(R_j)                (authenticates the recomputed commitment)

where R_j = alpha^{r_j}.  The signature is (s_j, c_j) with
c_j = first-scalar_len-octets-of-M XOR z_j, so c_j simultaneously randomizes
the Fiat-Shamir hash e_j = H0(c_j || M~) and carries message payload that the
verifier recovers via gamma_j.  Cryptographic transmission overhead beyond
the message is s_j alone (32 octets in the 256-bit prime-field group) plus
the small envelope header.

Verification is either indexed (j travels in the envelope) or index-free via
binary search over the sorted beta tokens.  Signing twice at one index is
fatal: :func:`extract_private_key` solves the two resulting linear equations
for y, which is why counter advancement must be persisted before a signature
is released (see :mod:`semecs.keystore`).

Key generation spends one fixed-base exponentiation and four hashes on each
index (ETA: one exponentiation and two hashes, the chain step and H1), and
the indices are independent; both schemes fill their tokens through
:func:`_token_buffer`.  From K = 512 up it forks one child per further core
this process may run on, while each is worth 256 indices, and all of them
draw tickets of about 128 indices from one pipe until it is empty.  A child
only hashes, multiplies big integers, reads the pipe and writes its tokens
to their slices of one anonymous shared mapping, then leaves through
``os._exit``; it takes no lock that another thread could hold, touches no
other file and runs no handler of the embedding program, so a caller with
threads may run keygen.  Python 3.12+ then warns that the child may deadlock
(a DeprecationWarning, hidden by the default filters); it cannot, as it
waits on no lock, and keygen leaves the process-wide, thread-unsafe warning
filters alone.  Keygen builds the fixed-base alpha table before it forks, so
every child inherits it.  K = 1 never forks.
"""

from __future__ import annotations

import functools
import hmac
import os
import threading
from array import array
from collections import namedtuple
from collections.abc import Sequence
from typing import Callable, NamedTuple, Optional

from .errors import (
    DuplicateBeta,
    EmptyMessage,
    KeyExhausted,
    MalformedEncoding,
    NotExtractable,
    StatePersistFailure,
)
from .fdh import Fdh, fdh_pair
from .group import (
    GroupParams,
    _bump,
    double_exp,
    encode_element,
    encode_scalar,
    decode_scalar,
    exp,
    expect_alpha_powers,
    random_scalar,
    scalar_sub_mul,
)

ENVELOPE_VERSION = 1
INDEX_LEN = 4  # wire width of j; K is capped accordingly
ENVELOPE_HEADER_LEN = 1 + INDEX_LEN + 1  # version, j, padded flag
MAX_K = (1 << (8 * INDEX_LEN)) - 1

#: Keygen draws a fresh y this many times before giving up on distinct betas.
INDEX_RETRY_BOUND = 8

#: Fewest indices a keygen worker is given.  A two-way split at K = 512 on
#: PRODUCTION_GROUP was no slower than serial keygen for SEMECS (BENCH_18.json)
#: and for ETA, whose index costs one hash where SEMECS's costs four
#: (BENCH_23.json).  Below it, forking costs about as much as the child saves.
_MIN_INDICES_PER_WORKER = 256

_TICKET_INDICES = 128  # indices per ticket when several workers draw; one takes [0, K) whole


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


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Tokens(Sequence):
    """A read-only view of n tokens of ``width`` octets, one every ``stride`` octets.

    Public keys hold their tokens this way, so that a key loaded from a record
    views the record's payload instead of copying K tokens out of it.  Equal,
    and hashes equal, to the tuple of its tokens.
    """

    __slots__ = ("buffer", "start", "stride", "width", "n")

    def __init__(self, buffer: bytes, start: int, stride: int, width: int, n: int):
        self.buffer, self.start, self.stride = buffer, start, stride
        self.width, self.n = width, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(self.n)[i])
        off = self.start + range(self.n)[i] * self.stride
        return self.buffer[off : off + self.width]

    def __iter__(self):
        buf, width = self.buffer, self.width
        for off in range(self.start, self.start + self.n * self.stride, self.stride):
            yield buf[off : off + width]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


class _SigningState:
    """What both K-time signer states share.

    Threads may share one state: sign() holds ``lock`` from the capacity
    check to the counter update.  Separate processes are serialized by the
    keystore's directory ``flock``, and a stale handle fails with StaleState.
    Equal by every field but ``lock``, ``persist`` and derived hashes, never
    hashable, and its repr shows no secret.
    """

    def _value(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in ("lock", "persist", "_seeded")}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._value() == other._value()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.params!r}, j={self.j!r}, K={self.K!r})"

    def _unspent_index(self) -> int:
        """The current index j; KeyExhausted once all K are spent.  Call under ``lock``."""
        if self.j >= self.K:
            raise KeyExhausted(f"all {self.K} indices consumed")
        return self.j

    def _persist_then_advance(self, j: int, **moved) -> None:
        """Spend index j: call ``persist(j, *moved.values())``, then set j + 1 and ``moved``.

        Call under ``lock``.  A hook that raises becomes StatePersistFailure and
        changes nothing, so sign() releases no signature.
        """
        if self.persist is not None:
            try:
                self.persist(j, *moved.values())
            except Exception as exc:  # noqa: BLE001 - any hook failure holds the signature
                raise StatePersistFailure(
                    f"could not durably advance the counter past index {j}: {exc}"
                ) from exc
        vars(self).update(moved, j=j + 1)


class SemecsSigningState(_SigningState):
    """The signer's entire secret: y plus the monotone counter j; ``persist(j)``."""

    def __init__(self, params: GroupParams, y: int, j: int, K: int,
                 persist: Optional[Callable[[int], None]] = None) -> None:
        self.params, self.y, self.j, self.K, self.persist = params, y, j, K, persist
        self.lock, self._seeded = threading.Lock(), _seeded_pair(params, y)


class SearchIndex(NamedTuple):
    """The key's own beta tokens plus the permutation that sorts them ascending."""

    betas: Sequence[bytes]
    order: array  # of "I"; betas[order[k]] is the k-th smallest beta

    def lookup(self, beta: bytes) -> tuple[Optional[int], int]:
        """Binary-search a candidate beta.

        Returns (original index or None, number of beta comparisons made).
        Three-way probes, so at most floor(log2 K) + 1 <= ceil(log2 K) + 1
        comparisons.  Betas are public, but the equality leg still uses a
        constant-time compare out of hygiene.
        """
        lo, hi = 0, len(self.order) - 1
        comparisons = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            probe = self.betas[self.order[mid]]
            comparisons += 1
            if hmac.compare_digest(probe, beta):
                return self.order[mid], comparisons
            if probe < beta:
                lo = mid + 1
            else:
                hi = mid - 1
        return None, comparisons


def build_search_index(betas: Sequence[bytes]) -> SearchIndex:
    """Sort beta tokens for index-free verification.

    Raises :class:`DuplicateBeta` when two tokens collide -- binary search
    over the sorted values is then ambiguous and the key must be regenerated.
    """
    tokens = list(betas)  # slice each view token once, not once per use
    if len(set(tokens)) != len(tokens):
        raise DuplicateBeta("public key has colliding tokens; regenerate the key")
    return SearchIndex(betas, array("I", sorted(range(len(tokens)), key=tokens.__getitem__)))


class SemecsPublicKey(namedtuple("SemecsPublicKey", "params Y gammas betas")):
    # no ``__slots__ = ()``: cached_property keeps payload and search_index in the instance dict

    @classmethod
    def viewing(cls, params: GroupParams, big_y: int, payload: bytes, K: int) -> "SemecsPublicKey":
        """The K-index key whose tokens view ``payload``, laid out as :attr:`payload` is."""
        L, start = params.scalar_len, params.element_len
        pk = cls(params, big_y, Tokens(payload, start, 2 * L, L, K),
                 Tokens(payload, start + L, 2 * L, L, K))
        pk.payload = payload  # fills the cache below
        return pk

    @property
    def K(self) -> int:
        return len(self.betas)

    @functools.cached_property
    def payload(self) -> bytes:
        """Y's encoding, then gamma_j || beta_j for every j: the public record's payload."""
        tokens = b"".join(g + b for g, b in zip(self.gammas, self.betas))
        return encode_element(self.params, self.Y) + tokens

    @functools.cached_property
    def search_index(self) -> SearchIndex:
        """Built on the first search; raises DuplicateBeta when two betas collide."""
        return build_search_index(self.betas)


class SignedEnvelope(NamedTuple):
    """Wire form of a signature: (s, c) plus j, the padding flag and M-tilde."""

    j: int
    padded: bool
    s: int
    c: bytes
    m_tilde: bytes

    def to_bytes(self, params: GroupParams) -> bytes:
        return (
            bytes([ENVELOPE_VERSION])
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

def _seeded_pair(params: GroupParams, y: int) -> tuple[Fdh, Fdh]:
    """H0 and H1 with y's canonical encoding absorbed, so H_i(y || j) hashes only j."""
    y_octets = encode_scalar(params, y)
    return tuple(h.prefixed(y_octets) for h in fdh_pair(params.q))


def _token_range(params: GroupParams, y: int, lo: int, hi: int) -> bytes:
    """gamma_j || beta_j for every j in [lo, hi), concatenated."""
    (h0, h1), (h0_y, h1_y) = fdh_pair(params.q), _seeded_pair(params, y)
    L, element_len = params.scalar_len, params.element_len
    tokens = []
    for j in range(lo, hi):
        seed = j.to_bytes(8, "big")
        token_preimage = exp(params, h0_y.eval(seed)).to_bytes(element_len, "big")
        tokens.append((h1_y.eval(seed) ^ h0.eval(token_preimage)).to_bytes(L, "big"))
        tokens.append(h1.eval_encoded(token_preimage))
    return b"".join(tokens)


def _token_buffer(K: int, width: int, token_range: Callable[[int, int], bytes]) -> bytes:
    """K tokens of ``width`` octets from ``token_range``, split across the usable cores.

    ``token_range(lo, hi)`` returns tokens [lo, hi) concatenated, one alpha
    power each.  This process and a forked child per further usable core, each
    worth at least ``_MIN_INDICES_PER_WORKER`` indices, draw ticket numbers
    from one pipe, filled before the first fork, and write each ticket's
    tokens to its slice of one shared mapping until the pipe is empty, so a
    slowed worker draws fewer.  A slice of the wrong size raises, so a
    child's exit status 0 means its tickets are complete.  This process reaps
    every child and copies the mapping out, so the result is the serial one
    octet for octet.  If anything fails, the children still running are
    killed and all are reaped before the error propagates; a failed child
    raises ChildProcessError.
    """
    import mmap  # here, not at the top: importing semecs loads no mmap module

    workers = max(1, min(len(os.sched_getaffinity(0)), K // _MIN_INDICES_PER_WORKER))
    tickets = min(255, K // _TICKET_INDICES) if workers > 1 else 1  # numbered in one octet
    bounds = [K * t // tickets for t in range(tickets + 1)]
    pipe_r, pipe_w = os.pipe()
    with open(pipe_w, "wb") as feed:  # closed before any fork, so a drained pipe reads EOF
        feed.write(bytes(range(tickets)))

    def fill():  # fill each ticket drawn until the pipe is empty, yielding its size
        while drawn := draws.read(1):
            lo, hi = bounds[drawn[0]], bounds[drawn[0] + 1]
            shared[width * lo : width * hi] = token_range(lo, hi)
            yield hi - lo

    pids = []  # one child for each worker after the first; all write the MAP_SHARED pages
    with open(pipe_r, "rb", buffering=0) as draws, mmap.mmap(-1, width * K) as shared:
        try:
            for _ in range(workers - 1):
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        sum(fill())
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            own = sum(fill())
        except BaseException:
            import signal  # only on failure: importing semecs loads no signal module

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        if any(statuses):
            raise ChildProcessError(
                f"a keygen worker failed (exit codes {statuses}); no key was produced"
            )
        _bump("exp_count", K - own)  # the children's exps never reach this counter
        return shared[:]


def _check_keygen(params: GroupParams, K: int, *secrets: int) -> None:
    """Refuse K outside [1, MAX_K] or a secret outside [1, q-1], then expect K + 1 powers."""
    if not 1 <= K <= MAX_K:
        raise ValueError(f"K must lie in [1, {MAX_K}], the {INDEX_LEN}-octet envelope index")
    if not all(1 <= secret < params.q for secret in secrets):
        raise ValueError("secrets must lie in [1, q-1]")
    expect_alpha_powers(params, K + 1)  # before the fork: the children inherit the table


def semecs_keygen_from_secret(
    params: GroupParams, K: int, y: int
) -> tuple[SemecsSigningState, SemecsPublicKey]:
    """Deterministic key generation from the private scalar y.

    Re-running with the same y reproduces a byte-identical public key.  On
    tiny toy groups, where scalar_len-octet betas can collide by pigeonhole,
    the key's ``search_index`` raises DuplicateBeta; indexed verification
    still works.  Large K is split across forked children; see the module
    docstring.
    """
    _check_keygen(params, K, y)
    big_y, L = exp(params, y), params.scalar_len
    tokens = _token_buffer(K, 2 * L, lambda lo, hi: _token_range(params, y, lo, hi))
    pk = SemecsPublicKey.viewing(params, big_y, encode_element(params, big_y) + tokens, K)
    return SemecsSigningState(params=params, y=y, j=0, K=K), pk


def semecs_keygen(
    params: GroupParams, K: int, rng=None
) -> tuple[SemecsSigningState, SemecsPublicKey]:
    """K-time keypair with uniform y, retrying on beta collisions.

    Collisions have probability ~K^2 / 2^(8*scalar_len+1); they simply do not
    happen on the production group, but small toy groups can hit them and a
    fresh y usually clears it.
    """
    for _ in range(INDEX_RETRY_BOUND):
        state, pk = semecs_keygen_from_secret(params, K, random_scalar(params, rng))
        if len(set(pk.betas)) == K:
            return state, pk
    raise DuplicateBeta(
        f"beta tokens still collide after {INDEX_RETRY_BOUND} fresh keys; "
        f"the group is too small for K={K} distinct tokens"
    )


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
    with state.lock:
        j = state._unspent_index()
        params, L = state.params, state.params.scalar_len
        (h0_y, h1_y), seed = state._seeded, j.to_bytes(8, "big")
        m_bar, m_tilde, padded = split_message(message, L)
        r_j = h0_y.eval(seed)
        z_j = h1_y.eval(seed)
        c = (int.from_bytes(m_bar, "big") ^ z_j).to_bytes(L, "big")
        e = fdh_pair(params.q)[0].eval(c + m_tilde)
        s = scalar_sub_mul(params.q, r_j, e, state.y)
        state._persist_then_advance(j)
    return SignedEnvelope(j=j, padded=padded, s=s, c=c, m_tilde=m_tilde)


# ---------------------------------------------------------------------------
# Verification and recovery
# ---------------------------------------------------------------------------

def _verify(
    pk: SemecsPublicKey, env: SignedEnvelope, j: Optional[int]
) -> tuple[Optional[int], Optional[bytes]]:
    """Verify at index j, or find j by search when j is None: (j, M) or (None, None).

    Range checks on c, the padding flag and s precede every group operation.
    """
    params = pk.params
    if len(env.c) != params.scalar_len or (env.padded and env.m_tilde):
        return None, None
    if not 0 <= env.s < params.q:
        return None, None
    e = envelope_challenge(params, env)
    element_octets = encode_element(params, double_exp(params, pk.Y, e, env.s))
    h0, h1 = fdh_pair(params.q)
    candidate = h1.eval_encoded(element_octets)
    if j is None:
        j, _comparisons = pk.search_index.lookup(candidate)
        if j is None:
            return None, None
    elif not hmac.compare_digest(candidate, pk.betas[j]):
        return None, None
    gamma, c = int.from_bytes(pk.gammas[j], "big"), int.from_bytes(env.c, "big")
    m_bar = (gamma ^ h0.eval(element_octets) ^ c).to_bytes(params.scalar_len, "big")
    try:
        return j, join_message(m_bar, env.m_tilde, env.padded)
    except MalformedEncoding:
        return None, None


def semecs_verify_indexed(
    pk: SemecsPublicKey, env: SignedEnvelope
) -> tuple[bool, Optional[bytes]]:
    """Verify against beta_j for the envelope's own index; recover M on success.

    All failures are (False, None) -- out-of-range j, malformed c, a beta
    mismatch, or unrecoverable padding.
    """
    if env.j < 0 or env.j >= pk.K:
        return False, None
    j, message = _verify(pk, env, env.j)
    return j is not None, message


def semecs_verify_search(
    pk: SemecsPublicKey, env: SignedEnvelope
) -> tuple[bool, Optional[int], Optional[bytes]]:
    """Index-free verification: binary-search the candidate beta.

    Ignores ``env.j`` entirely.  The candidate digest H1(R') is computed once
    and located among the sorted betas in at most ceil(log2 K) + 1
    comparisons; a hit fixes the index (and thus the gamma used for
    recovery).  Returns (accepted, recovered index, recovered message).
    Raises DuplicateBeta, whatever the envelope, when the key's betas collide.
    """
    pk.search_index  # a colliding key raises here, before any envelope check
    j, message = _verify(pk, env, None)
    return j is not None, j, message


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
    return (s_b - s_a) * pow(diff, -1, params.q) % params.q


def envelope_challenge(params: GroupParams, env: SignedEnvelope) -> int:
    """The Fiat-Shamir challenge e = H0(c || M-tilde) of an envelope."""
    h0, _ = fdh_pair(params.q)
    return h0.eval(env.c + env.m_tilde)

