"""Prime-order subgroup arithmetic over Z_p*.

The schemes in this package are group-generic: everything is phrased over a
cyclic group G of prime order q with generator alpha, realized here as the
order-q subgroup of Z_p*.  Two interchangeable backends are provided:

* ``TOY_GROUP`` (p=23, q=11, alpha=2), hand-checkable, and ``BIG_TOY_GROUP``
  (p=1048703, q=524351, alpha=4), the CLI's ``--group toy`` -- small enough
  for exhaustive test oracles.  Never for real security.
* ``PRODUCTION_GROUP`` -- a fixed 256-bit prime-field group.  Scalars and
  elements encode to 32 octets, the sizes of a 256-bit elliptic curve, but
  its security is far below 128 bits: NIST SP 800-57 Part 1 Rev. 5, Table 2,
  asks for a 3072-bit p at that level.

Powers of the fixed generator alpha (key-generation commitments and Schnorr
nonces) are read from a fixed-base table built once per group
(Brickell-Gordon-McCurley-Wilson windowing, HAC 14.6.3): row i holds
alpha^(d * 2^(8i)) for every octet d, so alpha^k is one multiply per octet
of k.  A process builds it after its first ``_POW_PHASE`` powers (builtin
``pow``), or once :func:`expect_alpha_powers` announces enough of them, so a
one-shot sign never builds it.  The verifier's Y^e * alpha^s never reads it:
it walks the halves of both exponents at once through one 256-entry table per
key (Lim-Lee exponent splitting walked as Straus/Shamir simultaneous
exponentiation, HAC 14.88).

Scalar arithmetic on the production path avoids value-dependent branching at
the Python level, and every table power does the same number of multiplies
whatever the exponent.  The alpha table is still indexed by secret digits,
which is no worse than the sliding window inside CPython's ``pow`` but no
better either; CPython big integers are not constant-time, so this is
hygiene, not a hardened side-channel guarantee.

The canonical encodings here include every scheme's envelope framing, a
version octet then fixed-width fields then the rest (:func:`join_envelope`,
:func:`split_envelope`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import secrets
from collections import namedtuple
from math import isqrt

from .errors import MalformedEncoding, RngFailure

#: Largest subgroup order of a toy group, small enough for exhaustive search.
DLOG_ORACLE_BOUND = 1 << 24

#: Digit width of the fixed-base table for alpha, one octet: 32 rows of 256
#: entries (about 0.5 MiB, about 6 ms to build) for the 255-bit group.
_COMB_BITS = 8

#: Powers of alpha computed by ``pow`` before the table is built, about as
#: many as its build costs (BENCH_22.json); a race on the count is harmless.
_POW_PHASE = _pow_countdown = 64

#: An octet's four 2-bit digits, one per octet of the value, the highest first.
_DIGITS = tuple(sum((x >> 2 * k & 3) << 8 * k for k in range(4)) for x in range(256))


class GroupParams(namedtuple("GroupParams", "p q alpha")):
    """Parameters (p, q, alpha) of the order-q subgroup of Z_p*.

    Immutable and freely shareable; a tuple, equal and hashing equal by value.
    Validated on construction, ``_replace`` included: q must divide p - 1,
    alpha^q must be 1 mod p, and a q up to DLOG_ORACLE_BOUND must be prime
    (trial division); records load no larger q but PRODUCTION_GROUP's.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, alpha: int) -> "GroupParams":
        if q < 2 or p < 3:
            raise ValueError("group parameters out of range")
        if (p - 1) % q != 0:
            raise ValueError("q does not divide p - 1")
        if q <= DLOG_ORACLE_BOUND and any(q % d == 0 for d in range(2, isqrt(q) + 1)):
            raise ValueError("q is composite")
        if not 1 < alpha < p:
            raise ValueError("generator out of range")
        if pow(alpha, q, p) != 1:
            raise ValueError("alpha does not have order q modulo p")
        return super().__new__(cls, p, q, alpha)

    @classmethod
    def _make(cls, iterable) -> "GroupParams":
        return cls(*iterable)

    @property
    def scalar_len(self) -> int:
        """Canonical byte length of a Z_q scalar encoding."""
        return (self.q.bit_length() + 7) // 8

    @property
    def element_len(self) -> int:
        """Canonical byte length of a group-element encoding."""
        return (self.p.bit_length() + 7) // 8

    @property
    def is_toy(self) -> bool:
        """True when the group is small enough for exhaustive test oracles."""
        return self.q <= DLOG_ORACLE_BOUND


#: Canonical hand-checkable test group.
TOY_GROUP = GroupParams(p=23, q=11, alpha=2)

#: The CLI's toy group: the smallest safe-prime group with q >= 2^19, alpha = 4.
#: Big enough that beta tokens do not collide at practical K, small enough for
#: the exhaustive test oracles.
BIG_TOY_GROUP = GroupParams(p=1048703, q=524351, alpha=4)

#: 256-bit safe-prime group (p = 2q + 1, q a 255-bit prime, alpha = 2^2 a
#: quadratic residue, hence a generator of the order-q subgroup).  Found by a
#: deterministic sieve: smallest prime q >= 2^254 with 2q + 1 prime.
PRODUCTION_GROUP = GroupParams(
    p=0x800000000000000000000000000000000000000000000000000000000002FF7F,
    q=0x4000000000000000000000000000000000000000000000000000000000017FBF,
    alpha=4,
)


# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------

class OpCounter:
    """Accumulator for group operations performed inside a counting context.

    Counts are exact: every call to exp/double_exp/group_mul made while the
    counter is installed bumps the corresponding field.  A counter must not be
    shared across concurrent callers without external coordination.
    """

    def __init__(self) -> None:
        self.exp_count = self.double_exp_count = self.mul_count = 0

    def total(self) -> int:
        return self.exp_count + self.double_exp_count + self.mul_count


_active_counter: contextvars.ContextVar[OpCounter | None] = contextvars.ContextVar(
    "semecs_group_op_counter", default=None
)


@contextlib.contextmanager
def count_group_ops():
    """Install a fresh :class:`OpCounter` for the dynamic extent of a ``with`` block.

    >>> with count_group_ops() as ops:
    ...     exp(TOY_GROUP, 4)
    16
    >>> ops.exp_count
    1
    """
    counter = OpCounter()
    token = _active_counter.set(counter)
    try:
        yield counter
    finally:
        _active_counter.reset(token)


def _bump(field: str, n: int = 1) -> None:
    counter = _active_counter.get()
    if counter is not None:
        setattr(counter, field, getattr(counter, field) + n)


# ---------------------------------------------------------------------------
# Group and scalar operations
# ---------------------------------------------------------------------------

def exp(params: GroupParams, k: int) -> int:
    """alpha^k mod p: builtin ``pow`` for a process's first powers, then the table.

    The table path reduces k mod q (alpha has order q) and does one multiply
    per row whatever the digits, so every exponent agrees with ``pow``.
    """
    global _pow_countdown
    _bump("exp_count")
    if _pow_countdown > 0:
        _pow_countdown -= 1
        return pow(params.alpha, k, params.p)
    p = params.p
    rows = _alpha_table(params)
    acc = 1
    for row, digit in zip(rows, (k % params.q).to_bytes(len(rows), "little")):
        acc = acc * row[digit] % p
    return acc


def double_exp(params: GroupParams, big_y: int, e: int, s: int) -> int:
    """Double exponentiation Y^e * alpha^s mod p, the verifier's one group operation.

    With H = ceil(bitlen(q) / 2), e = e_lo + 2^H * e_hi and s mod q =
    s_lo + 2^H * s_hi are walked together through :func:`_y_table`, two bits
    of each half per step of two squarings and one multiply (64 steps when
    H = 128).  e is not reduced mod q, so Y may lie outside the subgroup;
    e < 2^(2H).

    >>> double_exp(TOY_GROUP, 8, 2, 9)  # 8^2 * 2^9 = 18 * 6 mod 23
    16
    """
    _bump("double_exp_count")
    p, half = params.p, -(-params.q.bit_length() // 2)
    table, mask, s, acc = _y_table(params, big_y), (1 << half) - 1, s % params.q, 1
    halves = (x.to_bytes(-(-half // 8), "big") for x in (e & mask, e >> half, s & mask, s >> half))
    for a, b, c, d in zip(*halves):  # one octet of each half: four steps
        digits = _DIGITS[a] | _DIGITS[b] << 2 | _DIGITS[c] << 4 | _DIGITS[d] << 6
        for index in digits.to_bytes(4, "big"):
            acc = pow(acc, 4, p) * table[index] % p
    return acc


@functools.lru_cache(maxsize=64)
def _y_table(params: GroupParams, big_y: int) -> tuple[int, ...]:
    """Y^a * Z^b * alpha^c * A^d mod p at index a + 4b + 16c + 64d (each < 4).

    Z = Y^(2^H), A = alpha^(2^H); 256 integers (17 KB), cached per key by value.
    """
    p, h, rows = params.p, 1 << -(-params.q.bit_length() // 2), ([1], [1])
    for row, base in zip(rows, (big_y, params.alpha)):  # index a + 4b: base^a * (base^(2^H))^b
        z = pow(base, h, p)
        for i in range(1, 16):
            row.append((row[i - 1] * base if i % 4 else row[i - 4] * z) % p)
    return tuple(y * a % p for a in rows[1] for y in rows[0])


def expect_alpha_powers(params: GroupParams, n: int) -> None:
    """Build the alpha table now if n coming powers would build it anyway."""
    global _pow_countdown
    if n >= _pow_countdown:
        _pow_countdown = 0
        _alpha_table(params)


@functools.lru_cache(maxsize=8)
def _alpha_table(params: GroupParams) -> tuple[tuple[int, ...], ...]:
    """Rows alpha^(d * 2^(W*i)) for d in [0, 2^W), one per W-bit digit of q.

    W is ``_COMB_BITS``.  Cached per parameter set: equal parameters parsed
    from a key file hash equal, so they share the entry of the constant they
    match.
    """
    p = params.p
    rows = []
    base = params.alpha
    for _ in range(-(-params.q.bit_length() // _COMB_BITS)):
        row = [1]
        for _ in range((1 << _COMB_BITS) - 1):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return tuple(rows)


def group_mul(params: GroupParams, a: int, b: int) -> int:
    """Group multiplication a*b mod p."""
    _bump("mul_count")
    return a * b % params.p


def scalar_sub_mul(q: int, r: int, e: int, y: int) -> int:
    """(r - e*y) mod q, reduced into [0, q-1].

    The whole signing-side scalar arithmetic of every scheme here.  No
    value-dependent branches.
    """
    return (r - e * y) % q


# ---------------------------------------------------------------------------
# Canonical encodings (fixed-length big-endian)
# ---------------------------------------------------------------------------

def encode_scalar(params: GroupParams, x: int) -> bytes:
    """Encode a scalar as exactly scalar_len big-endian octets."""
    if not 0 <= x < params.q:
        raise ValueError(f"scalar {x} outside [0, q-1]")
    return x.to_bytes(params.scalar_len, "big")


def decode_scalar(params: GroupParams, data: bytes) -> int:
    """Inverse of :func:`encode_scalar`; rejects wrong length or value >= q."""
    if len(data) != params.scalar_len:
        raise MalformedEncoding(
            f"scalar encoding must be {params.scalar_len} octets, got {len(data)}"
        )
    value = int.from_bytes(data, "big")
    if value >= params.q:
        raise MalformedEncoding("scalar encoding is not canonical (value >= q)")
    return value


def encode_element(params: GroupParams, value: int) -> bytes:
    """Encode a group element as exactly element_len big-endian octets."""
    if not 1 <= value < params.p:
        raise ValueError(f"element {value} outside [1, p-1]")
    return value.to_bytes(params.element_len, "big")


def decode_element(params: GroupParams, data: bytes) -> int:
    """Inverse of :func:`encode_element`; enforces subgroup membership."""
    if len(data) != params.element_len:
        raise MalformedEncoding(
            f"element encoding must be {params.element_len} octets, got {len(data)}"
        )
    value = int.from_bytes(data, "big")
    if not (1 <= value < params.p and pow(value, params.q, params.p) == 1):
        raise MalformedEncoding("octets do not decode to a subgroup element")
    return value


#: The first octet of every scheme's signed envelope.
ENVELOPE_VERSION = 1


def join_envelope(*fields: bytes) -> bytes:
    """A signed envelope: the version octet, then ``fields`` in order."""
    return bytes([ENVELOPE_VERSION]) + b"".join(fields)


def split_envelope(data: bytes, *widths: int) -> list[bytes]:
    """Inverse of :func:`join_envelope`: the fields of the given widths, then the rest.

    >>> split_envelope(b"\\x01abcdef", 2, 3)
    [b'ab', b'cde', b'f']
    """
    if len(data) < 1 + sum(widths):
        raise MalformedEncoding("envelope too short")
    if data[0] != ENVELOPE_VERSION:
        raise MalformedEncoding(f"unknown envelope version {data[0]}")
    fields, offset = [], 1
    for width in widths:
        fields.append(data[offset : offset + width])
        offset += width
    fields.append(data[offset:])
    return fields


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------

_SYSTEM_RNG = secrets.SystemRandom()


def random_scalar(params: GroupParams, rng=None) -> int:
    """Uniform scalar in Z_q* (i.e. [1, q-1]) from the given randomness source.

    ``rng`` is any object with the ``random.Random`` interface; ``None`` uses
    the operating-system CSPRNG.
    """
    source = rng if rng is not None else _SYSTEM_RNG
    try:
        return source.randrange(1, params.q)
    except Exception as exc:  # noqa: BLE001 - caller-supplied source
        raise RngFailure("randomness source failed while drawing a scalar") from exc


def random_octets(n: int, rng=None) -> bytes:
    """n uniform octets from the given randomness source."""
    source = rng if rng is not None else _SYSTEM_RNG
    try:
        return source.getrandbits(8 * n).to_bytes(n, "big") if n else b""
    except Exception as exc:  # noqa: BLE001
        raise RngFailure("randomness source failed while drawing octets") from exc
