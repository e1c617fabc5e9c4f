"""Full-domain hash functions H0 and H1 onto Z_q*.

Two domain-separated hashes are required by every scheme in this package.
Construction (expand-then-reduce): digest the one-octet domain-separation
prefix (0x00 for H0, 0x01 for H1) followed by the message into
2*bitlen(q) pseudorandom bits via counter-mode chaining of a 256-bit digest,
then reduce mod q.  The double-width expansion keeps the modular bias below
2^-bitlen(q).  A zero residue (never observed in practice) is handled by
appending octet 0xFF and re-deriving, so outputs always land in [1, q-1].

The digest is fixed to BLAKE2s-256; no key or state record names a digest,
so another one could not be told apart on load.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import blake2s


class Fdh:
    """One full-domain hash H_i : {0,1}* -> Z_q* for i = hash_id."""

    def __init__(self, q: int, hash_id: int) -> None:
        if hash_id not in (0, 1):
            raise ValueError("hash_id selects H0 or H1")
        if q < 2:
            raise ValueError("q must be a prime >= 2")
        self.q, self.hash_id = q, hash_id
        self.scalar_len = (q.bit_length() + 7) // 8
        nbits = 2 * q.bit_length()
        nbytes = (nbits + 7) // 8
        # one 4-octet counter per 32-octet digest of the expansion
        *counters, last = (b.to_bytes(4, "big") for b in range(-(-nbytes // 32)))
        self._expansion = (blake2s(bytes([hash_id])), nbytes, 8 * nbytes - nbits, counters, last)

    def eval(self, message: bytes) -> int:
        """Deterministically hash an octet string (any buffer) into [1, q-1]."""
        prefixed, nbytes, shift, counters, last = self._expansion
        h = prefixed.copy()
        h.update(message)  # absorbed once; each counter but the last extends a copy
        stream = b""
        for c in counters:
            block = h.copy()
            block.update(c)
            stream += block.digest()
        h.update(last)
        value = (int.from_bytes((stream + h.digest())[:nbytes], "big") >> shift) % self.q
        return value or self.eval(bytes(message) + b"\xff")  # zero residue: re-derive

    def prefixed(self, prefix: bytes) -> "Fdh":
        """This hash with ``prefix`` absorbed once: its ``eval(m)`` is ``eval(prefix + m)``."""
        clone, (base, *rest) = Fdh.__new__(Fdh), self._expansion
        vars(clone).update(vars(self), _expansion=(base.copy(), *rest))
        clone._expansion[0].update(prefix)
        return clone

    def eval_encoded(self, message: bytes) -> bytes:
        """Like :meth:`eval` but returns the canonical scalar_len encoding."""
        return self.eval(message).to_bytes(self.scalar_len, "big")


@lru_cache(maxsize=32)
def fdh_pair(q: int) -> tuple[Fdh, Fdh]:
    """The (H0, H1) pair for a given group order."""
    return Fdh(q, 0), Fdh(q, 1)
