"""Independent straight-line reimplementations used as test oracles.

Everything here is written against raw hashlib / pow so the tests do not
trust the code paths they are checking.  Scheme transcripts recompute every
line of the corresponding algorithm.
"""

import hashlib


def oracle_fdh(q: int, hash_id: int, msg: bytes, algorithm: str = "blake2s") -> int:
    digest = getattr(hashlib, algorithm)
    prefix = bytes([hash_id])
    nbits = 2 * q.bit_length()
    nbytes = (nbits + 7) // 8
    data = bytes(msg)
    while True:
        stream = b""
        block = 0
        while len(stream) < nbytes:
            stream += digest(prefix + data + block.to_bytes(4, "big")).digest()
            block += 1
        value = int.from_bytes(stream[:nbytes], "big") >> (8 * nbytes - nbits)
        value %= q
        if value:
            return value
        data += b"\xff"


def scalar_octets(params, x: int) -> bytes:
    return x.to_bytes((params.q.bit_length() + 7) // 8, "big")


def element_octets(params, v: int) -> bytes:
    return v.to_bytes((params.p.bit_length() + 7) // 8, "big")


def fdh_octets(params, hash_id: int, msg: bytes) -> bytes:
    return scalar_octets(params, oracle_fdh(params.q, hash_id, msg))


def schnorr_transcript(params, y: int, r: int, message: bytes):
    """Every line of the baseline sign algorithm, independently."""
    big_r = pow(params.alpha, r, params.p)
    e = oracle_fdh(params.q, 0, message + element_octets(params, big_r))
    s = (r - e * y) % params.q
    return {"R": big_r, "e": e, "s": s}


def eta_keygen_transcript(params, y: int, r0: int, K: int):
    big_y = pow(params.alpha, y, params.p)
    r = r0
    chain = []
    tokens = []
    for _ in range(K):
        chain.append(r)
        big_r = pow(params.alpha, r, params.p)
        tokens.append(fdh_octets(params, 1, element_octets(params, big_r)))
        r = oracle_fdh(params.q, 0, scalar_octets(params, r))
    return {"Y": big_y, "chain": chain, "tokens": tokens}


def eta_sign_transcript(params, y: int, r_j: int, j: int, x: bytes, message: bytes):
    e = oracle_fdh(params.q, 0, message + j.to_bytes(8, "big") + x)
    s = (r_j - e * y) % params.q
    return {"e": e, "s": s}


def semecs_keygen_transcript(params, y: int, K: int):
    """Per-index (r_j, R_j, z_j, gamma_j, beta_j) plus Y, independently."""
    big_y = pow(params.alpha, y, params.p)
    rows = []
    for j in range(K):
        seed = scalar_octets(params, y) + j.to_bytes(8, "big")
        r_j = oracle_fdh(params.q, 0, seed)
        big_r = pow(params.alpha, r_j, params.p)
        z_j = oracle_fdh(params.q, 1, seed)
        preimage = element_octets(params, big_r)
        gamma = bytes(
            a ^ b
            for a, b in zip(scalar_octets(params, z_j), fdh_octets(params, 0, preimage))
        )
        beta = fdh_octets(params, 1, preimage)
        rows.append({"r": r_j, "R": big_r, "z": z_j, "gamma": gamma, "beta": beta})
    return {"Y": big_y, "rows": rows}


def semecs_sign_transcript(params, y: int, j: int, message: bytes):
    """Every line of the headline sign algorithm, independently."""
    L = (params.q.bit_length() + 7) // 8
    if len(message) >= L:
        m_bar, m_tilde, padded = message[:L], message[L:], False
    else:
        m_bar = message + b"\x80" + b"\x00" * (L - len(message) - 1)
        m_tilde, padded = b"", True
    seed = scalar_octets(params, y) + j.to_bytes(8, "big")
    r_j = oracle_fdh(params.q, 0, seed)
    z_j = oracle_fdh(params.q, 1, seed)
    c = bytes(a ^ b for a, b in zip(m_bar, scalar_octets(params, z_j)))
    e = oracle_fdh(params.q, 0, c + m_tilde)
    s = (r_j - e * y) % params.q
    return {
        "m_bar": m_bar,
        "m_tilde": m_tilde,
        "padded": padded,
        "r": r_j,
        "z": z_j,
        "c": c,
        "e": e,
        "s": s,
    }


def _index_octets(j: int) -> bytes:
    return j.to_bytes(4, "big")  # the envelope's index field


def schnorr_envelope(params, y: int, r: int, message: bytes) -> bytes:
    """version 1 || s || e || M, from :func:`schnorr_transcript`."""
    t = schnorr_transcript(params, y, r, message)
    return b"\x01" + scalar_octets(params, t["s"]) + scalar_octets(params, t["e"]) + message


def eta_envelope(params, y: int, r_j: int, j: int, x: bytes, message: bytes) -> bytes:
    """version 1 || j || s || x || M, from :func:`eta_sign_transcript`."""
    t = eta_sign_transcript(params, y, r_j, j, x, message)
    return b"\x01" + _index_octets(j) + scalar_octets(params, t["s"]) + x + message


def semecs_envelope(params, y: int, j: int, message: bytes) -> bytes:
    """version 1 || j || padded || s || c || M-tilde, from :func:`semecs_sign_transcript`."""
    t = semecs_sign_transcript(params, y, j, message)
    head = b"\x01" + _index_octets(j) + (b"\x01" if t["padded"] else b"\x00")
    return head + scalar_octets(params, t["s"]) + t["c"] + t["m_tilde"]


def brute_force_dlog(params, big_y: int) -> int:
    """Exhaustive discrete log: the y in [0, q-1] with alpha^y = Y mod p."""
    acc = 1
    for k in range(params.q):
        if acc == big_y:
            return k
        acc = acc * params.alpha % params.p
    raise ValueError("value is not in the subgroup generated by alpha")
