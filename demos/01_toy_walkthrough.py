"""Hand-checkable walkthrough of all three schemes on the tiny group.

Everything here happens modulo p = 23 in the subgroup of order q = 11
generated by alpha = 2, so every quantity can be recomputed on paper.
"""

from semecs import (
    TOY_GROUP,
    eta_keygen_from_secrets,
    eta_sign,
    eta_verify,
    exp,
    fdh_pair,
    schnorr_sign,
    schnorr_verify,
    semecs_keygen_from_secret,
    semecs_sign,
    semecs_verify_indexed,
)
from semecs.schnorr import SchnorrKeyPair

g = TOY_GROUP
print(f"toy group: p={g.p} q={g.q} alpha={g.alpha}")
print(f"subgroup G = {sorted(exp(g, k) for k in range(g.q))}")

h0, h1 = fdh_pair(g.q)
print(f"\nfull-domain hashes land in [1, {g.q - 1}]:")
for msg in (b"abc", b"abd"):
    print(f"  H0({msg!r}) = {h0.eval(msg)}   H1({msg!r}) = {h1.eval(msg)}")

# --- Schnorr: the ancestor --------------------------------------------------
print("\n--- Schnorr baseline ---")
kp = SchnorrKeyPair.from_private(g, 3)
print(f"private y = {kp.y}, public Y = alpha^y = {kp.Y}")
print(f"(exhaustive search agrees: {next(k for k in range(g.q) if exp(g, k) == kp.Y)})")


class ForcedNonce:  # a randomness source that always draws r = 4
    def randrange(self, start, stop):
        return 4


sig = schnorr_sign(kp, b"toy message", ForcedNonce())
print(f"forced nonce r = 4 gives R = 2^4 = 16, signature (s={sig.s}, e={sig.e})")
print(f"verifies: {schnorr_verify(g, kp.Y, b'toy message', sig)}")

# --- ETA: hash chain + online randomness -------------------------------------
print("\n--- ETA ---")
state, pk = eta_keygen_from_secrets(g, K=3, y=3, r0=4)
print(f"chain seeded at r0 = 4; tokens v_j = {[t.hex() for t in pk.tokens]}")
for i in range(3):
    sig = eta_sign(state, b"eta message")
    print(
        f"  sign #{i}: index {sig.j}, s = {sig.s}, fresh x = {sig.x.hex()[:8]}..., "
        f"verifies {eta_verify(pk, b'eta message', sig)}"
    )

# --- SEMECS: deterministic, no group ops, message recovery -------------------
print("\n--- SEMECS ---")
state, pk = semecs_keygen_from_secret(g, K=2, y=3)
print("token pairs (gamma_j, beta_j):")
for j in range(2):
    print(f"  j={j}: gamma={pk.gammas[j].hex()} beta={pk.betas[j].hex()}")
message = b"hello-semecs-msg"
env = semecs_sign(state, message)
print(f"signed {message!r}: j={env.j} s={env.s} c={env.c.hex()} remainder={env.m_tilde!r}")
ok, recovered = semecs_verify_indexed(pk, env)
print(f"verifies: {ok}, recovered message: {recovered!r}")
assert recovered == message
print("\nwalkthrough complete")
