"""Production-group signing with randomized message recovery.

Shows the headline size story at the 128-bit level: a 32-octet private key,
32 octets of cryptographic overhead per signature, and a public key of
(2K+1) * 32 octets that the verifier holds instead of the signer.
"""

import time

from semecs import (
    PRODUCTION_GROUP,
    count_group_ops,
    semecs_keygen,
    semecs_sign,
    semecs_verify_indexed,
    semecs_verify_search,
)
from semecs.keystore import record_from_semecs_public, record_from_semecs_state
from semecs.semecs import ENVELOPE_HEADER_LEN

K = 256
params = PRODUCTION_GROUP
print(f"group: 256-bit safe prime, |q| = {params.q.bit_length()} bits, K = {K}")

t0 = time.perf_counter()
state, pk = semecs_keygen(params, K)
print(f"keygen: {time.perf_counter() - t0:.3f} s (one-off, done before deployment)")

sk_payload = record_from_semecs_state(state).payload
pk_payload = record_from_semecs_public(pk).payload
print(f"private key payload: {len(sk_payload)} octets")
print(f"public key payload:  {len(pk_payload):,} octets = (2K+1) * 32")

message = b"sensor reading 0x2a; battery 97%; all quiet on the embedded front"
with count_group_ops() as ops:
    t0 = time.perf_counter()
    env = semecs_sign(state, message)
    sign_time = time.perf_counter() - t0
print(f"\nsign: {sign_time * 1e6:.1f} us, group operations: {ops.total()}")
blob = env.to_bytes(params)
print(
    f"envelope: {len(blob)} octets for a {len(message)}-octet message "
    f"(overhead {len(blob) - len(message)} = 32 + {ENVELOPE_HEADER_LEN} header)"
)

with count_group_ops() as ops:
    t0 = time.perf_counter()
    ok, recovered = semecs_verify_indexed(pk, env)
    verify_time = time.perf_counter() - t0
print(f"\nindexed verify: {verify_time * 1e6:.1f} us, double_exps: {ops.double_exp_count}")
assert ok and recovered == message
print(f"recovered message matches: {recovered[:32]!r}...")

ok, found_j, recovered = semecs_verify_search(pk, env)
assert ok and found_j == env.j and recovered == message
print(f"index-free verify agrees and located j = {found_j} by binary search")
