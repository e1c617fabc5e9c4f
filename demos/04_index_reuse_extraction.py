"""Why the counter discipline matters: index reuse surrenders the private key.

Two signatures against the same token give two linear equations in (y, r_j);
anyone can solve them.  This demo forces the misuse by cloning the signer
state, then recovers the key with the extraction utility.
"""

from semecs import (
    TOY_GROUP,
    envelope_challenge,
    exp,
    extract_private_key,
    semecs_keygen_from_secret,
    semecs_sign,
)

params = TOY_GROUP
SECRET_Y = 3

state_a, pk = semecs_keygen_from_secret(params, K=1, y=SECRET_Y)
state_b, _ = semecs_keygen_from_secret(params, K=1, y=SECRET_Y)
print(f"a toy signer with private y = {SECRET_Y}, public Y = {pk.Y}")

env_a = semecs_sign(state_a, b"first message, index 0")
e_a = envelope_challenge(params, env_a)

# find a second message whose challenge differs (q = 11 collides often)
for i in range(64):
    state_b.j = 0
    env_b = semecs_sign(state_b, b"second message %d" % i)
    e_b = envelope_challenge(params, env_b)
    if e_b != e_a:
        break

print(f"transcript A at index 0: e = {e_a}, s = {env_a.s}")
print(f"transcript B at index 0: e = {e_b}, s = {env_b.s}")

recovered = extract_private_key(params, (e_a, env_a.s), (e_b, env_b.s))
print(f"\nsolving the two modular linear equations: y = {recovered}")
assert recovered == SECRET_Y
assert exp(params, recovered) == pk.Y
print(f"check: alpha^y = {exp(params, recovered)} = Y")
print("\nmoral: never release two envelopes with the same index;")
print("the keystore advances the counter durably BEFORE any envelope escapes")
