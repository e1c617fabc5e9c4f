"""Stateful key management: durable counters, exhaustion, crash behaviour.

The signing counter is advanced on disk before any envelope is released.  A
crash in the window between the two loses one index forever -- the safe
failure, because releasing two signatures at one index surrenders the key
(see demo 04).
"""

import tempfile
from pathlib import Path

from semecs import (
    BIG_TOY_GROUP,
    KeyExhausted,
    StaleState,
    StatePersistFailure,
    advance_counter,
    load_state,
    open_signer,
    save_state,
    semecs_keygen,
    semecs_sign,
)
from semecs.keystore import record_from_semecs_state

params = BIG_TOY_GROUP
workdir = Path(tempfile.mkdtemp())
sk_path = workdir / "device.sk"

state, pk = semecs_keygen(params, K=4)
save_state(sk_path, record_from_semecs_state(state))
print(f"state file: {sk_path} ({sk_path.stat().st_size} octets)")

signer = open_signer(sk_path)
for text in (b"reading 1", b"reading 2"):
    env = semecs_sign(signer, text)
    print(f"signed {text!r} at index {env.j}; on-disk counter now {load_state(sk_path).j}")

# --- a concurrent writer is fenced out ---------------------------------------
stale_handle = 0  # somebody who loaded the state before our two signatures
try:
    advance_counter(sk_path, stale_handle)
except StaleState as exc:
    print(f"\nstale writer rejected: {exc}")

# --- simulated crash between durable advance and envelope release ------------
crashy = open_signer(sk_path)
durable = crashy.persist


def power_loss_after_advance(j):
    durable(j)
    raise OSError("simulated power loss")


crashy.persist = power_loss_after_advance
try:
    semecs_sign(crashy, b"never released")
except StatePersistFailure:
    print(f"\ncrash injected: index 2 burned, counter on disk = {load_state(sk_path).j}")

recovered = open_signer(sk_path)
env = semecs_sign(recovered, b"after recovery")
print(f"recovery signs at index {env.j} -- the burned index is never reused")

# --- exhaustion fails closed --------------------------------------------------
try:
    semecs_sign(open_signer(sk_path), b"one past the end")
except KeyExhausted as exc:
    print(f"\ncapacity reached: {exc}")
