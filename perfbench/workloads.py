"""The four closed-loop, single-client workloads.

Each workload builds its inputs from the seed (``prepare``), has a cold
set-up that starts from files as a restarting process would
(``setup_once``), and runs operations one at a time (``op``), each checked
against an independent oracle right after it returns (``check``).  Package
functions are always looked up through their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import oracle

MESSAGE_SIZES = (16, 32, 200, 4096)  # 16 B is padded; 32 B fills c exactly
UNPADDED_OVERHEAD = 38  # s (32 octets) + header (6 octets)


@dataclass(frozen=True)
class Sizes:
    verify_K: int
    provision_K: int
    cli_K: int
    verify_cases: int
    trace_ops: dict  # workload -> op count of a traced phase per 10 s of --seconds


FULL = Sizes(
    verify_K=1 << 14, provision_K=4096, cli_K=4096, verify_cases=2048,
    trace_ops={"sign_durable": 800, "verify_k16k": 1200, "provision_k4k": 2, "cli_session": 35},
)
SMOKE = Sizes(
    verify_K=256, provision_K=32, cli_K=16, verify_cases=64,
    trace_ops={"sign_durable": 200, "verify_k16k": 600, "provision_k4k": 10, "cli_session": 70},
)


def _pkg(name: str):
    return sys.modules["semecs." + name]


def _message(rng: random.Random) -> bytes:
    return rng.randbytes(rng.choice(MESSAGE_SIZES))


def _flip_bit(blob: bytes, lo: int, hi: int, rng: random.Random) -> bytes:
    pos = rng.randrange(lo, hi)
    out = bytearray(blob)
    out[pos] ^= 1 << rng.randrange(8)
    return bytes(out)


class Workload:
    name = ""
    cycle = 1  # ops per indivisible cycle; the timed phase ends on a cycle boundary
    units = 1  # operations counted per op in ops_per_s and attempted
    setup_reps = 5
    warmup_ops = 0
    #: Ops far shorter than a host-reference burst: their median latency is
    #: scaled by the reference's median iteration, not its whole-burst rate.
    #: Fixed per workload rather than derived from the measured latency, so
    #: that a change to the program cannot switch how a gated metric is scaled.
    short_ops = True

    def __init__(self, root: str, work: str, seed: int, sizes: Sizes, in_process: bool = False):
        self.root, self.work, self.sizes = root, work, sizes
        self.rng = random.Random(f"{self.name}:{seed}")
        self.in_process = in_process
        self.params = _pkg("group").PRODUCTION_GROUP

    def prepare(self) -> None:
        """Build the inputs from the seed; not timed."""

    def setup_once(self) -> None:
        """One cold set-up from files; timed by the caller."""

    def begin(self) -> None:
        """Create the live state the operations use."""

    def prepare_op(self, i: int):
        return i

    def kind(self, args) -> str:
        """Name of the operation ``args`` describes, for its root span."""
        return self.name

    def op(self, args):
        raise NotImplementedError

    def check(self, i: int, args, out) -> bool:
        raise NotImplementedError

    def finish(self) -> bool:
        """Checks that need the whole run; True when they pass."""
        return True


class SignDurable(Workload):
    """One long-lived SEMECS signer whose counter writes through to a file."""

    name = "sign_durable"
    setup_reps = 201
    warmup_ops = 20

    def prepare(self):
        self.y = self.rng.randrange(1, oracle.Q)
        self.messages = [_message(self.rng) for _ in range(256)]
        self.path = os.path.join(self.work, "signer.sk")
        with open(self.path, "wb") as fh:
            fh.write(oracle.semecs_state_record(self.y, 0, 1 << 24))
        self.released = 0
        self.overheads: set[int] = set()

    def setup_once(self):
        _pkg("keystore").open_semecs_signer(self.path)

    def begin(self):
        self.signer = _pkg("keystore").open_semecs_signer(self.path)

    def prepare_op(self, i):
        return self.messages[i % len(self.messages)]

    def op(self, message):
        return _pkg("semecs").semecs_sign(self.signer, message)

    def check(self, i, message, env):
        if isinstance(env, Exception):
            return False
        blob = env.to_bytes(self.params)
        ok = env.j == self.released and blob == oracle.semecs_envelope(self.y, self.released, message)
        if ok:
            self.released += 1
            if len(message) >= 32:
                self.overheads.add(len(blob) - len(message))
        return ok

    def finish(self):
        with open(self.path, "rb") as fh:
            on_disk_j, _K, _payload = oracle.record_fields(fh.read())
        return on_disk_j == self.released


class _Case:
    __slots__ = ("mode", "blob", "message", "j", "double_exps")

    def __init__(self, mode, blob, message, j, double_exps):
        self.mode, self.blob, self.message, self.j = mode, blob, message, j
        self.double_exps = double_exps  # 1 iff the envelope passes the range checks


class VerifyK16k(Workload):
    """A verifier holding one large public key; indexed, search and tampered."""

    name = "verify_k16k"
    setup_reps = 41
    warmup_ops = 50

    def prepare(self):
        K = self.K = self.sizes.verify_K
        self.y = self.rng.randrange(1, oracle.Q)
        self.pk_path = os.path.join(self.work, "verifier.pk")
        with open(self.pk_path, "wb") as fh:
            fh.write(oracle.semecs_public_record(self.y, K))
        self.cases = [self._case() for _ in range(self.sizes.verify_cases)]

    def _case(self) -> _Case:
        rng, K = self.rng, self.K
        j, message = rng.randrange(K), _message(rng)
        blob = oracle.semecs_envelope(self.y, j, message)
        r = rng.random()
        if r < 0.45:
            return _Case("indexed", blob, message, j, 1)
        if r < 0.80:
            return _Case("search", blob, message, j, 1)
        kind = rng.choice(("s", "c", "m_tilde", "j", "truncate", "flag"))
        if kind == "s":
            bad = _flip_bit(blob, 6, 38, rng)
            in_range = int.from_bytes(bad[6:38], "big") < oracle.Q
            return _Case("indexed", bad, None, j, 1 if in_range else 0)
        if kind == "c":
            return _Case("search", _flip_bit(blob, 38, 70, rng), None, j, 1)
        if kind == "m_tilde":
            lo = 70 if len(blob) > 70 else 38
            return _Case("indexed", _flip_bit(blob, lo, len(blob), rng), None, j, 1)
        if kind == "j":
            other = (j + 1 + rng.randrange(K - 1)) % K
            return _Case("indexed", blob[:1] + other.to_bytes(4, "big") + blob[5:], None, other, 1)
        if kind == "truncate":
            return _Case("indexed", blob[: rng.randrange(70)], None, j, 0)
        return _Case("indexed", blob[:5] + b"\x02" + blob[6:], None, j, 0)

    def _load(self):
        keystore = _pkg("keystore")
        return keystore.semecs_public_from_record(keystore.load_state(self.pk_path))

    def setup_once(self):
        self._load()

    def begin(self):
        self.pk = self._load()

    def prepare_op(self, i):
        return self.cases[i % len(self.cases)]

    def op(self, case):
        sem = _pkg("semecs")
        try:
            env = sem.SignedEnvelope.from_bytes(self.params, case.blob)
        except _pkg("errors").MalformedEncoding:
            return (False, None, None)
        if case.mode == "search":
            return sem.semecs_verify_search(self.pk, env)
        ok, message = sem.semecs_verify_indexed(self.pk, env)
        return ok, env.j, message

    def check(self, i, case, out):
        if isinstance(out, Exception):
            return False
        if case.message is None:
            return out[0] is False
        return out == (True, case.j, case.message)


class ProvisionK4k(Workload):
    """SEMECS keygen at K = 4096, then both records serialized and saved."""

    name = "provision_k4k"
    setup_reps = 5
    short_ops = False
    SAMPLED_INDICES = 8

    def prepare(self):
        self.units = self.K = self.sizes.provision_K
        self.ys = [self.rng.randrange(1, oracle.Q) for _ in range(64)]
        self.sk_path = os.path.join(self.work, "prov.sk")
        self.pk_path = os.path.join(self.work, "prov.pk")

    def setup_once(self):
        # a restarting process: fresh interpreter, import, first keygen
        code = (
            "from semecs import PRODUCTION_GROUP, semecs_keygen_from_secret\n"
            f"semecs_keygen_from_secret(PRODUCTION_GROUP, 1, {self.ys[0]})\n"
        )
        subprocess.run([sys.executable, "-c", code], env=_child_env(self.root), check=True)

    def prepare_op(self, i):
        return self.ys[i % len(self.ys)]

    def op(self, y):
        sem, keystore = _pkg("semecs"), _pkg("keystore")
        state, pk = sem.semecs_keygen_from_secret(self.params, self.K, y)
        keystore.save_state(self.sk_path, keystore.record_from_semecs_state(state))
        keystore.save_state(self.pk_path, keystore.record_from_semecs_public(pk))

    def check(self, i, y, out):
        if isinstance(out, Exception):
            return False
        with open(self.sk_path, "rb") as fh:
            if fh.read() != oracle.semecs_state_record(y, 0, self.K):
                return False
        with open(self.pk_path, "rb") as fh:
            j, K, payload = oracle.record_fields(fh.read())
        if (j, K, len(payload)) != (0, self.K, 32 + 64 * self.K):
            return False
        if payload[:32] != pow(oracle.ALPHA, y, oracle.P).to_bytes(32, "big"):
            return False
        pick = random.Random(y)
        indices = {0, self.K - 1, *(pick.randrange(self.K) for _ in range(self.SAMPLED_INDICES))}
        return all(payload[32 + 64 * j : 96 + 64 * j] == oracle.semecs_token(y, j) for j in indices)


SCHEMES = ("semecs", "eta", "schnorr")


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("SEMECS_HOME", None)
    return env


class CliSession(Workload):
    """``semecs`` invocations one at a time: sign then verify per scheme, then
    one tampered envelope that must fail with exit code 1."""

    name = "cli_session"
    cycle = 7
    setup_reps = 3
    short_ops = False
    warmup_ops = 7

    def prepare(self):
        self.env = _child_env(self.root)
        self.prefix = {s: os.path.join(self.work, s) for s in SCHEMES}
        self.messages = [_message(self.rng) for _ in range(64)]
        self.msg_path = os.path.join(self.work, "message")
        self.env_path = {s: os.path.join(self.work, s + ".env") for s in SCHEMES}
        self.bad_path = os.path.join(self.work, "tampered.env")
        self.signed = {}

    def cli(self, argv):
        """Run one ``semecs`` command; (exit code, stdout bytes)."""
        if not self.in_process:
            done = subprocess.run(
                [sys.executable, "-m", "semecs.cli", *argv],
                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
            return done.returncode, done.stdout
        out = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = _pkg("cli").main(argv)
        out.flush()
        return code, out.buffer.getvalue()

    def setup_once(self):
        for scheme in SCHEMES:
            capacity = [] if scheme == "schnorr" else ["-K", str(self.sizes.cli_K)]
            code, _ = self.cli(["keygen", "--scheme", scheme, *capacity,
                                "--out-prefix", self.prefix[scheme]])
            if code != 0:
                raise RuntimeError(f"semecs keygen --scheme {scheme} exited {code}")

    def prepare_op(self, i):
        """(kind, argv, expected exit code, expected stdout)."""
        step, rnd = i % self.cycle, i // self.cycle
        if step == 6:
            scheme = SCHEMES[rnd % 3]
            with open(self.env_path[scheme], "rb") as fh:
                blob = bytearray(fh.read())
            blob[-1] ^= 0x01
            with open(self.bad_path, "wb") as fh:
                fh.write(blob)
            return ("tampered." + scheme, ["verify", "--pk", self.prefix[scheme] + ".pk",
                                           "--env", self.bad_path], 1, b"")
        scheme = SCHEMES[step // 2]
        if step % 2 == 0:
            message = self.messages[i % len(self.messages)]
            with open(self.msg_path, "wb") as fh:
                fh.write(message)
            self.signed[scheme] = message
            return ("sign." + scheme, ["sign", "--sk", self.prefix[scheme] + ".sk",
                                       "--in", self.msg_path, "--out", self.env_path[scheme]], 0, b"")
        search = ["--no-index"] if scheme == "semecs" and rnd % 2 else []
        return ("verify." + scheme, ["verify", "--pk", self.prefix[scheme] + ".pk",
                                     "--env", self.env_path[scheme], *search], 0, self.signed[scheme])

    def kind(self, args):
        return args[0]

    def op(self, args):
        return self.cli(args[1])

    def check(self, i, args, out):
        return not isinstance(out, Exception) and out == (args[2], args[3])


WORKLOADS = {cls.name: cls for cls in (SignDurable, VerifyK16k, ProvisionK4k, CliSession)}
