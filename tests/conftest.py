import contextlib
import os
import random
import sys
import threading
import time

import pytest

from semecs import eta as eta_mod, keystore, semecs as semecs_mod
from semecs.group import BIG_TOY_GROUP, PRODUCTION_GROUP, TOY_GROUP
from signers import SIGNERS


class FixedSource:
    """A randomness source whose every draw is fixed: r for scalars, x for octets."""

    def __init__(self, r=1, x=b""):
        self.r, self.x = r, x

    def randrange(self, start, stop):
        return self.r

    def getrandbits(self, k):
        return int.from_bytes(self.x, "big")


def run_in_threads(work, threads=4, calls=500):
    """Call ``work`` ``calls`` times on each of ``threads`` threads.

    The interpreter switches threads every microsecond meanwhile, so a
    read-modify-write that is not atomic interleaves.  Returns every result,
    or re-raises the first exception a thread hit.
    """
    results, errors = [], []
    start = threading.Barrier(threads, timeout=60)

    def loop():
        try:
            start.wait()
            for _ in range(calls):
                results.append(work())
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=loop) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers), "a thread did not finish"
    if errors:
        raise errors[0]
    return results


@pytest.fixture
def cores(monkeypatch):
    """Call with n: keygen then sees n usable cores, whatever the host has."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from here on, in the order forked."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    """Every child in ``pids`` has exited and been reaped, and no other is left."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_keygen_ranges(monkeypatch, in_child, exc):
    """Make ETA and SEMECS keygen raise ``exc`` in the forked children, or else in range 0.

    Wraps the ``token_range`` that ``_token_buffer`` receives.  In the
    second case the children sleep first, so they are still running when
    the parent fails.
    """
    real_buffer = semecs_mod._token_buffer

    def token_buffer(K, width, token_range):
        def failing_range(lo, hi):
            if (lo > 0) == in_child:
                raise exc
            if lo > 0:
                time.sleep(30)  # a child still running when the parent fails
            return token_range(lo, hi)

        return real_buffer(K, width, failing_range)

    for module in (semecs_mod, eta_mod):
        monkeypatch.setattr(module, "_token_buffer", token_buffer)


@contextlib.contextmanager
def no_new_descriptors():
    """The body leaves open exactly the descriptors that were open before it."""
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.fixture(params=sorted(SIGNERS))
def signer(request):
    """Each K-time signer in turn, behind the interface of ``signers.Signer``."""
    return SIGNERS[request.param]


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture(scope="session")
def big_toy():
    return BIG_TOY_GROUP


@pytest.fixture(scope="session")
def toy():
    return TOY_GROUP


@pytest.fixture(scope="session")
def prod():
    return PRODUCTION_GROUP


@pytest.fixture(params=["schnorr_y", "eta_y", "eta_r_cur", "semecs_y"])
def zero_secret_record(request):
    """A production-group secret record whose one named scalar is 0."""
    L = PRODUCTION_GROUP.scalar_len
    zero, one = bytes(L), (1).to_bytes(L, "big")
    scheme, role, K, payload = {
        "schnorr_y": (keystore.SCHEME_SCHNORR, keystore.ROLE_SECRET, 0, zero),
        "eta_y": (keystore.SCHEME_ETA, keystore.ROLE_STATE, 2, zero + one),
        "eta_r_cur": (keystore.SCHEME_ETA, keystore.ROLE_STATE, 2, one + zero),
        "semecs_y": (keystore.SCHEME_SEMECS, keystore.ROLE_STATE, 2, zero),
    }[request.param]
    return keystore.SignerStateRecord(
        scheme, role, PRODUCTION_GROUP, 0, K, payload
    )


@pytest.fixture(params=["eta", "semecs"])
def large_k_record(request):
    """A production-group signer state with K = 2^33, past the 4-octet index."""
    L = PRODUCTION_GROUP.scalar_len
    one = (1).to_bytes(L, "big")
    scheme, payload = {
        "eta": (keystore.SCHEME_ETA, one + one),
        "semecs": (keystore.SCHEME_SEMECS, one),
    }[request.param]
    return keystore.SignerStateRecord(
        scheme, keystore.ROLE_STATE, PRODUCTION_GROUP,
        1 << 32, 1 << 33, payload,
    )
