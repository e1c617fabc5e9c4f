"""Model-based check of both durable signers: no index is ever released twice.

A hypothesis state machine drives one state file through signs, signs that
hit one of the nine ``faults.ADVANCE_FAULTS``, reopened handles, signs on
stale handles and exhaustion.  After every step it checks that no two
released signatures share an index (so ``extract_private_key`` never gets two
transcripts at one index), that the on-disk counter lies past every released
index and that no temporary ``.smks.*`` file is left.  After every release it
checks the one release rule: the file holds exactly the releasing handle's
state record.

Each example makes at most K = 12 durable advances, so the two machines
together make at most 2 * 10 * 12 = 240.  No process is started.
"""

import os
import shutil
import tempfile
from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from semecs import keystore
from semecs.errors import KeyExhausted, StatePersistFailure
from semecs.group import BIG_TOY_GROUP
from semecs.semecs import extract_private_key

from faults import ADVANCE_FAULTS, fails_on_call
from signers import SIGNERS

K = 12
Y = 271828
MESSAGES = st.binary(min_size=1, max_size=40)


class DurableSigning(RuleBasedStateMachine):
    scheme = None  # "eta" or "semecs", set by each subclass

    def __init__(self):
        super().__init__()
        self.signer = SIGNERS[self.scheme]
        self.dir = tempfile.mkdtemp(prefix="durable-model-")
        self.path = os.path.join(self.dir, "signer.sk")
        record, self.pk = self.signer.keygen(BIG_TOY_GROUP, K, Y)
        keystore.save_state(self.path, record)
        self.handle = keystore.open_signer(self.path)
        # a second handle from the start, and each one a reopen replaces:
        # stale once the file moves on
        self.old_handles = [keystore.open_signer(self.path)]
        self.releases = []

    def teardown(self):
        shutil.rmtree(self.dir)

    def _disk_j(self):
        return keystore.load_state(self.path).j

    def _sign(self, handle, message):
        """Sign on ``handle``: record the release, or check that a refusal changed nothing."""
        before = handle._value()
        try:
            release = self.signer.sign(handle, message)
        except (KeyExhausted, StatePersistFailure):
            assert handle._value() == before
            return None
        assert self.signer.verify(self.pk, release)
        with open(self.path, "rb") as fh:
            assert fh.read() == keystore.serialize_record(self.signer.record(handle))
        self.releases.append(release)
        return release

    @rule(message=MESSAGES)
    def sign(self, message):
        self._sign(self.handle, message)

    @rule(fault=st.sampled_from(sorted(ADVANCE_FAULTS)), message=MESSAGES)
    def sign_under_fault(self, fault, message):
        target, name, real, n, burned = ADVANCE_FAULTS[fault]
        advance = keystore.advance_counter

        def faulty_advance(*args, **kwargs):
            with mock.patch.object(target, name, side_effect=fails_on_call(real, n)):
                return advance(*args, **kwargs)

        disk_j = self._disk_j()
        reaches_the_write = self.handle.j == disk_j < K
        with mock.patch.object(keystore, "advance_counter", faulty_advance):
            assert self._sign(self.handle, message) is None
        assert self._disk_j() == disk_j + (burned if reaches_the_write else 0)

    @rule()
    def reopen(self):
        self.old_handles.append(self.handle)
        self.handle = keystore.open_signer(self.path)

    @rule(pick=st.integers(min_value=0), message=MESSAGES)
    def sign_on_old_handle(self, pick, message):
        handle = self.old_handles[pick % len(self.old_handles)]
        stale = handle.j < self._disk_j()
        release = self._sign(handle, message)
        assert not (stale and release)

    @rule(message=MESSAGES)
    def exhaust(self, message):
        self.reopen()
        while self._sign(self.handle, message):
            pass
        assert self.handle.j == self._disk_j() == K

    @invariant()
    def no_index_released_twice(self):
        first = {}
        for release in self.releases:
            if release.j in first:
                y = extract_private_key(BIG_TOY_GROUP, first[release.j], release[1:3])
                raise AssertionError(f"index {release.j} released twice, giving up y = {y}")
            first[release.j] = release[1:3]

    @invariant()
    def disk_counter_lies_past_every_release(self):
        disk_j = self._disk_j()
        assert all(release.j < disk_j for release in self.releases)

    @invariant()
    def no_temporary_file_is_left(self):
        assert not [f for f in os.listdir(self.dir) if f.startswith(".smks.")]


_BOUNDS = settings(max_examples=10, stateful_step_count=30, deadline=None)


class EtaDurableSigning(DurableSigning):
    scheme = "eta"


class SemecsDurableSigning(DurableSigning):
    scheme = "semecs"


TestEtaDurableSigning = EtaDurableSigning.TestCase
TestEtaDurableSigning.settings = _BOUNDS
TestSemecsDurableSigning = SemecsDurableSigning.TestCase
TestSemecsDurableSigning.settings = _BOUNDS
