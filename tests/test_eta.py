import pytest

from semecs.errors import KeyExhausted, MalformedEncoding, RngFailure
from semecs.eta import (
    INDEX_LEN,
    X_LEN,
    EtaSignature,
    decode_signed_message,
    encode_signed_message,
    eta_keygen,
    eta_keygen_from_secrets,
    eta_sign,
    eta_verify,
)
from semecs import eta as eta_mod, group, keystore
from semecs.group import PRODUCTION_GROUP, TOY_GROUP

from conftest import FixedSource, run_in_threads
from oracles import eta_keygen_transcript, eta_sign_transcript

FORCED_X = bytes(range(X_LEN))


def test_keygen_transcript_matches_oracle():
    state, pk = eta_keygen_from_secrets(TOY_GROUP, 3, y=3, r0=4)
    expected = eta_keygen_transcript(TOY_GROUP, 3, 4, 3)
    assert pk.Y == expected["Y"] == 8
    assert list(pk.tokens) == expected["tokens"]
    # golden chain for (y=3, r0=4): r = 4, 8, 7 and tokens H1(R_j) = 5, 1, 8
    assert expected["chain"] == [4, 8, 7]
    assert pk.tokens == (b"\x05", b"\x01", b"\x08")
    assert state.r_cur == 4 and state.j == 0 and state.K == 3


def test_production_keygen_matches_oracle():
    y, r0 = 0x7E57_AB1E, 0xC4A1_5EED
    state, pk = eta_keygen_from_secrets(PRODUCTION_GROUP, 16, y=y, r0=r0)
    expected = eta_keygen_transcript(PRODUCTION_GROUP, y, r0, 16)
    assert pk.Y == expected["Y"]
    assert list(pk.tokens) == expected["tokens"]
    assert state.r_cur == r0 == expected["chain"][0]


@pytest.mark.parametrize("K, tables", [(1, 0), (group._POW_PHASE, 1)])
def test_keygen_builds_the_alpha_table_before_its_first_power(monkeypatch, K, tables):
    # as in a fresh process: no power computed and no table built yet
    monkeypatch.setattr(group, "_pow_countdown", group._POW_PHASE)
    group._alpha_table.cache_clear()
    tables_seen, real_exp = [], eta_mod.exp

    def exp(params, k):
        tables_seen.append(group._alpha_table.cache_info().currsize)
        return real_exp(params, k)

    monkeypatch.setattr(eta_mod, "exp", exp)
    _, pk = eta_keygen_from_secrets(PRODUCTION_GROUP, K, y=0x7E57AB1E, r0=0xC4A15EED)
    assert tables_seen == [tables] * (K + 1)
    expected = eta_keygen_transcript(PRODUCTION_GROUP, 0x7E57AB1E, 0xC4A15EED, K)
    assert list(pk.tokens) == expected["tokens"]


@pytest.mark.parametrize("K", [1, 2, 8, 128])
def test_token_count_matches_capacity(K, rng):
    _, pk = eta_keygen(TOY_GROUP, K, rng)
    assert len(pk.tokens) == K


def test_single_use_degenerates_to_one_time(rng):
    state, pk = eta_keygen(TOY_GROUP, 1, rng)
    sig = eta_sign(state, b"only message", rng)
    assert eta_verify(pk, b"only message", sig)
    with pytest.raises(KeyExhausted):
        eta_sign(state, b"again", rng)


def test_sign_transcript_with_forced_x():
    state, pk = eta_keygen_from_secrets(TOY_GROUP, 3, y=3, r0=4)
    msg = b"eta-toy-message"
    sig = eta_sign(state, msg, FixedSource(x=FORCED_X))
    expected = eta_sign_transcript(TOY_GROUP, 3, 4, 0, FORCED_X, msg)
    assert (sig.s, sig.x, sig.j) == (expected["s"], FORCED_X, 0)
    assert (expected["e"], expected["s"]) == (9, 10)  # golden
    assert eta_verify(pk, msg, sig)


def _held(value):
    """``value`` and, if it is a tuple, everything nested in it."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _held(item)


def test_state_advances_and_drops_the_old_chain_value(tmp_path):
    state, _ = eta_keygen_from_secrets(TOY_GROUP, 3, y=3, r0=4)
    path = tmp_path / "eta.sk"
    keystore.save_state(path, keystore.record_from_eta_state(state))
    state = keystore.open_signer(path)
    eta_sign(state, b"m", FixedSource(x=FORCED_X))
    assert state.j == 1
    assert state.r_cur == 8  # H0(encode(4)), from the golden chain
    assert keystore.eta_state_from_record(keystore.load_state(path)) == state
    # structural forward security: the state holds nothing but (y, r_cur, j, K)
    # and a persist hook, and neither a field nor the hook keeps r_0 = 4
    assert set(vars(state)) == {"params", "y", "r_cur", "j", "K", "lock", "persist"}
    hook = state.persist
    captured = [*(hook.__defaults__ or ()), *(c.cell_contents for c in hook.__closure__ or ())]
    held = [v for top in (*state._value().values(), *captured) for v in _held(top)]
    assert captured and 4 not in held and b"\x04" not in held


def test_exhaustion_after_k_signatures(rng):
    state, pk = eta_keygen(TOY_GROUP, 2, rng)
    for i in range(2):
        sig = eta_sign(state, b"msg", rng)
        assert sig.j == i
    with pytest.raises(KeyExhausted):
        eta_sign(state, b"msg", rng)


def test_threads_sharing_one_signer_release_each_index_once():
    state, pk = eta_keygen_from_secrets(PRODUCTION_GROUP, 2000, y=0x5EC5, r0=0xE7A)
    sigs = run_in_threads(lambda: eta_sign(state, b"one shared signer"))
    assert len({sig.j for sig in sigs}) == len(sigs) == 2000
    assert state.j == 2000
    # each index signed with its own chain value, not a neighbour's
    assert all(eta_verify(pk, b"one shared signer", sig) for sig in sigs)


def test_broken_randomness_source_leaves_the_state_unchanged():
    class Broken:
        def getrandbits(self, k):
            raise RuntimeError("no entropy")

    state, _ = eta_keygen_from_secrets(TOY_GROUP, 3, y=3, r0=4)
    with pytest.raises(RngFailure):
        eta_sign(state, b"m", Broken())
    assert (state.j, state.r_cur) == (0, 4)


def test_fresh_randomizer_per_signature(rng):
    state, _ = eta_keygen(TOY_GROUP, 2, rng)
    a = eta_sign(state, b"same message", rng)
    b = eta_sign(state, b"same message", rng)
    assert a.x != b.x


def test_verify_accepts_every_index_and_rejects_replay(big_toy, rng):
    K = 8
    state, pk = eta_keygen(big_toy, K, rng)
    msgs = [bytes([i]) * 12 for i in range(K)]
    sigs = [eta_sign(state, m, rng) for m in msgs]
    for m, sig in zip(msgs, sigs):
        assert eta_verify(pk, m, sig)
    # replay with altered index: the token at the new index cannot match
    moved = EtaSignature(s=sigs[0].s, x=sigs[0].x, j=1)
    assert not eta_verify(pk, msgs[0], moved)
    assert not eta_verify(pk, msgs[0], EtaSignature(sigs[0].s, sigs[0].x, K))


def test_verify_rejects_tampered_randomizer(big_toy, rng):
    state, pk = eta_keygen(big_toy, 1, rng)
    msg = b"tamper target"
    sig = eta_sign(state, msg, rng)
    bad_x = bytes([sig.x[0] ^ 1]) + sig.x[1:]
    assert not eta_verify(pk, msg, EtaSignature(s=sig.s, x=bad_x, j=sig.j))


def test_verify_rejects_malformed_fields(rng):
    state, pk = eta_keygen(TOY_GROUP, 1, rng)
    sig = eta_sign(state, b"m", rng)
    assert not eta_verify(pk, b"m", EtaSignature(s=sig.s, x=sig.x[:-1], j=0))
    assert not eta_verify(pk, b"m", EtaSignature(s=TOY_GROUP.q, x=sig.x, j=0))
    assert not eta_verify(pk, b"m", EtaSignature(s=sig.s, x=sig.x, j=-1))


def test_signature_wire_size(rng):
    # scalar_len + kappa/8 + index_len, plus the one-octet version
    for params in (TOY_GROUP, PRODUCTION_GROUP):
        state, _ = eta_keygen(params, 1, rng)
        msg = b"sized"
        sig = eta_sign(state, msg, rng)
        blob = encode_signed_message(params, sig, msg)
        assert len(blob) - len(msg) == 1 + INDEX_LEN + params.scalar_len + X_LEN
        sig2, msg2 = decode_signed_message(params, blob)
        assert sig2 == sig and msg2 == msg


def test_wire_rejects_truncation():
    with pytest.raises(MalformedEncoding):
        decode_signed_message(TOY_GROUP, b"\x01\x00\x00")


def test_keygen_validation(rng):
    with pytest.raises(ValueError):
        eta_keygen(TOY_GROUP, 0, rng)
    with pytest.raises(ValueError):
        eta_keygen_from_secrets(TOY_GROUP, 2, y=0, r0=4)


def test_public_key_holds_only_its_tokens():
    _, pk = eta_keygen_from_secrets(TOY_GROUP, 3, y=3, r0=4)
    assert list(pk._fields) == ["params", "Y", "tokens"]
    assert pk.K == len(pk.tokens) == 3
