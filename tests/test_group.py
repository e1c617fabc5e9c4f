import doctest
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semecs import group, keystore
from semecs.errors import MalformedEncoding, RngFailure
from semecs.group import (
    BIG_TOY_GROUP,
    PRODUCTION_GROUP,
    TOY_GROUP,
    GroupParams,
    count_group_ops,
    decode_element,
    decode_scalar,
    double_exp,
    encode_element,
    encode_scalar,
    exp,
    group_mul,
    random_scalar,
    scalar_sub_mul,
)
from semecs.semecs import semecs_keygen_from_secret, semecs_sign

from oracles import brute_force_dlog


# --- parameters -------------------------------------------------------------

def test_toy_group_is_the_canonical_vector():
    assert (TOY_GROUP.p, TOY_GROUP.q, TOY_GROUP.alpha) == (23, 11, 2)
    assert TOY_GROUP.scalar_len == 1 and TOY_GROUP.element_len == 1
    assert TOY_GROUP.is_toy


def test_production_group_shape():
    g = PRODUCTION_GROUP
    assert g.p == 2 * g.q + 1
    assert g.q.bit_length() == 255 and g.p.bit_length() == 256
    assert g.scalar_len == 32 and g.element_len == 32
    assert pow(g.alpha, g.q, g.p) == 1 and g.alpha != 1
    assert not g.is_toy


@pytest.mark.parametrize(
    "p,q,alpha",
    [
        (23, 7, 2),  # q does not divide p-1
        (23, 11, 5),  # 5 is not in the order-11 subgroup
        (23, 11, 1),  # trivial generator
        (23, 22, 2),  # q divides p - 1 and 2^22 = 1, but q is composite
    ],
)
def test_invalid_params_rejected(p, q, alpha):
    with pytest.raises(ValueError):
        GroupParams(p=p, q=q, alpha=alpha)
    with pytest.raises(ValueError):
        GroupParams(p, q, alpha)
    with pytest.raises(ValueError):
        TOY_GROUP._replace(p=p, q=q, alpha=alpha)


@pytest.mark.parametrize("p, q", [(23, 1), (2, 2)], ids=["q-below-2", "p-below-3"])
def test_degenerate_group_sizes_rejected(p, q):
    with pytest.raises(ValueError, match="out of range"):
        GroupParams(p=p, q=q, alpha=2)
    with pytest.raises(ValueError, match="out of range"):
        TOY_GROUP._replace(p=p, q=q)


def test_group_params_are_hashable_values():
    copy = GroupParams(23, 11, 2)
    assert copy == TOY_GROUP and hash(copy) == hash(TOY_GROUP)
    assert TOY_GROUP._replace() == TOY_GROUP
    assert type(TOY_GROUP._replace()) is GroupParams
    assert TOY_GROUP._replace(alpha=4) == GroupParams(p=23, q=11, alpha=4)
    assert len({TOY_GROUP, copy, BIG_TOY_GROUP}) == 2
    assert not hasattr(TOY_GROUP, "__dict__")  # immutable: no attribute can be added
    assert repr(TOY_GROUP) == "GroupParams(p=23, q=11, alpha=2)"


def test_big_toy_group_is_the_smallest_safe_prime_group_past_2_19():
    g = BIG_TOY_GROUP
    assert g.p == 2 * g.q + 1 and g.alpha == 4 and g.is_toy

    def is_prime(n):
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    # GroupParams checks neither primality nor minimality; toy keys from CLIs
    # that sieved for the first safe prime q >= 2^19 must load as this group
    assert is_prime(g.q) and is_prime(g.p)
    assert not any(is_prime(q) and is_prime(2 * q + 1) for q in range(1 << 19, g.q))


def test_docstring_examples_pass():
    results = doctest.testmod(group)
    assert results.failed == 0 and results.attempted >= 2


# --- exponentiation ---------------------------------------------------------

def test_exp_toy_vectors():
    assert exp(TOY_GROUP, 4) == 16
    assert exp(TOY_GROUP, 0) == 1
    assert exp(TOY_GROUP, 9) == 6  # 512 mod 23


def test_double_exp_toy_vectors():
    assert double_exp(TOY_GROUP, 8, 2, 9) == 16  # 18 * 6 mod 23
    assert double_exp(TOY_GROUP, 8, 0, 0) == 1
    assert double_exp(TOY_GROUP, 8, 1, 0) == 8


@pytest.mark.parametrize("params", [TOY_GROUP, PRODUCTION_GROUP], ids=["toy", "prod"])
def test_double_exp_matches_product_of_single_exps(params, rng):
    # oracle: two builtin pow() calls, so the alpha table is not checked
    # against itself
    edges = [0, 1, params.q - 1]
    cases = [(e, s) for e in edges for s in edges]
    for _ in range(1000):
        cases.append((rng.randrange(0, params.q), rng.randrange(0, params.q)))
    for e, s in cases:
        y = pow(params.alpha, rng.randrange(1, params.q), params.p)
        expected = pow(y, e, params.p) * pow(params.alpha, s, params.p) % params.p
        assert double_exp(params, y, e, s) == expected


def test_exp_homomorphism_on_toy_group(rng):
    g = TOY_GROUP
    for _ in range(300):
        k1 = rng.randrange(0, g.q)
        k2 = rng.randrange(0, g.q)
        lhs = exp(g, k1) * exp(g, k2) % g.p
        assert lhs == exp(g, (k1 + k2) % g.q)


def test_outputs_stay_in_subgroup(rng):
    for k in range(TOY_GROUP.q):  # exhaustive on the toy group
        v = exp(TOY_GROUP, k)
        assert pow(v, TOY_GROUP.q, TOY_GROUP.p) == 1
    g = PRODUCTION_GROUP
    for _ in range(20):  # sampled on the production group
        v = double_exp(
            g,
            pow(g.alpha, rng.randrange(1, g.q), g.p),
            rng.randrange(0, g.q),
            rng.randrange(0, g.q),
        )
        assert pow(v, g.q, g.p) == 1


def test_scalar_sub_mul_vectors():
    assert scalar_sub_mul(11, 4, 2, 3) == 9
    assert scalar_sub_mul(11, 7, 0, 3) == 7
    assert scalar_sub_mul(11, 4, 5, 3) == 0  # 4 - 15 = -11 = 0 mod 11


# --- fixed-base table for alpha ---------------------------------------------

@pytest.fixture
def table_phase(monkeypatch):
    """This process is past its pow phase: alpha powers read the table."""
    monkeypatch.setattr(group, "_pow_countdown", 0)


_COMB_GROUPS = [TOY_GROUP, GroupParams(p=10007, q=5003, alpha=4), PRODUCTION_GROUP]
_COMB_IDS = ["toy", "toy5000", "prod"]


@pytest.mark.parametrize("params", _COMB_GROUPS, ids=_COMB_IDS)
def test_alpha_table_matches_pow(params, table_phase):
    q = params.q
    edges = [0, 1, 63, 64, 255, 256, q - 1, q, q + 1, -1, 1 << 252, 1 << 254,
             (1 << 248) - 1, 1 << 248]
    rnd = random.Random(0xC0B)
    for k in edges + [rnd.randrange(0, q) for _ in range(1000)]:
        assert exp(params, k) == pow(params.alpha, k, params.p), k


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_alpha_table_matches_pow_property(data):
    params = data.draw(st.sampled_from(_COMB_GROUPS))
    k = data.draw(st.integers(min_value=-2 * params.q, max_value=2 * params.q))
    with pytest.MonkeyPatch.context() as mp:  # the table path, in any test order
        mp.setattr(group, "_pow_countdown", 0)
        assert exp(params, k) == pow(params.alpha, k, params.p)


def _table_calls():
    info = group._alpha_table.cache_info()
    return info.hits + info.misses


def test_alpha_powers_take_the_table_path(table_phase):
    before = _table_calls()
    exp(PRODUCTION_GROUP, 12345)
    assert _table_calls() == before + 1


def test_double_exp_reads_alpha_s_from_the_table(table_phase):
    # the key's own table, which holds the alpha powers: never the alpha comb
    big_y = exp(PRODUCTION_GROUP, 7)
    before = _table_calls()
    double_exp(PRODUCTION_GROUP, big_y, 12345, 67890)
    assert _table_calls() == before


def test_first_powers_take_pow_then_the_table(monkeypatch):
    monkeypatch.setattr(group, "_pow_countdown", 2)
    g, before = PRODUCTION_GROUP, _table_calls()
    assert exp(g, 5) == pow(g.alpha, 5, g.p)
    assert double_exp(g, 8, 3, -6) == pow(8, 3, g.p) * pow(g.alpha, -6, g.p) % g.p
    assert _table_calls() == before and group._pow_countdown == 1  # double_exp takes none
    exp(g, 7)
    assert _table_calls() == before
    exp(g, 9)
    assert _table_calls() == before + 1


def test_expected_bulk_of_powers_builds_the_table_at_once(monkeypatch):
    monkeypatch.setattr(group, "_pow_countdown", group._POW_PHASE)
    before = _table_calls()
    group.expect_alpha_powers(PRODUCTION_GROUP, group._POW_PHASE - 1)
    assert _table_calls() == before and group._pow_countdown == group._POW_PHASE
    group.expect_alpha_powers(PRODUCTION_GROUP, group._POW_PHASE)
    assert _table_calls() == before + 1 and group._pow_countdown == 0


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports the package and tests' helpers."""
    tests = Path(__file__).parent
    path = os.pathsep.join([str(Path(group.__file__).parents[1]), str(tests)])
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_a_process_first_powers_match_pow_and_build_no_table():
    # what a one-shot verify or Schnorr sign process does
    code = """if True:
        from semecs import group, schnorr
        from semecs.group import PRODUCTION_GROUP as g
        from conftest import FixedSource
        from oracles import schnorr_transcript
        big_y = pow(g.alpha, 0xC0FFEE, g.p)
        assert group.double_exp(g, big_y, 12345, 67890) == (
            pow(big_y, 12345, g.p) * pow(g.alpha, 67890, g.p) % g.p)
        kp = schnorr.SchnorrKeyPair.from_private(g, 0xC0FFEE)
        sig = schnorr.schnorr_sign(kp, b"once", FixedSource(r=0xBEEF))
        expected = schnorr_transcript(g, 0xC0FFEE, 0xBEEF, b"once")
        assert (kp.Y, sig.s, sig.e) == (big_y, expected["s"], expected["e"])
        print(group._alpha_table.cache_info().currsize)
    """
    assert _run_python(code) == ["0"]


def test_a_verifier_process_builds_no_alpha_table(tmp_path):
    # far more verifies than the pow phase: alpha^s still never reads the comb
    g, n = PRODUCTION_GROUP, 128
    state, pk = semecs_keygen_from_secret(g, n, y=0x7E51F1ED)
    keystore.save_state(tmp_path / "key.pk", keystore.record_from_semecs_public(pk))
    envelopes = [semecs_sign(state, b"envelope %d" % i).to_bytes(g).hex() for i in range(n)]
    (tmp_path / "envelopes").write_text("\n".join(envelopes))
    code = f"""if True:
        from pathlib import Path
        from semecs import group, keystore
        from semecs.semecs import SignedEnvelope, semecs_verify_indexed, semecs_verify_search
        directory = Path({str(tmp_path)!r})
        pk = keystore.semecs_public_from_record(keystore.load_state(directory / "key.pk"))
        lines = (directory / "envelopes").read_text().split()
        for i, line in enumerate(lines):
            env = SignedEnvelope.from_bytes(pk.params, bytes.fromhex(line))
            assert semecs_verify_indexed(pk, env) == (True, b"envelope %d" % i)
            assert semecs_verify_search(pk, env) == (True, i, b"envelope %d" % i)
        print(len(lines), group._y_table.cache_info().misses,
              group._alpha_table.cache_info().currsize)
    """
    assert _run_python(code) == [str(n), "1", "0"]


def test_parsed_parameters_share_the_constant_table_entry():
    g = PRODUCTION_GROUP
    group._alpha_table(g)
    before = group._alpha_table.cache_info()
    copy = GroupParams(p=g.p, q=g.q, alpha=g.alpha)  # as parse_record builds it
    assert copy is not g
    assert group._alpha_table(copy) is group._alpha_table(g)
    assert group._alpha_table.cache_info().misses == before.misses


def test_alpha_table_cache_stays_bounded(table_phase):
    maxsize = group._alpha_table.cache_info().maxsize
    safe_qs = (23, 29, 41, 53, 83, 89, 113, 131, 173, 179, 191, 233)
    assert len(safe_qs) > maxsize
    for q in safe_qs:
        params = GroupParams(p=2 * q + 1, q=q, alpha=4)
        assert exp(params, params.q - 2) == pow(params.alpha, -2, params.p)
    assert group._alpha_table.cache_info().currsize <= maxsize
    # the evicted constant rebuilds to the same table
    assert exp(PRODUCTION_GROUP, 1 << 200) == pow(4, 1 << 200, PRODUCTION_GROUP.p)


# --- split-exponent table for Y ----------------------------------------------

def _split_edges(params):
    """e at the ends of both halves of double_exp's split and of [0, q)."""
    h = 1 << -(-params.q.bit_length() // 2)
    return [0, 1, h - 1, h, params.q - 1]


@pytest.mark.parametrize("params", _COMB_GROUPS, ids=_COMB_IDS)
def test_y_half_matches_pow_at_the_split_edges(params):
    rnd = random.Random(0x5917)
    ys = [1, 2, params.alpha, params.p - 1] + [rnd.randrange(1, params.p) for _ in range(20)]
    assert any(pow(y, params.q, params.p) != 1 for y in ys)  # not all in the subgroup
    for y in ys:
        for e in _split_edges(params) + [rnd.randrange(params.q) for _ in range(20)]:
            assert double_exp(params, y, e, 0) == pow(y, e, params.p), (y, e)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_double_exp_matches_pow_for_any_y_property(data):
    params = data.draw(st.sampled_from(_COMB_GROUPS))
    big_y = data.draw(st.integers(min_value=1, max_value=params.p - 1))
    e = data.draw(st.sampled_from(_split_edges(params)) | st.integers(0, params.q - 1))
    s = data.draw(st.integers(min_value=0, max_value=params.q - 1))
    expected = pow(big_y, e, params.p) * pow(params.alpha, s, params.p) % params.p
    assert double_exp(params, big_y, e, s) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_double_exp_reduces_any_s_mod_q_property(data):
    params = data.draw(st.sampled_from(_COMB_GROUPS))
    big_y = data.draw(st.integers(min_value=1, max_value=params.p - 1))
    e = data.draw(st.sampled_from(_split_edges(params)))
    s = data.draw(st.integers(min_value=-2 * params.q, max_value=2 * params.q))
    expected = pow(big_y, e, params.p) * pow(params.alpha, s, params.p) % params.p
    assert double_exp(params, big_y, e, s) == expected


def test_y_table_is_built_once_per_key_by_value():
    g = BIG_TOY_GROUP
    big_y = pow(g.alpha, 0x5EED17, g.p)
    parsed = keystore.parse_record(
        keystore.serialize_record(keystore.record_from_schnorr_public(g, big_y)))
    parsed_y = keystore.schnorr_public_from_record(parsed)
    assert parsed.params is not g and (parsed.params, parsed_y) == (g, big_y)
    before = group._y_table.cache_info().misses
    assert double_exp(g, big_y, 3, 4) == pow(big_y, 3, g.p) * pow(g.alpha, 4, g.p) % g.p
    for e in (5, g.q - 1):
        assert double_exp(parsed.params, parsed_y, e, 0) == pow(big_y, e, g.p)
    assert group._y_table.cache_info().misses == before + 1
    assert group._y_table(parsed.params, parsed_y) is group._y_table(g, big_y)


def test_y_table_cache_stays_bounded():
    g, maxsize = PRODUCTION_GROUP, group._y_table.cache_info().maxsize
    ys = [pow(3, k, g.p) for k in range(1, maxsize + 9)]  # distinct, some outside the subgroup
    for big_y in ys:
        assert double_exp(g, big_y, g.q - 1, 0) == pow(big_y, g.q - 1, g.p)
    assert group._y_table.cache_info().currsize <= maxsize
    # an evicted key rebuilds to the same table
    assert double_exp(g, ys[0], 12345, 0) == pow(ys[0], 12345, g.p)


# --- dlog oracle ------------------------------------------------------------

def test_brute_force_dlog_vectors():
    assert brute_force_dlog(TOY_GROUP, 8) == 3
    assert brute_force_dlog(TOY_GROUP, 1) == 0
    assert brute_force_dlog(TOY_GROUP, 16) == 4


def test_brute_force_dlog_round_trips_every_exponent():
    for k in range(TOY_GROUP.q):
        assert brute_force_dlog(TOY_GROUP, exp(TOY_GROUP, k)) == k


def test_brute_force_dlog_rejects_non_members():
    with pytest.raises(ValueError):
        brute_force_dlog(TOY_GROUP, 5)  # 5 is not a power of 2 mod 23


# --- op counting ------------------------------------------------------------

def test_op_counter_is_exact(rng):
    with count_group_ops() as ops:
        n_exp = rng.randrange(1, 20)
        n_dexp = rng.randrange(1, 20)
        n_mul = rng.randrange(1, 20)
        for _ in range(n_exp):
            exp(TOY_GROUP, 3)
        for _ in range(n_dexp):
            double_exp(TOY_GROUP, 8, 2, 9)
        for _ in range(n_mul):
            group_mul(TOY_GROUP, 8, 4)
    assert (ops.exp_count, ops.double_exp_count, ops.mul_count) == (n_exp, n_dexp, n_mul)
    assert ops.total() == n_exp + n_dexp + n_mul


def test_op_counter_scoping():
    with count_group_ops() as outer:
        exp(TOY_GROUP, 3)
        with count_group_ops() as inner:
            exp(TOY_GROUP, 3)
        assert inner.exp_count == 1
    assert outer.exp_count == 1  # inner context shadowed the outer counter
    exp(TOY_GROUP, 3)  # uncounted outside any context
    assert outer.exp_count == 1


# --- encodings --------------------------------------------------------------

def test_scalar_encoding_round_trip(rng):
    for params in (TOY_GROUP, PRODUCTION_GROUP, BIG_TOY_GROUP):
        for _ in range(200):
            x = rng.randrange(0, params.q)
            blob = encode_scalar(params, x)
            assert len(blob) == params.scalar_len
            assert decode_scalar(params, blob) == x


def test_scalar_encoding_vectors():
    assert encode_scalar(TOY_GROUP, 9) == b"\x09"
    assert encode_scalar(PRODUCTION_GROUP, 0) == b"\x00" * 32
    with pytest.raises(MalformedEncoding):
        decode_scalar(TOY_GROUP, b"\x0b")  # value == q is non-canonical
    with pytest.raises(MalformedEncoding):
        decode_scalar(TOY_GROUP, b"\x01\x02")  # wrong length
    with pytest.raises(ValueError):
        encode_scalar(TOY_GROUP, 11)


def test_element_encoding_round_trip_and_membership():
    for k in range(TOY_GROUP.q):
        v = exp(TOY_GROUP, k)
        assert decode_element(TOY_GROUP, encode_element(TOY_GROUP, v)) == v
    with pytest.raises(MalformedEncoding):
        decode_element(TOY_GROUP, b"\x05")  # in Z_p* but outside the subgroup
    with pytest.raises(MalformedEncoding):
        decode_element(TOY_GROUP, b"\x00")
    with pytest.raises(MalformedEncoding):
        decode_element(TOY_GROUP, b"\x01\x02")


def test_element_encoding_refuses_zero_and_p():
    for value in (0, TOY_GROUP.p):
        with pytest.raises(ValueError):
            encode_element(TOY_GROUP, value)


# --- randomness -------------------------------------------------------------

def test_random_scalar_range(rng):
    seen = {random_scalar(TOY_GROUP, rng) for _ in range(200)}
    assert seen <= set(range(1, 11))
    assert len(seen) > 5  # actually random, not constant
    assert 1 <= random_scalar(PRODUCTION_GROUP) < PRODUCTION_GROUP.q  # system rng


def test_random_scalar_wraps_broken_rng():
    class Broken:
        def randrange(self, *a):
            raise RuntimeError("no entropy")

    with pytest.raises(RngFailure):
        random_scalar(TOY_GROUP, Broken())
