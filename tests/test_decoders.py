"""Every decoder is total: any input gives a value or the decoder's own error."""

import hashlib
import io

from hypothesis import given, settings, strategies as st

from semecs import eta, keystore, schnorr
from semecs.bench import CSV_COLUMNS, read_csv
from semecs.errors import CorruptState, MalformedEncoding
from semecs.group import PRODUCTION_GROUP, TOY_GROUP, generate_toy_group
from semecs.semecs import SignedEnvelope, semecs_keygen_from_secret

BIG_TOY = generate_toy_group(1 << 19)
GROUPS = st.sampled_from([TOY_GROUP, BIG_TOY, PRODUCTION_GROUP])
PROPERTY = settings(max_examples=200, deadline=None)


def _sample_records():
    state, pk = semecs_keygen_from_secret(BIG_TOY, 3, y=5, require_index=False)
    eta_state, eta_pk = eta.eta_keygen_from_secrets(PRODUCTION_GROUP, 2, 7, 11)
    kp = schnorr.SchnorrKeyPair.from_private(PRODUCTION_GROUP, 9)
    return [
        keystore.record_from_semecs_state(state),
        keystore.record_from_semecs_public(pk),
        keystore.record_from_eta_state(eta_state),
        keystore.record_from_eta_public(eta_pk),
        keystore.record_from_schnorr_key(kp),
        keystore.record_from_schnorr_public(PRODUCTION_GROUP, kp.Y),
    ]


BODIES = [keystore.serialize_record(r)[:-32] for r in _sample_records()]


def _parses_or_corrupt(data: bytes) -> None:
    try:
        keystore.parse_record(data)
    except CorruptState:
        pass


@PROPERTY
@given(st.binary(max_size=300))
def test_parse_record_on_arbitrary_bytes(data):
    _parses_or_corrupt(data)


@PROPERTY
@given(
    st.sampled_from(BODIES),
    st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=4),
    st.integers(0, 400),
    st.binary(max_size=8),
)
def test_parse_record_on_mutated_bodies_with_a_valid_tag(body, writes, cut, insert):
    body = bytearray(body)
    for pos, value in writes:
        if pos < len(body):
            body[pos] = value
    body = bytes(body[:cut] + insert + body[cut:])
    _parses_or_corrupt(body + hashlib.blake2s(body).digest())


@PROPERTY
@given(GROUPS, st.binary(max_size=120))
def test_envelope_decoders_on_arbitrary_bytes(params, data):
    for decode in (
        SignedEnvelope.from_bytes,
        schnorr.decode_signed_message,
        eta.decode_signed_message,
    ):
        try:
            decode(params, data)
        except MalformedEncoding:
            pass


@PROPERTY
@given(st.one_of(st.text(max_size=300), st.text(max_size=300).map(
    lambda rows: ",".join(CSV_COLUMNS) + "\r\n" + rows)))
def test_read_csv_on_arbitrary_text(text):
    try:
        read_csv(io.StringIO(text, newline=""))
    except MalformedEncoding:
        pass


_FROM_RECORD = (
    keystore.schnorr_key_from_record,
    keystore.schnorr_public_from_record,
    keystore.eta_state_from_record,
    keystore.eta_public_from_record,
    keystore.semecs_state_from_record,
    keystore.semecs_public_from_record,
)


#: the (scheme, role) pair each converter above accepts
_KINDS = [
    (keystore.SCHEME_SCHNORR, keystore.ROLE_SECRET),
    (keystore.SCHEME_SCHNORR, keystore.ROLE_PUBLIC),
    (keystore.SCHEME_ETA, keystore.ROLE_STATE),
    (keystore.SCHEME_ETA, keystore.ROLE_PUBLIC),
    (keystore.SCHEME_SEMECS, keystore.ROLE_STATE),
    (keystore.SCHEME_SEMECS, keystore.ROLE_PUBLIC),
]


@st.composite
def _records(draw):
    params = draw(GROUPS)
    K = draw(st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)))
    L, elen = params.scalar_len, params.element_len
    # the payload sizes each converter accepts, so that decoding is reached
    shapes = [n for n in (L, 2 * L, elen, elen + K * L, elen + 2 * K * L) if n < 300]
    size = draw(st.one_of(st.integers(0, 80), st.sampled_from(shapes)))
    # raw octets, or canonical scalars (every group here has elen == L)
    raw = st.binary(min_size=size, max_size=size)
    scalar = st.integers(0, params.q - 1).map(lambda v: v.to_bytes(L, "big"))
    canonical = st.lists(scalar, min_size=size // L, max_size=size // L).map(b"".join)
    any_kind = st.tuples(
        st.sampled_from(sorted(keystore.SCHEME_NAMES)),
        st.sampled_from(sorted(keystore.ROLE_NAMES)),
    )
    scheme, role = draw(st.one_of(st.sampled_from(_KINDS), any_kind))
    return keystore.SignerStateRecord(
        scheme_tag=scheme,
        group_id=keystore.group_id_for(params),
        role=role,
        params=params,
        j=draw(st.integers(0, K)),
        K=K,
        payload=draw(st.one_of(raw, canonical) if size % L == 0 else raw),
    )


@PROPERTY
@given(_records())
def test_from_record_converters_on_arbitrary_records(record):
    for convert in _FROM_RECORD:
        try:
            convert(record)
        except CorruptState:
            pass
