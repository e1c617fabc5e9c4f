"""Multiple-time digital-signature toolkit: Schnorr, ETA and SEMECS.

SEMECS signs with two derivation hashes, one hash of the message, one modular
multiplication and one modular subtraction -- no group operation at all -- at
the price of a public key linear in the signature capacity K.  See the README
for the design tour.
"""

from .errors import (
    CorruptState,
    DuplicateBeta,
    EmptyMessage,
    IoFailure,
    KeyExhausted,
    MalformedEncoding,
    NotExtractable,
    RngFailure,
    SemecsError,
    StaleState,
    StatePersistFailure,
)
from .eta import (
    EtaPublicKey,
    EtaSignature,
    EtaSigningState,
    eta_keygen,
    eta_keygen_from_secrets,
    eta_sign,
    eta_verify,
)
from .fdh import Fdh, fdh_pair
from .group import (
    BIG_TOY_GROUP,
    PRODUCTION_GROUP,
    TOY_GROUP,
    GroupParams,
    OpCounter,
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
from .keystore import (
    SignerStateRecord,
    advance_counter,
    load_state,
    open_semecs_signer,
    open_signer,
    save_state,
)
from .schnorr import (
    SchnorrKeyPair,
    SchnorrSignature,
    schnorr_keygen,
    schnorr_sign,
    schnorr_verify,
)
from .semecs import (
    SearchIndex,
    SemecsPublicKey,
    SemecsSigningState,
    SignedEnvelope,
    build_search_index,
    envelope_challenge,
    extract_private_key,
    join_message,
    semecs_keygen,
    semecs_keygen_from_secret,
    semecs_sign,
    semecs_verify_indexed,
    semecs_verify_search,
    split_message,
)

__version__ = "1.0.0"

# ``bench`` pulls in statistics, csv and json, which no sign or verify uses;
# it loads the first time one of its names is read (PEP 562).
_BENCH_NAMES = frozenset({
    "AVR_ATMEGA2560", "NRF24L01", "PROFILES", "BenchRecord", "EnergyProfile",
    "derive_profile", "energy_compute", "run_bench",
})


def __getattr__(name):
    if name not in _BENCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bench

    return getattr(bench, name)
