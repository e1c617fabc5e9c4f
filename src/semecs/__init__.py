"""Multiple-time digital-signature toolkit: Schnorr, ETA and SEMECS.

SEMECS signs with two derivation hashes, one hash of the message, one modular
multiplication and one modular subtraction -- no group operation at all -- at
the price of a public key linear in the signature capacity K.  See the README
for the design tour.
"""

from .bench import (
    AVR_ATMEGA2560,
    NRF24L01,
    PROFILES,
    BenchRecord,
    EnergyProfile,
    derive_profile,
    energy_compute,
    run_bench,
)
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
