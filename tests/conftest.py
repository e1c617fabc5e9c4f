import random

import pytest

from semecs import keystore
from semecs.group import PRODUCTION_GROUP, TOY_GROUP, generate_toy_group


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture(scope="session")
def big_toy():
    # q = 524351, p = 1048703: large enough that beta tokens rarely collide,
    # small enough for the exhaustive oracles
    return generate_toy_group(1 << 19)


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
        scheme, keystore.GROUP_PRODUCTION, role, PRODUCTION_GROUP, 0, K, payload
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
        scheme, keystore.GROUP_PRODUCTION, keystore.ROLE_STATE, PRODUCTION_GROUP,
        1 << 32, 1 << 33, payload,
    )
