"""Timing harness and the embedded-device energy model.

Wall time is measured per call (median / p10 / p90 over warm iterations,
warmup discarded) together with exact group-operation counts, which carry the
structural claims: SEMECS signing performs zero group operations, Schnorr
signing one exponentiation, every verification one double exponentiation.

The energy model converts work into joules via E = V * I * t.  Reference
constants for the 8-bit AVR ATmega2560 (5 V, 20 mA, 16 MHz -> 6.25 nJ/cycle)
and the nRF24L01 transceiver (3.3 V, 11.3 mA, 2 Mbps -> 18.65 nJ/bit) are
built in.  Cycle counts measured on that hardware reproduce the reference
energy figures exactly; wall times measured here yield platform-specific
estimates instead.

CSV schema v1 (also mirrored to JSON): one column per ``BenchRecord`` field,
in declaration order.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from typing import NamedTuple, Optional, get_type_hints

from . import eta as eta_mod
from . import schnorr as schnorr_mod
from . import semecs as semecs_mod
from .errors import MalformedEncoding
from .group import GroupParams, count_group_ops, random_scalar
from .keystore import SCHEME_NAMES

CSV_SCHEMA_VERSION = 1
SCHEMES = tuple(SCHEME_NAMES.values())
OPERATIONS = ("keygen", "sign", "verify")


# ---------------------------------------------------------------------------
# Energy model
# ---------------------------------------------------------------------------

class EnergyProfile(NamedTuple):
    """Electrical character of a device: E = V * I * t plus per-unit constants."""

    name: str
    volts: float
    amps: float
    nj_per_cycle: Optional[float] = None
    nj_per_bit: Optional[float] = None


def derive_profile(
    name: str,
    volts: float,
    amps: float,
    clock_hz: Optional[float] = None,
    bitrate: Optional[float] = None,
) -> EnergyProfile:
    """Profile from electrical parameters: nJ/cycle = V*I/f * 1e9, likewise per bit."""
    if volts <= 0 or amps <= 0:
        raise ValueError("volts and amps must be positive")
    nj_per_cycle = volts * amps / clock_hz * 1e9 if clock_hz else None
    nj_per_bit = volts * amps / bitrate * 1e9 if bitrate else None
    return EnergyProfile(name, volts, amps, nj_per_cycle, nj_per_bit)


#: 8-bit AVR ATmega2560 measured at 5 V / 20 mA / 16 MHz; transmission via the
#: nRF24L01 radio.  Constants pinned to the reference figures (6.25 nJ/cycle,
#: 18.65 nJ/bit).
AVR_ATMEGA2560 = EnergyProfile(
    name="avr-atmega2560",
    volts=5.0,
    amps=0.020,
    nj_per_cycle=6.25,
    nj_per_bit=18.65,
)

#: nRF24L01 2.4 GHz transceiver: 3.3 V, 11.3 mA, 2 Mbps (radio only).
NRF24L01 = derive_profile("nrf24l01", volts=3.3, amps=0.0113, bitrate=2e6)

PROFILES = {p.name: p for p in (AVR_ATMEGA2560, NRF24L01)}


def energy_compute(
    profile: EnergyProfile,
    cycles: Optional[float] = None,
    seconds: Optional[float] = None,
    bits_tx: float = 0.0,
) -> tuple[float, float]:
    """(computation mJ, communication uJ) for the given work.

    Exactly one of ``cycles`` (uses the per-cycle constant) or ``seconds``
    (uses E = V * I * t directly) selects the computation input; it and
    ``bits_tx`` must be finite and non-negative.
    """
    if (cycles is None) == (seconds is None):
        raise ValueError("supply exactly one of cycles or seconds")
    work = seconds if cycles is None else cycles
    if not (math.isfinite(work) and work >= 0):
        raise ValueError("work must be finite and non-negative")
    if not (math.isfinite(bits_tx) and bits_tx >= 0):
        raise ValueError("bits_tx must be finite and non-negative")
    if cycles is not None:
        if profile.nj_per_cycle is None:
            raise ValueError(f"profile {profile.name!r} has no per-cycle constant")
        compute_mj = cycles * profile.nj_per_cycle * 1e-6
    else:
        compute_mj = profile.volts * profile.amps * seconds * 1e3
    if bits_tx:
        if profile.nj_per_bit is None:
            raise ValueError(f"profile {profile.name!r} has no per-bit constant")
        comm_uj = bits_tx * profile.nj_per_bit * 1e-3
    else:
        comm_uj = 0.0
    return compute_mj, comm_uj


# ---------------------------------------------------------------------------
# Benchmark records
# ---------------------------------------------------------------------------

class BenchRecord(NamedTuple):
    scheme: str
    operation: str
    iters: int
    median_ns: float
    p10_ns: float
    p90_ns: float
    exp_ops: float  # per iteration
    double_exp_ops: float  # per iteration
    tx_bytes: int
    compute_mJ: Optional[float] = None
    comm_uJ: Optional[float] = None


CSV_COLUMNS = BenchRecord._fields


def _percentile(sorted_values, fraction: float) -> float:
    idx = min(len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1))))
    return float(sorted_values[idx])


def run_bench(
    scheme: str,
    operation: str,
    params: GroupParams,
    iterations: int,
    K: int = 16,
    rng=None,
) -> BenchRecord:
    """Time one (scheme, operation) combination and count its group ops.

    Each scheme's key and one signature are made first: the signature's
    encoding gives ``tx_bytes``, verify benchmarks re-verify it, and the
    K-time keys have capacity warmup + iterations + 1 so signing state
    advances honestly.
    """
    if scheme not in SCHEMES or operation not in OPERATIONS:
        raise ValueError(f"no benchmark for {scheme}/{operation}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    warmup = min(32, iterations)

    # 64 octets: longer than any group's scalar, so no envelope pads it
    message = b"bench message payload: " + b"\xa5" * 41
    total = warmup + iterations

    if scheme == "schnorr":
        kp = schnorr_mod.schnorr_keygen(params, rng)
        sig = schnorr_mod.schnorr_sign(kp, message, rng)
        blob = schnorr_mod.encode_signed_message(params, sig, message)
        work = {
            "keygen": lambda: schnorr_mod.schnorr_keygen(params, rng),
            "sign": lambda: schnorr_mod.schnorr_sign(kp, message, rng),
            "verify": lambda: schnorr_mod.schnorr_verify(params, kp.Y, message, sig),
        }[operation]
    elif scheme == "eta":
        state, pk = eta_mod.eta_keygen(params, total + 1, rng)
        sig = eta_mod.eta_sign(state, message, rng)
        blob = eta_mod.encode_signed_message(params, sig, message)
        work = {
            "keygen": lambda: eta_mod.eta_keygen(params, K, rng),
            "sign": lambda: eta_mod.eta_sign(state, message, rng),
            "verify": lambda: eta_mod.eta_verify(pk, message, sig),
        }[operation]
    else:
        state, pk = semecs_mod.semecs_keygen_from_secret(
            params, total + 1, random_scalar(params, rng)
        )
        env = semecs_mod.semecs_sign(state, message)
        blob = env.to_bytes(params)
        work = {
            "keygen": lambda: semecs_mod.semecs_keygen_from_secret(
                params, K, random_scalar(params, rng)
            ),
            "sign": lambda: semecs_mod.semecs_sign(state, message),
            "verify": lambda: semecs_mod.semecs_verify_indexed(pk, env),
        }[operation]
    tx_bytes = 0 if operation == "keygen" else len(blob) - len(message)

    for _ in range(warmup):
        work()

    samples = []
    with count_group_ops() as counter:
        for _ in range(iterations):
            t0 = time.perf_counter_ns()
            work()
            samples.append(time.perf_counter_ns() - t0)

    samples.sort()
    return BenchRecord(
        scheme=scheme,
        operation=operation,
        iters=iterations,
        median_ns=float(statistics.median(samples)),
        p10_ns=_percentile(samples, 0.10),
        p90_ns=_percentile(samples, 0.90),
        exp_ops=counter.exp_count / iterations,
        double_exp_ops=counter.double_exp_count / iterations,
        tx_bytes=tx_bytes,
    )


def apply_energy(records, profile: EnergyProfile):
    """Fill the energy columns from measured wall time and transmitted bytes."""
    out = []
    for rec in records:
        compute_mj, comm_uj = energy_compute(
            profile, seconds=rec.median_ns * 1e-9, bits_tx=rec.tx_bytes * 8
        )
        out.append(rec._replace(compute_mJ=compute_mj, comm_uJ=comm_uj))
    return out


# ---------------------------------------------------------------------------
# CSV / JSON emission
# ---------------------------------------------------------------------------

def write_csv(records, stream) -> None:
    """One row per record; csv writes None as an empty field and floats by repr."""
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rec._asdict() for rec in records)


def _optional_float(text: str) -> Optional[float]:
    return float(text) if text else None


_PARSERS = {str: str, int: int, float: float, Optional[float]: _optional_float}
_COLUMN_PARSERS = tuple(
    (name, _PARSERS[hint]) for name, hint in get_type_hints(BenchRecord).items()
)


def read_csv(stream) -> list[BenchRecord]:
    """Records from a ``write_csv`` stream; any other text is ``MalformedEncoding``."""
    try:
        return [
            BenchRecord(**{name: parse(row[name]) for name, parse in _COLUMN_PARSERS})
            for row in csv.DictReader(stream)
        ]
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise MalformedEncoding(f"malformed bench CSV: {exc!r}") from exc


def to_json(records) -> str:
    payload = {
        "schema_version": CSV_SCHEMA_VERSION,
        "records": [rec._asdict() for rec in records],
    }
    return json.dumps(payload, indent=2)
