import io

import pytest

from semecs.bench import (
    AVR_ATMEGA2560,
    CSV_COLUMNS,
    NRF24L01,
    PROFILES,
    apply_energy,
    derive_profile,
    energy_compute,
    read_csv,
    run_bench,
    to_json,
    write_csv,
)
from semecs.errors import UnsupportedCombo
from semecs.group import PRODUCTION_GROUP, TOY_GROUP


# --- energy model -------------------------------------------------------------

def test_derive_profile_reference_constants():
    avr = derive_profile("avr", volts=5.0, amps=0.020, clock_hz=16e6)
    assert avr.nj_per_cycle == pytest.approx(6.25, rel=1e-3)
    radio = derive_profile("radio", volts=3.3, amps=0.0113, bitrate=2e6)
    assert radio.nj_per_bit == pytest.approx(18.65, rel=1e-3)


def test_derive_profile_scales_linearly():
    slow = derive_profile("a", volts=5.0, amps=0.020, clock_hz=16e6)
    fast = derive_profile("b", volts=5.0, amps=0.020, clock_hz=32e6)
    assert fast.nj_per_cycle == pytest.approx(slow.nj_per_cycle / 2)


def test_energy_compute_reference_row():
    # 195,776 cycles -> 1.22 mJ and 256 bits -> 4.77 uJ on the AVR profile
    compute_mj, comm_uj = energy_compute(AVR_ATMEGA2560, cycles=195_776, bits_tx=256)
    assert compute_mj == pytest.approx(1.22, rel=0.01)
    assert comm_uj == pytest.approx(4.77, rel=0.01)
    assert compute_mj == pytest.approx(1.2236, rel=1e-6)  # exact model arithmetic
    assert comm_uj == pytest.approx(4.7744, rel=1e-6)


def test_energy_compute_cross_check_rows():
    assert energy_compute(AVR_ATMEGA2560, cycles=48_188_992)[0] == pytest.approx(
        301.18, rel=0.01
    )
    assert energy_compute(AVR_ATMEGA2560, cycles=23_211_611)[0] == pytest.approx(
        145.07, rel=0.01
    )


def test_energy_compute_zero_work():
    assert energy_compute(AVR_ATMEGA2560, cycles=0, bits_tx=0) == (0.0, 0.0)


def test_energy_compute_from_wall_time():
    # E = V * I * t: 1 second at 5 V / 20 mA is 100 mJ
    compute_mj, _ = energy_compute(AVR_ATMEGA2560, seconds=1.0)
    assert compute_mj == pytest.approx(100.0)


def test_energy_compute_input_validation():
    with pytest.raises(ValueError):
        energy_compute(AVR_ATMEGA2560)
    with pytest.raises(ValueError):
        energy_compute(AVR_ATMEGA2560, cycles=1, seconds=1)
    with pytest.raises(ValueError):
        energy_compute(AVR_ATMEGA2560, cycles=-1)
    with pytest.raises(ValueError):
        energy_compute(NRF24L01, cycles=100)  # radio has no per-cycle constant


def test_builtin_profiles_present():
    assert set(PROFILES) == {"avr-atmega2560", "nrf24l01"}
    assert AVR_ATMEGA2560.nj_per_cycle == 6.25
    assert AVR_ATMEGA2560.nj_per_bit == 18.65


# --- harness -------------------------------------------------------------------

PROFILES_SCHEMES = ("schnorr", "eta", "semecs")


def test_semecs_sign_bench_counts_zero_group_ops():
    rec = run_bench("semecs", "sign", TOY_GROUP, iterations=50, warmup=4)
    assert rec.exp_ops == 0.0 and rec.double_exp_ops == 0.0
    assert rec.iters == 50
    assert rec.median_ns > 0
    assert rec.p10_ns <= rec.median_ns <= rec.p90_ns


def test_schnorr_sign_bench_counts_one_exp():
    rec = run_bench("schnorr", "sign", TOY_GROUP, iterations=20)
    assert rec.exp_ops == 1.0 and rec.double_exp_ops == 0.0


@pytest.mark.parametrize("scheme", ["schnorr", "eta", "semecs"])
def test_verify_bench_counts_one_double_exp(scheme):
    rec = run_bench(scheme, "verify", TOY_GROUP, iterations=20)
    assert rec.double_exp_ops == 1.0 and rec.exp_ops == 0.0


def test_unsupported_combo():
    with pytest.raises(UnsupportedCombo):
        run_bench("rsa", "sign", TOY_GROUP, iterations=1)
    with pytest.raises(UnsupportedCombo):
        run_bench("semecs", "decrypt", TOY_GROUP, iterations=1)
    with pytest.raises(ValueError):
        run_bench("semecs", "sign", TOY_GROUP, iterations=0)


@pytest.mark.parametrize("group", [TOY_GROUP, PRODUCTION_GROUP], ids=["toy", "prod"])
def test_tx_bytes_follow_signature_overhead(group):
    sign = {s: run_bench(s, "sign", group, iterations=5) for s in PROFILES_SCHEMES}
    L = group.scalar_len
    assert sign["schnorr"].tx_bytes == 1 + 2 * L
    assert sign["eta"].tx_bytes == 1 + 4 + L + 16
    assert sign["semecs"].tx_bytes == 6 + L


def test_keygen_bench_counts_k_plus_one_exps():
    from semecs.group import generate_toy_group

    keygen = run_bench(
        "semecs", "keygen", generate_toy_group(1 << 16), iterations=2, K=4
    )
    assert keygen.tx_bytes == 0
    assert keygen.exp_ops == 5.0  # K commitments plus Y


# --- emission -------------------------------------------------------------------

def _sample_records():
    return [
        run_bench("semecs", "sign", TOY_GROUP, iterations=10),
        run_bench("semecs", "verify", TOY_GROUP, iterations=10),
    ]


def test_csv_round_trip():
    records = _sample_records()
    stream = io.StringIO()
    write_csv(records, stream)
    stream.seek(0)
    header = stream.readline().strip().split(",")
    assert tuple(header) == CSV_COLUMNS
    stream.seek(0)
    assert read_csv(stream) == records
    filled = apply_energy(records, AVR_ATMEGA2560)
    stream = io.StringIO()
    write_csv(filled, stream)
    stream.seek(0)
    assert read_csv(stream) == filled


def test_apply_energy_fills_columns_and_orders_comm():
    records = apply_energy(_sample_records(), AVR_ATMEGA2560)
    for rec in records:
        assert rec.compute_mJ is not None and rec.compute_mJ > 0
        assert rec.comm_uJ == pytest.approx(rec.tx_bytes * 8 * 18.65 * 1e-3)
    by_bytes = sorted(records, key=lambda r: r.tx_bytes)
    by_energy = sorted(records, key=lambda r: r.comm_uJ)
    assert by_bytes == by_energy  # communication energy monotone in bits


def test_json_mirror():
    import json

    payload = json.loads(to_json(_sample_records()))
    assert payload["schema_version"] == 1
    assert len(payload["records"]) == 2
    assert set(payload["records"][0]) == set(CSV_COLUMNS)
