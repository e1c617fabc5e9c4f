import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from semecs import eta, keystore
from semecs.bench import CSV_COLUMNS
from semecs.cli import main
from semecs.eta import EtaSignature
from semecs.group import PRODUCTION_GROUP
from semecs.schnorr import SchnorrKeyPair


@pytest.fixture
def msgfile(tmp_path):
    path = tmp_path / "message.bin"
    path.write_bytes(b"the quick brown fox jumps over the lazy dog, twice over")
    return path


def _keygen(tmp_path, scheme="semecs", group="toy", K=4):
    prefix = tmp_path / "key"
    argv = ["keygen", "--scheme", scheme, "--group", group, "--out-prefix", str(prefix)]
    if K is not None:
        argv += ["-K", str(K)]
    assert main(argv) == 0
    return prefix


# --- keygen ----------------------------------------------------------------

def test_keygen_writes_both_files(tmp_path, capsys):
    prefix = _keygen(tmp_path, K=8)
    assert (tmp_path / "key.sk").exists() and (tmp_path / "key.pk").exists()
    err = capsys.readouterr().err
    assert "K: 8" in err and "wall time" in err
    record = keystore.load_state(str(prefix) + ".pk")
    # pk payload = Y plus K (gamma, beta) pairs = 17 scalar widths at K=8
    L = record.params.scalar_len
    assert len(record.payload) == (2 * 8 + 1) * L


def test_keygen_usage_errors(tmp_path, capsys):
    assert main(["keygen", "--scheme", "schnorr", "-K", "5",
                 "--out-prefix", str(tmp_path / "x")]) == 2
    assert main(["keygen", "--scheme", "semecs",
                 "--out-prefix", str(tmp_path / "x")]) == 2
    assert main(["keygen", "--scheme", "eta",
                 "--out-prefix", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_keygen_schnorr_without_k(tmp_path):
    prefix = tmp_path / "schnorr"
    assert main(["keygen", "--scheme", "schnorr", "--group", "toy",
                 "--out-prefix", str(prefix)]) == 0
    record = keystore.load_state(str(prefix) + ".sk")
    assert record.scheme_tag == keystore.SCHEME_SCHNORR


def test_semecs_home_supplies_default_prefix(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMECS_HOME", str(tmp_path))
    assert main(["keygen", "--scheme", "semecs", "--group", "toy", "-K", "2"]) == 0
    assert (tmp_path / "key.sk").exists()
    monkeypatch.delenv("SEMECS_HOME")
    assert main(["keygen", "--scheme", "semecs", "--group", "toy", "-K", "2"]) == 2


# --- sign / verify ----------------------------------------------------------

@pytest.mark.parametrize("scheme,K", [("schnorr", None), ("eta", 3), ("semecs", 3)])
def test_sign_verify_round_trip(tmp_path, msgfile, capsysbinary, scheme, K):
    prefix = _keygen(tmp_path, scheme=scheme, K=K)
    env = tmp_path / "m.env"
    assert main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile),
                 "--out", str(env)]) == 0
    capsysbinary.readouterr()
    assert main(["verify", "--pk", f"{prefix}.pk", "--env", str(env)]) == 0
    out = capsysbinary.readouterr().out
    assert out == msgfile.read_bytes()  # stdout carries exactly the message


def test_verify_rejects_bit_flip(tmp_path, msgfile, capsys):
    prefix = _keygen(tmp_path)
    env = tmp_path / "m.env"
    main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile), "--out", str(env)])
    blob = bytearray(env.read_bytes())
    blob[10] ^= 0x01
    env.write_bytes(bytes(blob))
    assert main(["verify", "--pk", f"{prefix}.pk", "--env", str(env)]) == 1
    capsys.readouterr()


def test_verify_malformed_envelope_is_usage_error(tmp_path, msgfile, capsys):
    prefix = _keygen(tmp_path)
    env = tmp_path / "m.env"
    main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile), "--out", str(env)])
    env.write_bytes(env.read_bytes()[:3])
    assert main(["verify", "--pk", f"{prefix}.pk", "--env", str(env)]) == 2
    capsys.readouterr()


def test_verify_no_index_agrees(tmp_path, msgfile, capsysbinary):
    prefix = _keygen(tmp_path)
    env = tmp_path / "m.env"
    main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile), "--out", str(env)])
    capsysbinary.readouterr()
    assert main(["verify", "--pk", f"{prefix}.pk", "--env", str(env),
                 "--no-index"]) == 0
    assert capsysbinary.readouterr().out == msgfile.read_bytes()


def test_no_index_flag_rejected_for_schnorr(tmp_path, msgfile, capsys):
    prefix = _keygen(tmp_path, scheme="schnorr", K=None)
    env = tmp_path / "m.env"
    main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile), "--out", str(env)])
    assert main(["verify", "--pk", f"{prefix}.pk", "--env", str(env),
                 "--no-index"]) == 2
    capsys.readouterr()


def test_exhaustion_is_a_state_error(tmp_path, msgfile, capsys):
    prefix = _keygen(tmp_path, K=2)
    for i in range(2):
        assert main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile),
                     "--out", str(tmp_path / f"m{i}.env")]) == 0
    assert main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile),
                 "--out", str(tmp_path / "m2.env")]) == 3
    assert "2" in capsys.readouterr().err  # message names the K limit
    assert not (tmp_path / "m2.env").exists()


def test_repeat_signing_uses_fresh_indices(tmp_path, msgfile, capsys):
    prefix = _keygen(tmp_path, K=3)
    envs = []
    for i in range(2):
        out = tmp_path / f"m{i}.env"
        main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile),
              "--out", str(out)])
        envs.append(out.read_bytes())
    assert envs[0] != envs[1]
    assert envs[0][1:5] == (0).to_bytes(4, "big")
    assert envs[1][1:5] == (1).to_bytes(4, "big")
    capsys.readouterr()


def test_sign_reports_overhead(tmp_path, msgfile, capsys):
    prefix = _keygen(tmp_path, K=2)
    main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile),
          "--out", str(tmp_path / "m.env")])
    err = capsys.readouterr().err
    assert "index: 0" in err and "overhead" in err


# --- inspect -----------------------------------------------------------------

def test_inspect_shows_metadata_only(tmp_path, capsys):
    prefix = _keygen(tmp_path, K=2)
    record = keystore.load_state(f"{prefix}.sk")
    assert main(["inspect", f"{prefix}.sk"]) == 0
    out = capsys.readouterr().out
    assert "scheme: semecs" in out and "role: state" in out
    assert "j: 0" in out and "K: 2" in out
    assert record.payload.hex() not in out  # never the secret itself


def test_sign_with_zero_secret_is_a_state_error(tmp_path, msgfile, capsys,
                                                zero_secret_record):
    sk = tmp_path / "zero.sk"
    keystore.save_state(sk, zero_secret_record)
    env = tmp_path / "m.env"
    assert main(["sign", "--sk", str(sk), "--in", str(msgfile), "--out", str(env)]) == 3
    assert not env.exists()
    assert "secret scalar is zero" in capsys.readouterr().err


def _retag(record_bytes: bytes, scheme_tag: int) -> bytes:
    body = bytearray(record_bytes[:-32])
    body[5] = scheme_tag  # a valid integrity tag over the wrong scheme
    return bytes(body) + hashlib.blake2s(bytes(body)).digest()


@pytest.mark.parametrize("scheme,K", [("schnorr", None), ("eta", 3), ("semecs", 3)])
def test_corrupted_files_are_usage_or_state_errors(tmp_path, msgfile, capsys, scheme, K):
    prefix = _keygen(tmp_path, scheme=scheme, K=K)
    sk, pk, env = Path(f"{prefix}.sk"), Path(f"{prefix}.pk"), tmp_path / "m.env"
    assert main(["sign", "--sk", str(sk), "--in", str(msgfile), "--out", str(env)]) == 0
    other = {"schnorr": keystore.SCHEME_ETA, "eta": keystore.SCHEME_SEMECS,
             "semecs": keystore.SCHEME_SCHNORR}[scheme]
    for path in (sk, pk, env):
        data = path.read_bytes()
        if path is env:  # header damage; a flip inside the signature is exit 1
            corrupted = (data[:5], bytes([data[0] ^ 0x80]) + data[1:], b"\x02" + data[1:])
        else:
            mid = len(data) // 2
            flipped = data[:mid] + bytes([data[mid] ^ 0x10]) + data[mid + 1 :]
            corrupted = (data[:mid], flipped, _retag(data, other))
        for blob in corrupted:
            path.write_bytes(blob)
            if path is sk:
                argv = ["sign", "--sk", str(sk), "--in", str(msgfile),
                        "--out", str(tmp_path / "x.env")]
            else:
                argv = ["verify", "--pk", str(pk), "--env", str(env)]
            assert main(argv) in (2, 3), (path.name, blob[:8])
        path.write_bytes(data)
    capsys.readouterr()


def test_sign_past_the_index_field_is_a_state_error(tmp_path, msgfile, capsys,
                                                   large_k_record):
    sk = tmp_path / "large.sk"
    keystore.save_state(sk, large_k_record)
    env = tmp_path / "m.env"
    assert main(["sign", "--sk", str(sk), "--in", str(msgfile), "--out", str(env)]) == 3
    assert not env.exists()
    assert keystore.load_state(sk).j == large_k_record.j
    assert "Traceback" not in capsys.readouterr().err


def test_verify_with_capacity_zero_key_is_a_usage_error(tmp_path, capsys):
    kp = SchnorrKeyPair.from_private(PRODUCTION_GROUP, 9)
    pk = tmp_path / "zero.pk"
    record = keystore.record_from_schnorr_public(PRODUCTION_GROUP, kp.Y)
    keystore.save_state(pk, replace(record, scheme_tag=keystore.SCHEME_ETA))
    # a well-formed ETA envelope for index 0, which a K = 0 key does not have
    env = tmp_path / "m.env"
    sig = EtaSignature(s=1, x=bytes(eta.X_LEN), j=0)
    env.write_bytes(eta.encode_signed_message(PRODUCTION_GROUP, sig, b"message"))
    assert main(["verify", "--pk", str(pk), "--env", str(env)]) == 2
    assert "capacity" in capsys.readouterr().err


def test_inspect_corrupt_file(tmp_path, capsys):
    path = tmp_path / "junk.sk"
    path.write_bytes(b"not a key file")
    assert main(["inspect", str(path)]) == 3
    capsys.readouterr()


# --- bench / energy-report -----------------------------------------------------

def test_bench_csv_and_energy_report(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--scheme", "semecs", "--group", "toy",
                 "--iters", "5", "-K", "4", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # header + keygen/sign/verify
    assert lines[0].startswith("scheme,operation,iters,median_ns")

    out_csv = tmp_path / "energy.csv"
    assert main(["energy-report", "--profile", "avr-atmega2560",
                 "--from", str(csv_path), "--csv", str(out_csv)]) == 0
    rows = out_csv.read_text().strip().splitlines()
    assert len(rows) == 4
    assert not rows[1].endswith(",,")  # energy columns are filled
    capsys.readouterr()


def test_bench_iters_zero_is_usage_error(capsys):
    assert main(["bench", "--scheme", "semecs", "--group", "toy",
                 "--iters", "0"]) == 2
    capsys.readouterr()


_BAD_CSVS = {
    "columns.csv": b"a,b\r\n1,2\r\n",
    "number.csv": (",".join(CSV_COLUMNS) + "\r\nsemecs,sign,five,1,1,1,0,0,38,,\r\n").encode(),
    "utf8.csv": (",".join(CSV_COLUMNS) + "\r\nsemecs,sign,\xff\xfe,").encode("latin-1"),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen", "--scheme", "semecs", "-K", "0"],
        ["keygen", "--scheme", "eta", "-K", "-3"],
        ["keygen", "--scheme", "semecs", "--group", "toy", "-K", "4294967296"],
        ["bench", "--scheme", "semecs", "--iters", "2", "-K", "0"],
        ["energy-report", "--profile", "avr-atmega2560", "--cycles", "-1"],
        ["energy-report", "--profile", "nrf24l01", "--cycles", "5"],
        ["energy-report", "--profile", "avr-atmega2560", "--cycles", "5", "--bits", "-8"],
        *(["energy-report", "--profile", "avr-atmega2560", "--from", name]
          for name in _BAD_CSVS),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[3:]),
)
def test_bad_numbers_and_bench_csvs_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SEMECS_HOME", str(tmp_path))
    for name, data in _BAD_CSVS.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: ")
    assert not (tmp_path / "key.sk").exists()


def test_energy_report_direct_cycles(capsys):
    assert main(["energy-report", "--profile", "avr-atmega2560",
                 "--cycles", "195776", "--bits", "256"]) == 0
    out = capsys.readouterr().out
    assert "compute_mJ: 1.2236" in out
    assert "comm_uJ: 4.7744" in out


def test_energy_report_unknown_profile(capsys):
    assert main(["energy-report", "--profile", "cray-1", "--cycles", "5"]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["keygen", "--scheme", "semecs", "--group", "toy", "-K", "2",
                 "--frobnicate"]) == 2
    capsys.readouterr()


# --- production group spot check ------------------------------------------------

def test_production_keygen_and_overhead(tmp_path, msgfile, capsys):
    prefix = tmp_path / "prod"
    assert main(["keygen", "--scheme", "semecs", "--group", "prod", "-K", "2",
                 "--out-prefix", str(prefix)]) == 0
    env = tmp_path / "m.env"
    assert main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile),
                 "--out", str(env)]) == 0
    err = capsys.readouterr().err
    assert "overhead: 38 octets" in err  # 32 + 6-octet header
    record = keystore.load_state(f"{prefix}.pk")
    assert record.params == PRODUCTION_GROUP
    assert len(record.payload) == (2 * 2 + 1) * 32
