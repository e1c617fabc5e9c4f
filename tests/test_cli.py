import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import semecs
from semecs import bench, cli, eta, keystore
from semecs import semecs as semecs_mod
from semecs.bench import CSV_COLUMNS, read_csv
from semecs.cli import main
from semecs.eta import EtaSignature
from semecs.group import PRODUCTION_GROUP, TOY_GROUP
from semecs.schnorr import SchnorrKeyPair
from semecs.semecs import semecs_keygen_from_secret, semecs_sign

from conftest import assert_reaped, fail_keygen_ranges
from faults import ADVANCE_FAULTS, fails_on_call


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


@pytest.mark.parametrize("scheme", ["semecs", "eta"])
def test_failed_keygen_worker_is_a_state_error_and_writes_no_key(
    tmp_path, capsys, cores, forks, monkeypatch, scheme
):
    cores(2)
    fail_keygen_ranges(monkeypatch, in_child=True, exc=MemoryError())
    K = 2 * semecs_mod._MIN_INDICES_PER_WORKER
    assert main(["keygen", "--scheme", scheme, "--group", "toy", "-K", str(K),
                 "--out-prefix", str(tmp_path / "key")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    assert len(forks) == 1
    assert_reaped(forks)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen", "--scheme", "schnorr", "-K", "5", "--out-prefix", "x"],
        ["keygen", "--scheme", "semecs", "--out-prefix", "x"],
        ["verify", "--pk", "key.pk", "--env", "m.env", "--no-index"],
        ["bench", "--iters", "0"],
        ["energy-report", "--profile", "avr-atmega2560", "--from", "b.csv", "--bits", "1"],
        ["energy-report", "--profile", "cray-1", "--cycles", "5"],
        ["sign", "--in", "message.bin", "--out", "m.env"],
    ],
    ids=" ".join,
)
def test_usage_errors_name_the_subcommand(tmp_path, monkeypatch, capsys, msgfile, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SEMECS_HOME", raising=False)
    _keygen(tmp_path, scheme="schnorr", K=None)
    assert main(["sign", "--sk", "key.sk", "--in", "message.bin", "--out", "m.env"]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: semecs {argv[0]} ")
    assert lines[-1].startswith(f"semecs {argv[0]}: error: ")


_KEY_PATH_DEFAULTS = {"keygen": "key", "sign": "key.sk", "verify": "key.pk"}


@pytest.mark.parametrize("home", [False, True], ids=["unset", "home"])
@pytest.mark.parametrize(
    "command", ["keygen", "sign", "verify", "inspect", "bench", "energy-report"]
)
def test_every_subcommand_help_exits_0(tmp_path, monkeypatch, capsys, command, home):
    if home:
        monkeypatch.setenv("SEMECS_HOME", str(tmp_path))
    else:
        monkeypatch.delenv("SEMECS_HOME", raising=False)
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: semecs {command} ")
    if home and command in _KEY_PATH_DEFAULTS:
        # argparse wraps long help lines, also at hyphens inside the path
        assert str(tmp_path / _KEY_PATH_DEFAULTS[command]) in "".join(out.split())


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


@pytest.mark.parametrize("scheme", ["eta", "semecs"])
def test_single_index_key_signs_once(tmp_path, msgfile, capsysbinary, scheme):
    prefix = _keygen(tmp_path, scheme=scheme, K=1)
    sign = ["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile), "--out"]
    assert main(sign + [str(tmp_path / "m.env")]) == 0
    capsysbinary.readouterr()
    assert main(["verify", "--pk", f"{prefix}.pk", "--env", str(tmp_path / "m.env")]) == 0
    assert capsysbinary.readouterr().out == msgfile.read_bytes()
    assert main(sign + [str(tmp_path / "m2.env")]) == 3
    assert not (tmp_path / "m2.env").exists()


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


def test_no_index_on_colliding_tokens_is_a_usage_error(tmp_path, capsysbinary):
    # q = 11 leaves one-octet betas, so 16 of them must collide
    state, pk = semecs_keygen_from_secret(TOY_GROUP, 16, y=3)
    pk_path, env = tmp_path / "toy.pk", tmp_path / "m.env"
    keystore.save_state(pk_path, keystore.record_from_semecs_public(pk))
    env.write_bytes(semecs_sign(state, b"colliding").to_bytes(TOY_GROUP))
    argv = ["verify", "--pk", str(pk_path), "--env", str(env)]
    assert main(argv + ["--no-index"]) == 2
    assert b"colliding tokens" in capsysbinary.readouterr().err
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == b"colliding"


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


@pytest.mark.parametrize("call", list(ADVANCE_FAULTS))
@pytest.mark.parametrize("scheme", ["eta", "semecs"])
def test_sign_fails_closed_on_each_advance_fault(tmp_path, msgfile, capsys, scheme, call):
    prefix = _keygen(tmp_path, scheme=scheme, K=3)
    env = tmp_path / "m.env"
    argv = ["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile), "--out", str(env)]
    target, name, real, n, on_disk_j = ADVANCE_FAULTS[call]
    advance = keystore.advance_counter

    def faulty_advance(*args, **kwargs):
        # only inside the advance: the CLI's own reads must not take the fault
        with mock.patch.object(target, name, side_effect=fails_on_call(real, n)):
            return advance(*args, **kwargs)

    with mock.patch.object(keystore, "advance_counter", faulty_advance):
        assert main(argv) == 3
    assert "No space left on device" in capsys.readouterr().err  # the cause is named
    assert not env.exists()
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".smks.")]
    assert keystore.load_state(f"{prefix}.sk").j == on_disk_j
    assert main(argv) == 0
    assert f"index: {on_disk_j} of K=3" in capsys.readouterr().err
    assert main(["verify", "--pk", f"{prefix}.pk", "--env", str(env)]) == 0


def test_schnorr_sign_never_advances_a_counter(tmp_path, msgfile, capsys):
    prefix = _keygen(tmp_path, scheme="schnorr", K=None)
    sk = Path(f"{prefix}.sk")
    before = sk.read_bytes()
    with mock.patch.object(keystore, "advance_counter") as advance:
        assert main(["sign", "--sk", str(sk), "--in", str(msgfile),
                     "--out", str(tmp_path / "m.env")]) == 0
    advance.assert_not_called()
    assert sk.read_bytes() == before
    capsys.readouterr()


@pytest.mark.parametrize("scheme", ["eta", "semecs"])
def test_sign_reads_the_state_file_twice(tmp_path, msgfile, capsys, scheme):
    # once to dispatch on the scheme, once for advance_counter's compare-and-set
    prefix = _keygen(tmp_path, scheme=scheme, K=3)
    with mock.patch.object(keystore, "load_state", wraps=keystore.load_state) as load:
        assert main(["sign", "--sk", f"{prefix}.sk", "--in", str(msgfile),
                     "--out", str(tmp_path / "m.env")]) == 0
    assert load.call_count == 2
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


def test_inspect_refuses_a_group_byte_that_contradicts_the_parameters(tmp_path, capsys):
    # the integrity tag is unkeyed, so a retagged file carries a valid tag
    kp = SchnorrKeyPair.from_private(PRODUCTION_GROUP, 1)
    body = bytearray(keystore.serialize_record(keystore.record_from_schnorr_key(kp))[:-32])
    body[6] = keystore.GROUP_TOY
    path = tmp_path / "retagged.sk"
    path.write_bytes(bytes(body) + hashlib.blake2s(bytes(body)).digest())
    assert main(["inspect", str(path)]) == 3
    assert "group byte 0x1 does not match" in capsys.readouterr().err


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


def test_verify_with_capacity_zero_key_is_a_state_error(tmp_path, capsys):
    kp = SchnorrKeyPair.from_private(PRODUCTION_GROUP, 9)
    pk = tmp_path / "zero.pk"
    record = keystore.record_from_schnorr_public(PRODUCTION_GROUP, kp.Y)
    keystore.save_state(pk, record._replace(scheme_tag=keystore.SCHEME_ETA))
    # a well-formed ETA envelope for index 0, which a K = 0 key does not have
    env = tmp_path / "m.env"
    sig = EtaSignature(s=1, x=bytes(eta.X_LEN), j=0)
    env.write_bytes(eta.encode_signed_message(PRODUCTION_GROUP, sig, b"message"))
    assert main(["verify", "--pk", str(pk), "--env", str(env)]) == 3
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
    "nan.csv": (",".join(CSV_COLUMNS) + "\r\nsemecs,sign,5,nan,1,1,0,0,38,,\r\n").encode(),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen", "--scheme", "semecs", "-K", "0"],
        ["keygen", "--scheme", "eta", "-K", "-3"],
        ["keygen", "--scheme", "semecs", "--group", "toy", "-K", "4294967296"],
        ["keygen", "--scheme", "eta", "-K", "4294967296"],
        # 6000 betas below q = 524351 all differ with odds ~1e-15 per fresh key
        ["keygen", "--scheme", "semecs", "--group", "toy", "-K", "6000"],
        ["bench", "--scheme", "eta", "--iters", "2", "-K", "4294967296"],
        ["bench", "--scheme", "semecs", "--iters", "2", "-K", "0"],
        ["bench", "--scheme", "all", "--iters", "2", "-K", "0", "--csv", "out.csv"],
        ["energy-report", "--profile", "avr-atmega2560", "--cycles", "-1"],
        ["energy-report", "--profile", "nrf24l01", "--cycles", "5"],
        ["energy-report", "--profile", "avr-atmega2560", "--cycles", "5", "--bits", "-8"],
        ["energy-report", "--profile", "avr-atmega2560", "--cycles", "nan"],
        ["energy-report", "--profile", "avr-atmega2560", "--cycles", "inf"],
        ["energy-report", "--profile", "avr-atmega2560", "--cycles", "1", "--bits", "nan"],
        *(["energy-report", "--profile", "avr-atmega2560", "--from", name]
          for name in _BAD_CSVS),
    ],
    ids=" ".join,
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
    assert "benching" not in err  # bench -K is checked before any run
    assert not (tmp_path / "key.sk").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--scheme", "schnorr", "--group", "toy", "--iters", "1",
         "--csv", "missing/x.csv"],
        ["bench", "--scheme", "schnorr", "--group", "toy", "--iters", "1",
         "--json", "missing/x.json"],
        ["energy-report", "--profile", "avr-atmega2560", "--from", "missing.csv"],
        ["energy-report", "--profile", "avr-atmega2560", "--from", "good.csv",
         "--json", "missing/x.json"],
        ["sign", "--in", "missing.bin", "--out", "m.env"],
        ["sign", "--in", "message.bin", "--out", "missing/m.env"],
        ["verify", "--pk", "missing.pk", "--env", "m.env"],
        ["verify", "--env", "missing.env"],
    ],
    ids=" ".join,
)
def test_unreadable_or_unwritable_files_are_state_errors(
    tmp_path, monkeypatch, capsys, msgfile, argv
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SEMECS_HOME", str(tmp_path))
    _keygen(tmp_path)
    (tmp_path / "good.csv").write_text(
        ",".join(CSV_COLUMNS) + "\r\nsemecs,sign,5,1,1,1,0,0,38,,\r\n"
    )
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "benching" not in err  # bad bench destinations fail before any run
    assert err.splitlines()[-1].startswith("error: ")


def test_energy_report_direct_cycles(capsys):
    assert main(["energy-report", "--profile", "avr-atmega2560",
                 "--cycles", "195776", "--bits", "256"]) == 0
    out = capsys.readouterr().out
    assert "compute_mJ: 1.2236" in out
    assert "comm_uJ: 4.7744" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--from", "missing.csv", "--cycles", "100"],
        ["--from", "good.csv", "--bits", "99999"],
        [],
    ],
    ids=" ".join,
)
def test_energy_report_takes_one_source_and_bits_only_with_cycles(
    tmp_path, monkeypatch, capsys, argv
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.csv").write_text(
        ",".join(CSV_COLUMNS) + "\r\nsemecs,sign,5,1,1,1,0,0,38,,\r\n"
    )
    assert main(["energy-report", "--profile", "avr-atmega2560", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert ": error: " in captured.err.splitlines()[-1]  # argparse's "PROG: error: ..."


def test_bench_and_energy_report_json(tmp_path, capsys):
    bench_json, csv_path, energy_json = (
        tmp_path / "bench.json", tmp_path / "bench.csv", tmp_path / "energy.json"
    )
    assert main(["bench", "--scheme", "schnorr", "--group", "toy", "--iters", "2",
                 "--json", str(bench_json), "--csv", str(csv_path)]) == 0
    payload = json.loads(bench_json.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["records"]) == 3
    assert all(tuple(rec) == CSV_COLUMNS for rec in payload["records"])

    assert main(["energy-report", "--profile", "avr-atmega2560",
                 "--from", str(csv_path), "--json", str(energy_json)]) == 0
    records = json.loads(energy_json.read_text())["records"]
    assert len(records) == 3
    assert all(rec["compute_mJ"] is not None and rec["comm_uJ"] is not None
               for rec in records)
    capsys.readouterr()


def test_bench_without_destination_writes_csv_to_stdout(capsys):
    assert main(["bench", "--scheme", "schnorr", "--group", "toy", "--iters", "2"]) == 0
    records = read_csv(io.StringIO(capsys.readouterr().out))
    assert [rec.operation for rec in records] == ["keygen", "sign", "verify"]
    assert {rec.scheme for rec in records} == {"schnorr"}


def test_energy_report_unknown_profile(capsys):
    assert main(["energy-report", "--profile", "cray-1", "--cycles", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("code, expected", [("a message, not a status", 2), (None, 2), (3, 3)])
def test_a_system_exit_without_an_int_status_is_a_usage_error(tmp_path, capsys, code, expected):
    with mock.patch.object(cli, "_cmd_inspect", side_effect=SystemExit(code)):
        assert main(["inspect", str(tmp_path / "any.sk")]) == expected
    assert capsys.readouterr().out == ""


def test_only_main_maps_errors_to_exit_codes():
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(n for n in tree.body if getattr(n, "name", None) == "main")
    in_main = set(map(id, ast.walk(main_def)))
    stray = [n.lineno for n in ast.walk(tree)
             if isinstance(n, (ast.Try, getattr(ast, "TryStar", ast.Try))) and id(n) not in in_main]
    assert stray == [], f"try statements outside main at lines {stray}"


def test_importing_the_cli_loads_no_process_machinery():
    # every process the CLI starts pays for each module it imports
    code = "import sys, semecs.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert not loaded & {"mmap", "signal", "multiprocessing", "concurrent.futures"}
    # bench and its statistics/csv/json chain load only for bench and energy-report
    assert not loaded & {"semecs.bench", "statistics", "csv", "json", "decimal", "fractions"}
    # plain value types instead of dataclasses: no inspect/ast/dis chain either
    assert not loaded & {"dataclasses", "inspect"}
    # perfbench looks these up in sys.modules after importing the CLI
    wrapped = {f"semecs.{m}" for m in
               ("errors", "fdh", "group", "keystore", "semecs", "eta", "schnorr")}
    assert wrapped <= loaded


def test_importing_bench_loads_no_dataclasses():
    # EnergyProfile and BenchRecord are named tuples like every other value type
    code = "import sys, semecs.bench; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert not set(done.stdout.split()) & {"dataclasses", "inspect"}


def _choices(command, dest):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)


def test_cli_choices_match_bench():
    assert _choices("keygen", "scheme") == bench.SCHEMES == ("schnorr", "eta", "semecs")
    assert _choices("bench", "scheme") == (*bench.SCHEMES, "all")
    assert _choices("energy-report", "profile") == tuple(sorted(bench.PROFILES))


@pytest.mark.parametrize("name", ["AVR_ATMEGA2560", "NRF24L01", "PROFILES", "BenchRecord",
                                  "EnergyProfile", "derive_profile", "energy_compute",
                                  "run_bench"])
def test_package_still_exports_bench_names(name):
    assert getattr(semecs, name) is getattr(bench, name)


def test_package_has_no_other_lazy_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        semecs.no_such_name  # noqa: B018
    assert not hasattr(semecs, "SCHEMES")


@pytest.mark.parametrize("argv, expected", [
    (["energy-report", "--profile", "avr-atmega2560", "--cycles", "1000"], "compute_mJ: "),
    (["bench", "--group", "toy", "--scheme", "semecs", "--iters", "1", "-K", "4"],
     ",".join(CSV_COLUMNS)),
])
def test_bench_commands_load_bench_in_a_fresh_process(argv, expected):
    # in-process tests run with bench already imported; a new CLI process has not
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "semecs.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


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
