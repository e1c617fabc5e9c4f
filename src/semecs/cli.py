"""Operator-facing command line: keygen, sign, verify, inspect, bench, energy-report.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 state/IO
error.  Recovered messages go to stdout; everything informational goes to
stderr so the tool composes in pipelines.  ``SEMECS_HOME`` names a default
key directory for ``--out-prefix`` / ``--sk`` / ``--pk``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import bench as bench_mod
from . import eta as eta_mod
from . import keystore
from . import schnorr as schnorr_mod
from . import semecs as semecs_mod
from .errors import (
    CorruptState,
    EmptyMessage,
    IoFailure,
    MalformedEncoding,
    SemecsError,
    UnsupportedCombo,
)
from .group import PRODUCTION_GROUP, GroupParams, generate_toy_group

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_STATE = 3

#: The toy group the CLI generates keys in: big enough that beta tokens do
#: not collide at practical K, small enough for the exhaustive test oracles.
_CLI_TOY_MIN_Q = 1 << 19


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _group_for(name: str) -> GroupParams:
    return PRODUCTION_GROUP if name == "prod" else generate_toy_group(_CLI_TOY_MIN_Q)


def _default_path(value, filename: str, parser, flag: str):
    if value is not None:
        return value
    home = os.environ.get("SEMECS_HOME")
    if home:
        return os.path.join(home, filename)
    parser.error(f"{flag} is required (or set SEMECS_HOME)")


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def _cmd_keygen(args, parser) -> int:
    if args.scheme == "schnorr" and args.K is not None:
        parser.error("--scheme schnorr does not take -K (not a K-time scheme)")
    if args.scheme in ("eta", "semecs") and args.K is None:
        parser.error(f"--scheme {args.scheme} requires -K")
    prefix = _default_path(args.out_prefix, "key", parser, "--out-prefix")
    params = _group_for(args.group)
    started = time.perf_counter()
    if args.scheme == "schnorr":
        kp = schnorr_mod.schnorr_keygen(params)
        sk_record = keystore.record_from_schnorr_key(kp)
        pk_record = keystore.record_from_schnorr_public(params, kp.Y)
    elif args.scheme == "eta":
        state, pk = eta_mod.eta_keygen(params, args.K)
        sk_record = keystore.record_from_eta_state(state)
        pk_record = keystore.record_from_eta_public(pk)
    else:
        state, pk = semecs_mod.semecs_keygen(params, args.K)
        sk_record = keystore.record_from_semecs_state(state)
        pk_record = keystore.record_from_semecs_public(pk)
    elapsed = time.perf_counter() - started
    sk_path, pk_path = prefix + ".sk", prefix + ".pk"
    keystore.save_state(sk_path, sk_record)
    keystore.save_state(pk_path, pk_record)
    _log(f"scheme: {args.scheme}  group: {args.group}  K: {args.K or '-'}")
    _log(f"wrote {sk_path} ({os.path.getsize(sk_path)} octets)")
    _log(f"wrote {pk_path} ({os.path.getsize(pk_path)} octets)")
    _log(f"keygen wall time: {elapsed:.3f} s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sign
# ---------------------------------------------------------------------------

def _cmd_sign(args, parser) -> int:
    sk_path = _default_path(args.sk, "key.sk", parser, "--sk")
    try:
        with open(args.infile, "rb") as fh:
            message = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read message file: {exc}") from exc
    record = keystore.load_state(sk_path)
    params = record.params

    if record.scheme_tag == keystore.SCHEME_SCHNORR:
        kp = keystore.schnorr_key_from_record(record)
        sig = schnorr_mod.schnorr_sign(kp, message)
        blob = schnorr_mod.encode_signed_message(params, sig, message)
        index_note = "index: - (full-time scheme)"
    elif record.scheme_tag == keystore.SCHEME_ETA:
        state = keystore.eta_state_from_record(record)
        sig = eta_mod.eta_sign(state, message)
        new_payload = keystore.record_from_eta_state(state).payload
        # durable advance before the envelope exists anywhere
        keystore.advance_counter(sk_path, sig.j, new_payload=new_payload)
        blob = eta_mod.encode_signed_message(params, sig, message)
        index_note = f"index: {sig.j} of K={state.K}"
    else:
        state = keystore.open_semecs_signer(sk_path)
        envelope = semecs_mod.semecs_sign(state, message)
        blob = envelope.to_bytes(params)
        index_note = f"index: {envelope.j} of K={state.K}"

    try:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise IoFailure(f"cannot write envelope: {exc}") from exc
    _log(index_note)
    overhead = len(blob) - len(message)
    _log(f"envelope: {len(blob)} octets, cryptographic overhead: {overhead} octets")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, parser) -> int:
    pk_path = _default_path(args.pk, "key.pk", parser, "--pk")
    try:
        record = keystore.load_state(pk_path)
        with open(args.env, "rb") as fh:
            blob = fh.read()
        params = record.params
        if args.no_index and record.scheme_tag != keystore.SCHEME_SEMECS:
            parser.error("--no-index applies only to semecs keys")
        if record.scheme_tag == keystore.SCHEME_SCHNORR:
            big_y = keystore.schnorr_public_from_record(record)
            sig, message = schnorr_mod.decode_signed_message(params, blob)
            ok = schnorr_mod.schnorr_verify(params, big_y, message, sig)
            recovered = message if ok else None
        elif record.scheme_tag == keystore.SCHEME_ETA:
            pk = keystore.eta_public_from_record(record)
            sig, message = eta_mod.decode_signed_message(params, blob)
            ok = eta_mod.eta_verify(pk, message, sig)
            recovered = message if ok else None
        else:
            pk = keystore.semecs_public_from_record(record)
            envelope = semecs_mod.SignedEnvelope.from_bytes(params, blob)
            if args.no_index:
                if pk.search_index is None:
                    _log("this public key has colliding tokens; no search index")
                    return EXIT_USAGE
                ok, found_j, recovered = semecs_mod.semecs_verify_search(pk, envelope)
                if ok:
                    _log(f"index recovered by search: {found_j}")
            else:
                ok, recovered = semecs_mod.semecs_verify_indexed(pk, envelope)
    except (CorruptState, IoFailure, MalformedEncoding, OSError) as exc:
        _log(f"malformed input: {exc}")
        return EXIT_USAGE

    if not ok:
        _log("signature INVALID")
        return EXIT_INVALID
    _log("signature valid")
    sys.stdout.buffer.write(recovered)
    sys.stdout.buffer.flush()
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def _cmd_inspect(args, parser) -> int:
    record = keystore.load_state(args.path)
    group = "toy" if record.group_id == keystore.GROUP_TOY else "prod"
    lines = [
        f"scheme: {keystore.SCHEME_NAMES[record.scheme_tag]}",
        f"role: {keystore.ROLE_NAMES[record.role]}",
        f"group: {group} (|q| = {record.params.q.bit_length()} bits)",
        f"j: {record.j}",
        f"K: {record.K}",
        f"payload: {len(record.payload)} octets",
        f"file: {os.path.getsize(args.path)} octets",
    ]
    print("\n".join(lines))  # metadata only; secret payloads are never shown
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench / energy-report
# ---------------------------------------------------------------------------

def _cmd_bench(args, parser) -> int:
    if args.iters < 1:
        parser.error("--iters must be >= 1")
    params = _group_for(args.group)
    schemes = bench_mod.SCHEMES if args.scheme == "all" else (args.scheme,)
    records = []
    for scheme in schemes:
        for operation in bench_mod.OPERATIONS:
            _log(f"benching {scheme}/{operation} ({args.iters} iters)...")
            records.append(
                bench_mod.run_bench(scheme, operation, params, args.iters, K=args.K)
            )
    _emit_records(records, args.csv, args.json)
    return EXIT_OK


def _cmd_energy_report(args, parser) -> int:
    profile = bench_mod.PROFILES.get(args.profile)
    if profile is None:
        parser.error(
            f"unknown profile {args.profile!r}; built-ins: "
            + ", ".join(sorted(bench_mod.PROFILES))
        )
    if args.cycles is not None:
        compute_mj, comm_uj = bench_mod.energy_compute(
            profile, cycles=args.cycles, bits_tx=args.bits or 0
        )
        print(f"compute_mJ: {compute_mj:.6g}")
        print(f"comm_uJ: {comm_uj:.6g}")
        return EXIT_OK
    if args.source is None:
        parser.error("supply --from CSV or --cycles N")
    try:
        with open(args.source, newline="") as fh:
            records = bench_mod.read_csv(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read bench CSV: {exc}") from exc
    records = bench_mod.apply_energy(records, profile)
    _emit_records(records, args.csv, args.json)
    return EXIT_OK


def _emit_records(records, csv_path, json_path) -> None:
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            bench_mod.write_csv(records, fh)
        _log(f"wrote {csv_path}")
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(bench_mod.to_json(records))
        _log(f"wrote {json_path}")
    if not (csv_path or json_path):
        bench_mod.write_csv(records, sys.stdout)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semecs",
        description="Multiple-time signature toolkit (Schnorr / ETA / SEMECS).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--scheme", required=True, choices=("schnorr", "eta", "semecs"))
    p.add_argument("--group", default="prod", choices=("toy", "prod"))
    p.add_argument("-K", type=int, default=None, help="signature capacity")
    p.add_argument("--out-prefix", default=None, help="writes PREFIX.sk and PREFIX.pk")

    p = sub.add_parser("sign", help="sign a message file")
    p.add_argument("--sk", default=None, help="signer state file")
    p.add_argument("--in", dest="infile", required=True, help="message file")
    p.add_argument("--out", required=True, help="envelope file to write")

    p = sub.add_parser("verify", help="verify an envelope and recover the message")
    p.add_argument("--pk", default=None, help="public key file")
    p.add_argument("--env", required=True, help="envelope file")
    p.add_argument(
        "--no-index",
        action="store_true",
        help="ignore the envelope's index; locate it by binary search",
    )

    p = sub.add_parser("inspect", help="show key/state file metadata")
    p.add_argument("path")

    p = sub.add_parser("bench", help="run timing benchmarks")
    p.add_argument("--scheme", default="all", choices=("schnorr", "eta", "semecs", "all"))
    p.add_argument("--group", default="prod", choices=("toy", "prod"))
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("-K", type=int, default=16, help="capacity used by keygen benches")
    p.add_argument("--csv", default=None, help="write results to a CSV file")
    p.add_argument("--json", default=None, help="write results to a JSON file")

    p = sub.add_parser("energy-report", help="convert work into energy estimates")
    p.add_argument("--profile", required=True, help="device profile name")
    p.add_argument("--from", dest="source", default=None, help="bench CSV to annotate")
    p.add_argument("--cycles", type=float, default=None, help="direct cycle count")
    p.add_argument("--bits", type=float, default=None, help="bits transmitted")
    p.add_argument("--csv", default=None, help="write annotated CSV here")
    p.add_argument("--json", default=None, help="write annotated JSON here")

    return parser


_COMMANDS = {
    "keygen": _cmd_keygen,
    "sign": _cmd_sign,
    "verify": _cmd_verify,
    "inspect": _cmd_inspect,
    "bench": _cmd_bench,
    "energy-report": _cmd_energy_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:  # argparse usage errors already printed
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (EmptyMessage, UnsupportedCombo, MalformedEncoding, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except SemecsError as exc:
        _log(f"error: {exc}")
        return EXIT_STATE


if __name__ == "__main__":
    sys.exit(main())
