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

from . import eta as eta_mod
from . import keystore
from . import schnorr as schnorr_mod
from . import semecs as semecs_mod
from .errors import DuplicateBeta, EmptyMessage, MalformedEncoding, SemecsError
from .group import BIG_TOY_GROUP, PRODUCTION_GROUP

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_STATE = 3

_GROUPS = {"toy": BIG_TOY_GROUP, "prod": PRODUCTION_GROUP}
_SCHEMES = tuple(keystore.SCHEME_NAMES.values())
# sorted(bench.PROFILES), spelled out so that building the parser loads no
# bench; tests/test_cli.py pins the two together
_PROFILES = ("avr-atmega2560", "nrf24l01")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def _cmd_keygen(args, parser) -> int:
    if args.scheme == "schnorr" and args.K is not None:
        parser.error("--scheme schnorr does not take -K (not a K-time scheme)")
    if args.scheme in ("eta", "semecs") and args.K is None:
        parser.error(f"--scheme {args.scheme} requires -K")
    params = _GROUPS[args.group]
    started = time.perf_counter()
    sk_record, pk_record = keystore.keygen_records(args.scheme, params, args.K)
    elapsed = time.perf_counter() - started
    sk_path, pk_path = args.out_prefix + ".sk", args.out_prefix + ".pk"
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
    with open(args.infile, "rb") as fh:
        message = fh.read()
    record = keystore.load_state(args.sk)
    params = record.params

    if record.scheme_tag == keystore.SCHEME_SCHNORR:
        kp = keystore.schnorr_key_from_record(record)
        sig = schnorr_mod.schnorr_sign(kp, message)
        blob = schnorr_mod.encode_signed_message(params, sig, message)
        index_note = "index: - (full-time scheme)"
    else:
        state = keystore.open_signer(args.sk, record)
        if record.scheme_tag == keystore.SCHEME_ETA:
            sig = eta_mod.eta_sign(state, message)
            blob = eta_mod.encode_signed_message(params, sig, message)
        else:
            sig = semecs_mod.semecs_sign(state, message)
            blob = sig.to_bytes(params)
        index_note = f"index: {sig.j} of K={state.K}"

    with open(args.out, "wb") as fh:
        fh.write(blob)
    _log(index_note)
    overhead = len(blob) - len(message)
    _log(f"envelope: {len(blob)} octets, cryptographic overhead: {overhead} octets")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, parser) -> int:
    record = keystore.load_state(args.pk)
    with open(args.env, "rb") as fh:
        blob = fh.read()
    params = record.params
    if args.no_index and record.scheme_tag != keystore.SCHEME_SEMECS:
        parser.error("--no-index applies only to semecs keys")
    if record.scheme_tag == keystore.SCHEME_SCHNORR:
        big_y = keystore.schnorr_public_from_record(record)
        sig, recovered = schnorr_mod.decode_signed_message(params, blob)
        ok = schnorr_mod.schnorr_verify(params, big_y, recovered, sig)
    elif record.scheme_tag == keystore.SCHEME_ETA:
        pk = keystore.eta_public_from_record(record)
        sig, recovered = eta_mod.decode_signed_message(params, blob)
        ok = eta_mod.eta_verify(pk, recovered, sig)
    else:
        pk = keystore.semecs_public_from_record(record)
        envelope = semecs_mod.SignedEnvelope.from_bytes(params, blob)
        if args.no_index:
            ok, found_j, recovered = semecs_mod.semecs_verify_search(pk, envelope)
            if ok:
                _log(f"index recovered by search: {found_j}")
        else:
            ok, recovered = semecs_mod.semecs_verify_indexed(pk, envelope)

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
    group = "toy" if record.params.is_toy else "prod"
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
    from . import bench as bench_mod

    if args.iters < 1:
        parser.error("--iters must be >= 1")
    if not 1 <= args.K <= semecs_mod.MAX_K:
        raise ValueError(f"-K must lie in [1, {semecs_mod.MAX_K}]")
    params = _GROUPS[args.group]
    schemes = bench_mod.SCHEMES if args.scheme == "all" else (args.scheme,)
    for path in filter(None, (args.csv, args.json)):
        open(path, "a").close()  # a bad destination fails before the benchmarks run
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
    from . import bench as bench_mod

    profile = bench_mod.PROFILES[args.profile]
    if args.bits is not None and args.cycles is None:
        parser.error("--bits needs --cycles")
    if args.cycles is not None:
        compute_mj, comm_uj = bench_mod.energy_compute(
            profile, cycles=args.cycles, bits_tx=args.bits or 0
        )
        print(f"compute_mJ: {compute_mj:.6g}")
        print(f"comm_uJ: {comm_uj:.6g}")
        return EXIT_OK
    with open(args.source, newline="") as fh:
        records = bench_mod.read_csv(fh)
    records = bench_mod.apply_energy(records, profile)
    _emit_records(records, args.csv, args.json)
    return EXIT_OK


def _emit_records(records, csv_path, json_path) -> None:
    from . import bench as bench_mod

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
    home = os.environ.get("SEMECS_HOME")

    def key_path(p, flag, filename, text):
        if home:
            p.add_argument(flag, default=os.path.join(home, filename),
                           help=text + " (default: %(default)s)")
        else:
            p.add_argument(flag, required=True,
                           help=text + " (required unless SEMECS_HOME is set)")

    p = sub.add_parser("keygen", help="generate a key pair")
    p.set_defaults(run=_cmd_keygen, parser=p)
    p.add_argument("--scheme", required=True, choices=_SCHEMES)
    p.add_argument("--group", default="prod", choices=_GROUPS)
    p.add_argument("-K", type=int, default=None, help="signature capacity")
    key_path(p, "--out-prefix", "key", "writes PREFIX.sk and PREFIX.pk")

    p = sub.add_parser("sign", help="sign a message file")
    p.set_defaults(run=_cmd_sign, parser=p)
    key_path(p, "--sk", "key.sk", "signer state file")
    p.add_argument("--in", dest="infile", required=True, help="message file")
    p.add_argument("--out", required=True, help="envelope file to write")

    p = sub.add_parser("verify", help="verify an envelope and recover the message")
    p.set_defaults(run=_cmd_verify, parser=p)
    key_path(p, "--pk", "key.pk", "public key file")
    p.add_argument("--env", required=True, help="envelope file")
    p.add_argument(
        "--no-index",
        action="store_true",
        help="ignore the envelope's index; locate it by binary search",
    )

    p = sub.add_parser("inspect", help="show key/state file metadata")
    p.set_defaults(run=_cmd_inspect, parser=p)
    p.add_argument("path")

    p = sub.add_parser("bench", help="run timing benchmarks")
    p.set_defaults(run=_cmd_bench, parser=p)
    p.add_argument("--scheme", default="all", choices=(*_SCHEMES, "all"))
    p.add_argument("--group", default="prod", choices=_GROUPS)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("-K", type=int, default=16, help="capacity used by keygen benches")
    p.add_argument("--csv", default=None, help="write results to a CSV file")
    p.add_argument("--json", default=None, help="write results to a JSON file")

    p = sub.add_parser("energy-report", help="convert work into energy estimates")
    p.set_defaults(run=_cmd_energy_report, parser=p)
    p.add_argument("--profile", required=True, choices=_PROFILES,
                   help="device profile name")
    work = p.add_mutually_exclusive_group(required=True)
    work.add_argument("--from", dest="source", default=None, help="bench CSV to annotate")
    work.add_argument("--cycles", type=float, default=None, help="direct cycle count")
    p.add_argument("--bits", type=float, default=None, help="bits transmitted")
    p.add_argument("--csv", default=None, help="write annotated CSV here")
    p.add_argument("--json", default=None, help="write annotated JSON here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, args.parser)
    except SystemExit as exc:  # argparse usage errors already printed
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (DuplicateBeta, EmptyMessage, MalformedEncoding, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except (SemecsError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_STATE


if __name__ == "__main__":
    sys.exit(main())
