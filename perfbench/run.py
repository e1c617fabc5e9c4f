"""Wall-clock benchmark of the semecs toolkit: signer, verifier, provisioner, CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload sign_durable --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the gated measurement and prints the end-to-end metrics;
``--trace 1`` runs the separate traced run and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    """Put the checkout's package and test oracles on the path, or exit 2."""
    for need in ("src/semecs/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import semecs.cli  # noqa: F401  (loads every module the tracer wraps)


_import_program()

import common  # noqa: E402
import tracing  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, UNPADDED_OVERHEAD  # noqa: E402


#: fsyncs of one durable sign in the package as this benchmark was written
#: (file and directory of one atomic_write).  Batching counter writes changes
#: it; such a change updates this constant as a benchmark change of its own.
FSYNCS_PER_DURABLE_SIGN = 2

#: Op time between two points where the host reference runs, and its bursts
#: at each point.
REF_EVERY_S = 0.25
REF_BURSTS = 2


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run_op(wl, i):
    """One operation; returns (args, output or exception, seconds)."""
    args = wl.prepare_op(i)
    t0 = common.clock()
    try:
        out = wl.op(args)
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        out = exc
    return args, out, common.clock() - t0


def _reference(ref) -> None:
    for _ in range(REF_BURSTS):
        ref.burst()


def _setup(wl, ref) -> list[float]:
    """Repeated cold set-ups, with the host reference run around each one."""
    times = []
    for _ in range(wl.setup_reps):
        _reference(ref)
        t0 = common.clock()
        wl.setup_once()
        times.append(common.clock() - t0)
    _reference(ref)
    wl.begin()
    return times


def _warmup(wl) -> bool:
    ok = True
    for i in range(wl.warmup_ops):
        args, out, _ = _run_op(wl, i)
        ok &= wl.check(i, args, out)
    return ok


def gated(wl, seconds: float):
    """Set-up repeats, warm-up, then ops until ``seconds`` of op time, ending
    on a cycle boundary.

    Every time metric is scaled by the host reference run in the same phase
    (README.md, "Host reference"), so that it reads as on the nominal host.
    """
    wl.prepare()
    setup_ref, ref = common.HostReference(), common.HostReference()
    setups = _setup(wl, setup_ref)
    warm_ok = _warmup(wl)
    # an array, not a list of floats, so its growth with the op count stays
    # small in peak_rss_mb
    latencies = array.array("d")
    attempted = good = 0
    measured, next_ref = 0.0, 0.0
    i = wl.warmup_ops
    while measured < seconds or i % wl.cycle:
        while measured >= next_ref:  # one point per REF_EVERY_S, also after a long op
            _reference(ref)
            next_ref += REF_EVERY_S
        args, out, dt = _run_op(wl, i)
        ok = wl.check(i, args, out)
        i += 1
        measured += dt
        latencies.append(dt)
        attempted += wl.units
        good += wl.units if ok else 0
    _reference(ref)
    correct = warm_ok and wl.finish() and good == attempted
    slow, setup_slow = ref.slowdown(), setup_ref.slowdown()
    lat_slow = ref.latency_slowdown() if wl.short_ops else slow
    raw = {
        "ops_per_s": good / measured,
        "lat_p50_us": common.median(latencies) * 1e6,
        "setup_s": common.median(setups),
    }
    metrics = {
        "ops_per_s": _metric(raw["ops_per_s"] * slow, "1/s"),
        "lat_p50_us": _metric(raw["lat_p50_us"] / lat_slow, "us"),
        "setup_s": _metric(raw["setup_s"] / setup_slow, "s"),
        "peak_rss_mb": _metric(common.peak_rss_mb(), "MB"),
        "ok_ratio": _metric(good / attempted, "ratio"),
    }
    info = {
        "host.ref_ops_per_s": ref.ops_per_s(),
        "host.slowdown": slow,
        "host.latency_slowdown": lat_slow,
        "host.setup_slowdown": setup_slow,
        **{"raw." + k: v for k, v in raw.items()},
        "raw.lat_p90_us": common.p90(latencies) * 1e6,
        "latency_samples": len(latencies),
        "setup_reps": len(setups),
    }
    return correct, attempted, attempted - good, metrics, info


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _fixed_phase(wl, indices, tracer=None):
    """Run the ops ``indices``; (op seconds, ok ops, op arguments)."""
    busy, good, done = 0.0, 0, []
    for i in indices:
        args = wl.prepare_op(i)
        done.append(args)
        t0 = common.clock()
        try:
            out = tracer.op(wl.kind(args), wl.op, args) if tracer else wl.op(args)
        except Exception as exc:
            out = exc
        busy += common.clock() - t0
        good += wl.check(i, args, out)
    return busy, good, done


@dataclass
class Phase:
    tracer: tracing.Tracer
    traced_s: float = 0.0  # op time of the n traced ops
    base_s: float = 0.0  # op time of the untraced baseline ops
    base_cpu_s: float = 0.0  # CPU time (self + children) of the baseline chunks
    good: int = 0  # ok ops, both kinds
    ran: int = 0  # ops run, both kinds
    traced_args: list = field(default_factory=list)


def _traced_phase(wl, start, n, with_baseline) -> Phase:
    """``n`` traced ops from index ``start``.  With a baseline, chunks of as
    many untraced ops alternate with the traced chunks, so that machine drift
    hits both sides alike."""
    ph = Phase(tracing.Tracer())
    chunk = max(wl.cycle, n // 10 // wl.cycle * wl.cycle)
    i = start
    while len(ph.traced_args) < n:
        c = min(chunk, n - len(ph.traced_args))
        if with_baseline:
            cpu0 = common.cpu_seconds()
            busy, good, _ = _fixed_phase(wl, range(i, i + c))
            ph.base_cpu_s += common.cpu_seconds() - cpu0
            ph.base_s, ph.good, i = ph.base_s + busy, ph.good + good, i + c
        with ph.tracer:
            busy, good, args = _fixed_phase(wl, range(i, i + c), ph.tracer)
        ph.traced_s, ph.good, i = ph.traced_s + busy, ph.good + good, i + c
        ph.traced_args += args
    ph.ran = i - start
    return ph


def _subprocess_ms(argv, env, reps=5) -> float:
    times = []
    for _ in range(reps):
        t0 = common.clock()
        subprocess.run(argv, env=env, check=True)
        times.append((common.clock() - t0) * 1e3)
    return common.median(times)


def traced(target: str, root: str, work: str, seed: int, seconds: float, sizes):
    """Trace every workload for an op count fixed by ``seconds``, so that the
    counts of two runs with one seed repeat exactly.

    Each per-layer metric comes from the workload that exercises that layer
    (README.md, "Traced run"); ``trace.overhead_ratio`` and
    ``proc.cpu_us_per_op`` belong to ``target``.
    """
    ref = common.HostReference()
    out: dict = {}
    summaries: dict = {}
    failures: list[str] = []
    attempted = good = 0
    span_file = os.path.join(common.ensure_dir(os.path.join(root, ".perfbench_out")),
                             f"trace-{target}-seed{seed}.jsonl")
    open(span_file, "w").close()
    for name, cls in WORKLOADS.items():
        wl = cls(root, common.ensure_dir(os.path.join(work, name)), seed, sizes,
                 in_process=True)
        wl.prepare()
        if name == "verify_k16k":
            with tracing.Tracer() as setup_tracer:
                for _ in range(3):
                    wl.setup_once()
            summaries["verify_setup"] = setup_tracer.summary()
            setup_tracer.write(span_file, "verify_k16k.setup")
        else:
            wl.setup_once()
        wl.begin()
        ok = _warmup(wl)
        cycles = round(sizes.trace_ops[name] * seconds / 10 / wl.cycle)
        n = max(1, cycles) * wl.cycle
        ref.burst()
        ph = _traced_phase(wl, wl.warmup_ops, n, with_baseline=name == target)
        ref.burst()
        attempted += ph.ran * wl.units
        good += ph.good * wl.units
        if not (ok and wl.finish()):
            failures.append(f"{name}: outputs failed the oracle check")
        if name == target:
            out["trace.overhead_ratio"] = _metric(ph.base_s / ph.traced_s, "ratio")
            out["proc.cpu_us_per_op"] = _metric(ph.base_cpu_s / (n * wl.units) * 1e6, "us")
        summaries[name] = ph.tracer.summary(units=wl.units)
        ph.tracer.write(span_file, name)
        failures += _self_check(name, wl, summaries[name], ph.traced_args)
        if name == "sign_durable":
            out["keystore.atomic_write.disk_us_per_call"] = _metric(_disk_write_us(wl), "us")
        if name == "cli_session":
            out["cli.process_start_ms"] = _metric(_subprocess_ms(
                [sys.executable, "-c", "import semecs.cli"], wl.env), "ms")
    out.update(_layer_metrics(summaries))
    out["host.ref_ops_per_s"] = _metric(ref.ops_per_s(), "1/s")
    for msg in failures:
        print("perfbench: self-check failed: " + msg, file=sys.stderr)
    counts = {k: v["value"] for k, v in sorted(out.items()) if v["unit"] in ("count", "B")}
    print(json.dumps({"counts": counts, "spans": span_file}))
    return not failures and good == attempted, attempted, attempted - good, out


def _disk_write_us(wl, reps=101) -> float:
    keystore = sys.modules["semecs.keystore"]
    path = os.path.join(wl.work, "disk-probe.sk")
    with open(wl.path, "rb") as fh:
        data = fh.read()
    times = []
    for _ in range(reps):
        t0 = common.clock()
        keystore.atomic_write(path, data)
        times.append(common.clock() - t0)
    return common.median(times) * 1e6


def _self_check(name, wl, s, ops) -> list[str]:
    """The paper's structural counts, asserted exactly on the traced phase."""
    errors = []
    if name in ("sign_durable", "cli_session"):
        group_ops, _ = s.within("semecs.sign", tracing.GROUP_LAYERS)
        if group_ops:
            errors.append(f"{name}: {group_ops} group operations inside SEMECS sign")
    if name == "sign_durable":
        fsyncs = s.counts_by_root("os.fsync")
        roots = s.op_roots(name)
        if len(roots) != len(ops) or any(
                fsyncs.get(r, 0) != FSYNCS_PER_DURABLE_SIGN for r in roots):
            errors.append(f"sign_durable: a durable sign did not do exactly "
                          f"{FSYNCS_PER_DURABLE_SIGN} fsyncs")
        if wl.overheads != {UNPADDED_OVERHEAD}:
            errors.append(f"sign_durable: unpadded overheads {sorted(wl.overheads)} "
                          f"!= {UNPADDED_OVERHEAD}")
    if name == "verify_k16k":
        per_root = s.counts_by_root("group.double_exp")
        got = [per_root.get(r, 0) for r in s.op_roots(name)]
        if got != [case.double_exps for case in ops]:
            errors.append("verify_k16k: double_exp count differs from 1 per range-checked verify")
    return errors


def _layer_metrics(sm) -> dict:
    sign, verify, setup = sm["sign_durable"], sm["verify_k16k"], sm["verify_setup"]
    prov, cli = sm["provision_k4k"], sm["cli_session"]
    count, us = "count", "us"
    m = {}

    # durable signing: codec, validation, atomic write
    m["keystore.GroupParams.calls_per_op"] = (sign.per_op("keystore.GroupParams"), count)
    m["keystore.parse_record.calls_per_op"] = (sign.per_op("keystore.parse_record"), count)
    m["keystore.parse_record.us_per_call"] = (sign.us_per_call("keystore.parse_record"), us)
    m["keystore.parse_record.bytes_per_op"] = (sign.qty["keystore.parse_record"] / sign.ops, "B")
    m["keystore.serialize_record.us_per_call"] = (sign.us_per_call("keystore.serialize_record"), us)
    m["keystore.atomic_write.calls_per_op"] = (sign.per_op("keystore.atomic_write"), count)
    m["keystore.atomic_write.us_per_call"] = (sign.us_per_call("keystore.atomic_write"), us)
    m["keystore.atomic_write.self_us_per_call"] = (sign.self_us_per_call("keystore.atomic_write"), us)
    m["keystore.atomic_write.bytes_per_op"] = (sign.qty["keystore.atomic_write"] / sign.ops, "B")
    m["os.fsync.calls_per_op"] = (sign.per_op("os.fsync"), count)
    m["os.fsync.us_per_call"] = (sign.us_per_call("os.fsync"), us)
    _, persist_ns = sign.within("semecs.sign", ("keystore.advance_counter",))
    signs = sign.calls["semecs.sign"] or 1
    m["semecs.sign.us_per_call"] = ((sign.incl_ns["semecs.sign"] - persist_ns) / signs / 1e3, us)
    m["semecs.sign.persist_us_per_call"] = (persist_ns / signs / 1e3, us)
    m["semecs.sign.group_ops_per_op"] = (
        sign.within("semecs.sign", tracing.GROUP_LAYERS)[0] / signs, count)
    # verification against the large key
    m["group.double_exp.calls_per_op"] = (verify.per_op("group.double_exp"), count)
    m["group.double_exp.us_per_call"] = (verify.us_per_call("group.double_exp"), us)
    m["semecs.from_bytes.us_per_call"] = (verify.us_per_call("semecs.from_bytes"), us)
    m["semecs.verify_indexed.us_per_call"] = (verify.us_per_call("semecs.verify_indexed"), us)
    m["semecs.verify_search.us_per_call"] = (verify.us_per_call("semecs.verify_search"), us)
    lookups = verify.calls["semecs.search"] or 1
    m["semecs.search.comparisons_per_lookup"] = (verify.qty["semecs.search"] / lookups, count)
    m["keystore.parse_record.pk_s"] = (setup.us_per_call("keystore.parse_record") / 1e6, "s")
    m["keystore.semecs_public_from_record.s"] = (
        setup.us_per_call("keystore.semecs_public_from_record") / 1e6, "s")
    m["semecs.build_search_index.s"] = (setup.us_per_call("semecs.build_search_index") / 1e6, "s")
    # provisioning
    m["group.exp.calls_per_op"] = (prov.per_op("group.exp"), count)
    m["group.exp.us_per_call"] = (prov.us_per_call("group.exp"), us)
    m["fdh.eval.calls_per_op"] = (prov.per_op("fdh.eval"), count)
    m["fdh.eval.us_per_call"] = (prov.us_per_call("fdh.eval"), us)
    m["semecs.keygen.us_per_index"] = (prov.incl_ns["semecs.keygen"] / prov.qty["semecs.keygen"] / 1e3, us)
    # the CLI, in process
    for cmd in ("sign", "verify"):
        for scheme in ("semecs", "eta", "schnorr"):
            m[f"cli.{cmd}.{scheme}.ms_p50"] = (common.median(cli.op_ms(f"{cmd}.{scheme}")), "ms")
    for layer in ("eta.sign", "eta.verify", "schnorr.sign", "schnorr.verify"):
        m[layer + ".us_per_call"] = (cli.us_per_call(layer), us)
    return {k: _metric(v, unit) for k, (v, unit) in m.items()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    args = ap.parse_args(argv)
    sizes = SMOKE if args.smoke else FULL
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    common.ensure_dir(work)
    try:
        if args.trace:
            correct, attempted, failed, metrics = traced(
                args.workload, ROOT, work, args.seed, args.seconds, sizes)
        else:
            wl = WORKLOADS[args.workload](ROOT, work, args.seed, sizes)
            correct, attempted, failed, metrics, info = gated(wl, args.seconds)
            print(json.dumps({"info": info}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
