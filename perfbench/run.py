#!/usr/bin/env python3
"""The repository benchmark: build the simulator, run a workload, check it.

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload explore64 --seed 3 --seconds 10
    python3 perfbench/run.py --workload garnet_ar64 --trace 1
    python3 perfbench/run.py --workload garnet_ar64 --save a.json
    python3 perfbench/run.py --workload garnet_ar64 --compare a.json
    python3 perfbench/run.py --workload resnet50_dp64 --package-link-latency=250
    python3 perfbench/run.py --record             # rewrite references.json

Run from the root of a checkout. The simulator libraries are built from
src/ into .bench_build/ (or $CARGO_TARGET_DIR) by perfbench/CMakeLists.txt.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run. Every simulation's digest, simulated result and (for
explore64) rank are checked against references.json; the last line of
stdout is one JSON object and the exit code is non-zero on any mismatch.
Any other --key=value is a simulator parameter applied to every platform.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ["explore64", "resnet50_dp64", "garnet_ar64", "garnet_faulty64"]

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "candidate_ms_p50": "ms",
    "candidate_ms_p90": "ms",
    "ok_ratio": "ratio",
}

# Per-layer metrics of the traced run, by layer, with their units.
PER_LAYER = {
    "eq": {
        "eq.events": "count",
        "eq.slab_bytes": "B",
        "eq.run_ns_per_event": "ns",
        "eq.probe_ns_per_event": "ns",
        "eq.self_ms": "ms",
    },
    "net": {
        "net.probe_ns_per_msg": "ns",
        "net.delivered_messages": "count",
        "net.byte_hops": "B",
        "net.packets": "count",
        "net.link_util_mean": "ratio",
        "net.queue_wait_cycles": "cycles",
        "net.credit_stall_cycles": "cycles",
        "net.self_ms": "ms",
    },
    "core": {
        "core.cluster_build_ms": "ms",
        "core.issue_ms": "ms",
        "core.run_ms": "ms",
        "core.run_us_per_message": "us",
        "core.sent_messages": "count",
        "core.issued_chunks": "count",
        "core.queue_wait_cycles": "cycles",
        "core.self_ms": "ms",
    },
    "collective": {
        "collective.chunk_payloads": "count",
        "collective.chunk_latency_p50_cycles": "cycles",
    },
    "workload": {
        "workload.generate_ms": "ms",
        "workload.setup_ms": "ms",
        "workload.run_ms": "ms",
        "workload.makespan_cycles": "cycles",
        "workload.exposed_ratio": "ratio",
        "workload.self_ms": "ms",
    },
    "explore": {
        "explore.candidates": "count",
        "explore.enumerate_ms": "ms",
        "explore.candidate_build_ms": "ms",
        "explore.candidate_run_ms": "ms",
        "explore.self_ms": "ms",
    },
    "fault": {
        "fault.lost_messages": "count",
        "fault.retries": "count",
        "fault.retries_exhausted": "count",
        "fault.packets_dropped": "count",
    },
    "trace": {
        "trace.overhead_ms": "ms",
    },
}

# Layers that do no work on a workload report 0 there.
LAYERS_RUN = {
    "explore64": ["eq", "net", "core", "collective", "explore", "trace"],
    "resnet50_dp64": ["eq", "net", "core", "collective", "workload", "trace"],
    "garnet_ar64": ["eq", "net", "core", "collective", "trace"],
    "garnet_faulty64": ["eq", "net", "core", "collective", "fault", "trace"],
}

# What a result's host fingerprint must share with another result
# before their timings may be compared.
HOST_KEYS = ["cpu", "nproc", "compiler", "build_type"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure and build perfbench; @return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out])
        steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out, "perfbench")


def source_digest():
    """Hash of src/ and perfbench/: identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(raw):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "commit": commit,
        "source": source_digest(),
    }


def run_binary(binary, workload, seed, seconds, trace, overrides, record=False):
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--root=" + ROOT,
           "--journal=" + os.path.join(build_dir(), "journal-%s-seed%d.txt" % (workload, seed))
           ] + overrides
    spans = None
    if trace:
        spans = os.path.join(build_dir(), "spans-%s-seed%d.json" % (workload, seed))
        cmd += ["--trace", "--spans=" + spans]
    if record:
        cmd.append("--record")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s exited with %d" % (workload, proc.returncode), 1)
    raw = json.loads(proc.stdout)
    raw["spans_file"] = spans
    return raw


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percent(n):
    """Highest whole percentile up to 90 with at least ten of @p n
    samples beyond it; the median when there are too few samples."""
    for p in range(90, 49, -1):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return 50


def check(workload, raw, refs):
    """@return (attempted, failed, messages)."""
    expect = refs.get(workload, {})
    attempted, failed, msgs = 0, 0, []
    for sim in raw["sims"]:
        attempted += 1
        ref = expect.get(sim["label"])
        why = None
        if ref is None:
            why = "no reference"
        elif sim["outcome"] != "completed":
            why = "outcome %s" % sim["outcome"]
        else:
            for key in ("digest", "result", "events", "rank"):
                if sim[key] != ref[key]:
                    why = "%s %s != reference %s" % (key, sim[key], ref[key])
                    break
        if why:
            failed += 1
            if len(msgs) < 5:
                msgs.append("%s %s: %s" % (workload, sim["label"], why))
    # Every referenced simulation must have run at least once.
    seen = {sim["label"] for sim in raw["sims"]}
    for label in sorted(set(expect) - seen):
        attempted += 1
        failed += 1
        msgs.append("%s %s: never simulated" % (workload, label))
    return attempted, failed, msgs


def end_to_end(raw, attempted, failed):
    wall = raw["wall_s"]
    # One sample per label: each candidate's (or the one simulation's)
    # median host ms over the run's units.
    by_label = {}
    for sim in raw["sims"]:
        by_label.setdefault(sim["label"], []).append(sim["ms"])
    sim_ms = [statistics.median(v) for v in by_label.values()]
    p = tail_percent(len(sim_ms))
    note = "candidate_ms_p90 is p%d of %d %s median(s) over %d unit(s)" % (
        p, len(sim_ms), "candidate" if raw["unit"] == "pass" else "simulation",
        len(wall))
    m = {
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(raw["setup_s"]),
        "events_per_s": statistics.median(
            e / w for e, w in zip(raw["unit_events"], wall)),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "candidate_ms_p50": percentile(sim_ms, 0.5),
        "candidate_ms_p90": percentile(sim_ms, p / 100.0),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return m, note


def per_layer(raw):
    """Every per-layer metric; 0 for a layer that did no work."""
    m = {}
    for layer, names in PER_LAYER.items():
        for name in names:
            if name == layer + ".self_ms":
                m[name] = raw["self_ms"].get(layer, 0.0)
            else:
                m[name] = raw["layers"].get(name, 0.0)
    return m


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER[name.split(".", 1)[0]][name]


def print_table(title, metrics):
    print(title)
    for name, value in metrics.items():
        print("  %-38s %18.6g %s" % (name, value, unit_of(name)))


def print_layers(workload, metrics, raw):
    ran = LAYERS_RUN[workload]
    print("per-layer metrics, %s (traced run, %d traced %s(s)):" % (
        workload, len(raw["traced_wall_s"]), raw["unit"]))
    print("  %-10s %14s  %s" % ("layer", "self ms/unit", "metrics"))
    for layer, names in PER_LAYER.items():
        self_ms = raw["self_ms"].get(layer)
        self_txt = "%14.3f" % self_ms if self_ms is not None else "%14s" % "-"
        state = "" if layer in ran else "  (layer does not run here)"
        print("  %-10s %s%s" % (layer, self_txt, state))
        for name in names:
            print("      %-38s %18.6g %s" % (name, metrics[name], unit_of(name)))
    print("  tracing overhead: traced wall_s %.4f s - untraced %.4f s = %+.1f ms"
          % (statistics.median(raw["traced_wall_s"]),
             statistics.median(raw["wall_s"]), metrics["trace.overhead_ms"]))
    if raw["spans_file"]:
        print("  spans: %s" % raw["spans_file"])


def compare(path, fp, metrics):
    """Compare against a result saved with --save; refuse across hosts."""
    with open(path) as f:
        base = json.load(f)
    diff = [k for k in HOST_KEYS if base["host"].get(k) != fp.get(k)]
    if diff:
        for k in diff:
            print("  %s: %s (baseline) vs %s (this run)" % (
                k, base["host"].get(k), fp.get(k)), file=sys.stderr)
        fail("refusing to compare results from different hosts", 3)
    print("comparison with %s (commit %s, source %s)" % (
        path, base["host"]["commit"], base["host"]["source"]))
    for name, m in metrics.items():
        old = base["metrics"].get(name, {}).get("value")
        if old is None:
            continue
        value = m["value"]
        change = (value - old) / old * 100 if old else 0.0
        print("  %-38s %14.6g -> %-14.6g %+7.2f%%" % (name, old, value, change))


def record(binary, workloads):
    refs = {}
    if os.path.isfile(REFERENCES):
        with open(REFERENCES) as f:
            refs = json.load(f)
    for w in workloads:
        raw = run_binary(binary, w, 1, 0, False, [], record=True)
        refs[w] = {
            s["label"]: {k: s[k] for k in ("digest", "result", "events", "rank")}
            for s in raw["sims"]
        }
        print("recorded %d reference simulation(s) for %s" % (len(raw["sims"]), w))
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    # No abbreviations: any other --key=value is a simulator parameter.
    ap = argparse.ArgumentParser(
        allow_abbrev=False,
        description=__doc__.split("\n")[0],
        epilog="Any other --key=value is a simulator parameter override.")
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="write the result with its host fingerprint")
    ap.add_argument("--compare", help="compare with a result written by --save")
    ap.add_argument("--record", action="store_true",
                    help="rewrite references.json from fresh simulations")
    args, rest = ap.parse_known_args()
    overrides = []
    for arg in rest:
        if not (arg.startswith("--") and "=" in arg):
            ap.error("unrecognised argument %s" % arg)
        overrides.append(arg)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    binary = build()
    if args.record:
        record(binary, workloads)
        return 0

    with open(REFERENCES) as f:
        refs = json.load(f)
    attempted = failed = 0
    result = {}
    fp = None
    for w in workloads:
        raw = run_binary(binary, w, args.seed, args.seconds, args.trace, overrides)
        fp = fp or fingerprint(raw)
        a, fl, msgs = check(w, raw, refs)
        attempted += a
        failed += fl
        for msg in msgs:
            print("MISMATCH " + msg)
        if args.trace:
            metrics = per_layer(raw)
            print_layers(w, metrics, raw)
        else:
            metrics, note = end_to_end(raw, a, fl)
            print_table("end-to-end metrics, %s (%d untraced %s(s), seed %d):"
                        % (w, len(raw["wall_s"]), raw["unit"], args.seed),
                        metrics)
            print("  failed_ratio %.4f (%d of %d simulations); %s"
                  % (fl / a, fl, a, note))
        prefix = "" if len(workloads) == 1 else w + "."
        for name, value in metrics.items():
            result[prefix + name] = {"value": value, "unit": unit_of(name)}

    print("host: " + json.dumps(fp, sort_keys=True))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"host": fp, "workloads": workloads, "seed": args.seed,
                       "trace": args.trace, "metrics": result}, f, indent=1)
    if args.compare:
        compare(args.compare, fp, result)

    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
