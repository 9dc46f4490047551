#!/usr/bin/env python3
"""The repository benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md):

  verify-cold        the 8 engine versions verified cold, one fresh process each
  verify-edit-chain  the same 8 in release order against one store, empty at
                     start, twice
  serve-udp          9 timed spawns of `dnsv serve`, and 5 cold pre-deploy
                     verifications of the engine it serves (3.0-fixed)

Every workload then serves 3.0-fixed: `dnsv serve` answers an open-loop UDP
mix at 200 and 400 qps (every reply checked against the specification, the
server's stats reconciled with the client's tallies), and an in-process
replay times the serve loop on the same mix for the serve metrics. So every
end-to-end metric is measured on every workload.

The last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it carries the run's provenance, the raw values
and the sample count behind every metric. Exit code 0 when every output was
correct, 1 when a correctness check failed, 2 when the checkout cannot be
built or driven.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HELPER = os.path.join("_build", "default", "perfbench", "dnsvbench.exe")
DNSV = os.path.join("_build", "default", "bin", "dnsv_cli.exe")
SCRATCH = os.path.join(".bench_build", "perfbench")

# Release order: each step is a one-release edit of the previous one.
VERSIONS = ["1.0", "1.0-fixed", "2.0", "2.0-fixed", "3.0", "3.0-fixed", "dev", "dev-fixed"]
SERVED = "3.0-fixed"
WORKLOADS = ("verify-cold", "verify-edit-chain", "serve-udp")

CHAIN_SWEEPS = 2  # edit chains per verify-edit-chain run (verify_s is their median)
PREDEPLOY_REPEATS = 5  # cold verifies of the served engine per serve-udp run
SERVE_SETUPS = 9  # timed spawns per serve-udp run (setup_s is their median)
UDP_RATES = [("r200", 200), ("r400", 400)]  # names as the helper's load phases

# CPU-bound times (verification, compilation, the serve replay) are
# reported at a reference host speed: raw * CAL_REF_S / (the median time of
# one unit of calibrate.ml's fixed work, timed in the same processes as the
# measurement, outside the timed work). A host that runs everything 30%
# slower for a few minutes then does not read as a 30% regression. Raw
# values stay in the line before the result. serve-udp's set-up time (spawn
# to first reply: mostly the server compiling its engine and building its
# zone) is scaled by the calibration of the same run's verification
# processes; the time to spawn a bare process tracked it less closely.
CAL_REF_S = 0.023


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The checkout cannot be built or driven: exit 2, print no result."""


# --------------------------------------------------------------------------
# Build and provenance
# --------------------------------------------------------------------------


def build():
    for need in ("dune-project", "lib", os.path.join("bin", "dnsv_cli.ml")):
        if not os.path.exists(need):
            raise BenchError("not a DNS-V checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    t0 = time.time()
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/dnsvbench.exe", "./bin/dnsv_cli.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout[-4000:])
    log("build: %.1fs" % (time.time() - t0))


_DIGEST = []


def source_digest():
    """Digest of the program's sources: the identity of what was measured
    when the checkout carries no git metadata."""
    if not _DIGEST:
        h = hashlib.sha256()
        for top in ("lib", "bin", "perfbench"):
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames.sort()
                for f in sorted(filenames):
                    if f.endswith((".ml", ".mli", "dune", ".py")):
                        p = os.path.join(dirpath, f)
                        h.update(p.encode())
                        with open(p, "rb") as fh:
                            h.update(fh.read())
        _DIGEST.append(h.hexdigest()[:16])
    return _DIGEST[0]


def git_commit():
    """HEAD when the checkout is a git repository, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


def cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def pin(pid, cpu):
    """Pin [pid] to one CPU, so the load client and the server never share
    a core. [cpu] is None on a one-CPU host."""
    if cpu is not None:
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:
            pass


def run_child(cmd, cpu=None, timeout=170):
    """Run [cmd] to completion; return (exit code, its last stdout line as
    JSON, peak RSS in MB). Exit codes other than 0 (all checks passed) and
    1 (a check failed) mean the helper itself broke."""
    outpath = os.path.join(SCRATCH, "child.out")
    errpath = os.path.join(SCRATCH, "child.err")
    with open(outpath, "wb") as out, open(errpath, "wb") as err:
        p = subprocess.Popen(cmd, stdout=out, stderr=err)
    pin(p.pid, cpu)
    deadline = time.time() + timeout
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid:
            break
        if time.time() > deadline:
            p.kill()
            os.wait4(p.pid, 0)
            p.returncode = -9
            raise BenchError("timed out: %s" % " ".join(cmd))
        time.sleep(0.01)
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(outpath, "r", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        with open(errpath, "r", errors="replace") as fh:
            raise BenchError("%s exited %d:\n%s" % (" ".join(cmd), p.returncode, fh.read()[-3000:]))
    return p.returncode, json.loads(lines[-1]), ru.ru_maxrss / 1024.0


class Server:
    """`dnsv serve` on loopback with a stats endpoint, both on free ports.
    [first_reply_s] is the time from spawn to the first correct reply."""

    # The zone apex SOA, id 0xbeef, RD set.
    PROBE = bytes.fromhex("beef01000001000000000000076578616d706c6503636f6d0000060001")

    def __init__(self, cpu):
        self.t0 = time.time()
        self.proc = subprocess.Popen(
            [DNSV, "serve", "-e", SERVED, "--port", "0", "--stats-port", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        pin(self.proc.pid, cpu)
        self.port = self.stats_port = None
        self.rss_mb = None
        self.probes = 0
        try:
            while self.port is None or self.stats_port is None:
                line = self.proc.stderr.readline().decode(errors="replace")
                if not line:
                    raise BenchError("dnsv serve exited before it bound its ports")
                if line.startswith("dnsv serve: stats on"):
                    self.stats_port = int(line.rsplit(":", 1)[1])
                elif line.startswith("dnsv serve: zone"):
                    self.port = int(line.rsplit(":", 1)[1])
            self.first_reply_s = self._probe()
        except BaseException:
            self.stop()
            raise

    def _probe(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            s.settimeout(0.05)
            s.connect(("127.0.0.1", self.port))
            for _ in range(200):
                s.send(self.PROBE)
                self.probes += 1
                try:
                    reply = s.recv(4096)
                except (socket.timeout, ConnectionRefusedError):
                    continue
                if reply[:2] != b"\xbe\xef" or not reply[2] & 0x80 or reply[3] & 0x0F:
                    raise BenchError("the probe's reply is not a NOERROR answer")
                return time.time() - self.t0
        raise BenchError("dnsv serve never answered the probe")

    def scrape(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            s.settimeout(2.0)
            s.connect(("127.0.0.1", self.stats_port))
            s.send(b"json")
            return json.loads(s.recv(1 << 20))

    def stop(self):
        """SIGTERM (the loop's graceful stop), then reap; records peak RSS."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.stderr.read()
            _, _, ru = os.wait4(self.proc.pid, 0)
            self.proc.returncode = 0
            self.rss_mb = ru.ru_maxrss / 1024.0
        except ChildProcessError:
            pass
        finally:
            self.proc.stderr.close()


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------


class Tally:
    """Correctness over the run, peak memory and calibration samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rss = []
        self.calibration = {"verify": [], "serve": []}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def slowdown(self, part):
        """How much slower than the reference the host ran during [part]."""
        return statistics.median(self.calibration[part]) / CAL_REF_S


def verify_step(tally, engine, store=None, traced=False, cpu=None):
    cmd = [HELPER, "verify", "--engine", engine]
    if store:
        cmd += ["--store", store]
    if traced:
        cmd.append("--trace")
    _, res, rss = run_child(cmd, cpu=cpu)
    tally.rss.append(res["peak_rss_kb"] / 1024.0 if res["peak_rss_kb"] else rss)
    tally.calibration["verify"].extend(res["calibration"])
    tally.check(res["ok"], "%s: %s, expected %s" % (engine, res["status"], res["expected"]))
    return res


def cold_reference(cpu):
    """Cold verdict fingerprints of every version, computed once per program
    digest and kept under SCRATCH (verify-cold runs fill the same cache)."""
    path = os.path.join(SCRATCH, "cold-fingerprints-%s.json" % source_digest())
    if not os.path.exists(path):
        save_cold_reference({v: verify_step(Tally(), v, cpu=cpu)["fingerprint"] for v in VERSIONS})
    with open(path) as fh:
        return json.load(fh)


def save_cold_reference(fps):
    path = os.path.join(SCRATCH, "cold-fingerprints-%s.json" % source_digest())
    if not os.path.exists(path) and sorted(fps) == sorted(VERSIONS):
        with open(path, "w") as fh:
            json.dump(fps, fh)


def check_fingerprints(tally, steps, ref, what):
    """The store may never change a verdict: every step's fingerprint must
    equal the same version's cold one."""
    for r in steps:
        tally.check(r["fingerprint"] == ref.get(r["engine"]),
                    "%s: %s verdict fingerprint differs from its cold verdict" % (what, r["engine"]))


def fresh_store():
    store = os.path.join(SCRATCH, "chain-store")
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(store)
    return store


def verify_part(workload, tally, traced, cpu):
    """Returns (steps, verify_s samples, untraced twins of traced steps)."""
    steps, samples, untraced = [], [], []
    if workload == "verify-cold":
        for v in VERSIONS:
            if traced:
                untraced.append(verify_step(tally, v, cpu=cpu))
            steps.append(verify_step(tally, v, traced=traced, cpu=cpu))
        samples.append(sum(r["verify_s"] for r in steps))
    elif workload == "verify-edit-chain":
        for _ in range(1 if traced else CHAIN_SWEEPS):
            store = fresh_store()
            chain = [verify_step(tally, v, store, traced, cpu) for v in VERSIONS]
            chain[-1]["store_bytes"] = os.path.getsize(os.path.join(store, "store.data"))
            steps.extend(chain)
            samples.append(sum(r["verify_s"] for r in chain))
        if traced:
            store = fresh_store()
            untraced.extend(verify_step(tally, v, store, cpu=cpu) for v in VERSIONS)
    else:
        for _ in range(PREDEPLOY_REPEATS):
            if traced:
                untraced.append(verify_step(tally, SERVED, cpu=cpu))
            steps.append(verify_step(tally, SERVED, traced=traced, cpu=cpu))
        samples.extend(r["verify_s"] for r in steps)
    return steps, samples, untraced


# --------------------------------------------------------------------------
# Serving
# --------------------------------------------------------------------------


def udp_part(tally, seed, seconds, cpus_, setups, traced):
    """Spawn the server [setups] times (the last one takes the load), drive
    it in an open loop over UDP, reconcile its stats with the client's."""
    srv_cpu, cli_cpu = (cpus_[1], cpus_[0]) if len(cpus_) >= 2 else (None, None)
    spawn_s = []
    server = None
    try:
        for i in range(setups):
            server = Server(srv_cpu)
            spawn_s.append(server.first_reply_s)
            if i < setups - 1:
                server.stop()
                tally.rss.append(server.rss_mb)
                server = None
        # The traced run reports the UDP percentiles, so it needs 1000
        # replies per rate for a p99; untraced runs only check correctness.
        per_rate = max(1000, int(40 * seconds)) if traced else max(500, int(20 * seconds))
        _, load, _ = run_child([HELPER, "load", "--port", str(server.port), "--seed", str(seed),
                                "--queries", str(per_rate)], cpu=cli_cpu)
        stats = server.scrape()
    finally:
        if server is not None:
            server.stop()
            tally.rss.append(server.rss_mb)
    tally.attempted += load["attempted"]
    tally.failed += load["failed"]
    for ph in load["phases"]:
        tally.problems.extend("udp %s %s" % (ph["phase"], f) for f in ph["failures"])
    reconcile(tally, load, stats, server.probes)
    return spawn_s, load


def reconcile(tally, load, stats, probes):
    """The server's own counters must match what the client saw, exactly:
    every disposition, every rcode (the set-up probes' NOERROR answers
    included), and no degraded answers at all."""
    c = stats["counters"]
    want = dict(load["rcodes"])
    want["NOERROR"] = want.get("NOERROR", 0) + probes
    served = sum(c.get("serve." + k, 0) for k in ("answered", "formerr", "notimp", "servfail", "dropped"))
    replies = load["replies"] + load["stray"] + probes
    checks = [(served == replies, "server disposed of %d datagrams, client got %d replies" % (served, replies)),
              (c.get("serve.servfail", 0) == 0, "server degraded %d queries to SERVFAIL" % c.get("serve.servfail", 0)),
              (c.get("serve.dropped", 0) == 0, "server dropped %d datagrams" % c.get("serve.dropped", 0))]
    for rc in ("NOERROR", "FORMERR", "SERVFAIL", "NXDOMAIN", "NOTIMP", "REFUSED"):
        got = c.get("serve.rcode." + rc, 0)
        checks.append((got == want.get(rc, 0), "server counted %d %s, client saw %d" % (got, rc, want.get(rc, 0))))
    for ok, what in checks:
        tally.check(ok, "stats reconciliation: " + what)


def replay_part(tally, seed, seconds, cpu):
    _, rep, _ = run_child([HELPER, "replay", "--seed", str(seed),
                           "--queries", str(max(1000, int(120 * seconds)))], cpu=cpu)
    tally.calibration["serve"].extend(rep["calibration"])
    tally.attempted += rep["attempted"]
    tally.failed += rep["failed"]
    tally.problems.extend("replay " + f for f in rep["failures"])
    return rep


def udp_pct(load, phase, key):
    p = next(ph for ph in load["phases"] if ph["phase"] == phase)[key]
    if "value" not in p:
        raise BenchError("%s at %s has fewer than 10 samples beyond it (n=%d)" % (key, phase, p["n"]))
    return p["value"]


# --------------------------------------------------------------------------
# Per-layer ledger (traced runs)
# --------------------------------------------------------------------------


def ratio(a, b):
    return a / b if b else 0.0


def ledger(steps, untraced, probe, load, slowdown):
    """Per-layer metrics: the verification's span self times and registry
    counters summed over the traced steps, the serve path's layers timed in
    process, and the UDP path."""
    counters, hsum, self_s = {}, {}, {}
    for r in steps:
        for k, v in r["metrics"]["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in r["metrics"]["hist_sums"].items():
            hsum[k] = hsum.get(k, 0.0) + v
        for k, v in r["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v["s"]
    c = lambda k: counters.get(k, 0)
    verify_s = sum(r["verify_s"] for r in steps)
    # Exclusive times that partition each step's verify_s; whatever they
    # leave (the verify span's own time, Store.close) is unattributed.
    attributed = {
        "analysis.analyze_s": self_s.get("analyze", 0.0),
        "symex.exec_self_s": self_s.get("exec", 0.0),
        "symex.summarize_self_s": self_s.get("summarize", 0.0),
        "refine.layers_s": self_s.get("layer", 0.0),
        "refine.qtype_s": sum(self_s.get(k, 0.0) for k in ("qtype", "attempt", "check")),
        "store.open_s": sum(r["store_open_s"] for r in steps),
    }
    m = {k: (v, "s") for k, v in attributed.items()}
    m["pipeline.verify_s"] = (verify_s, "s")
    m["pipeline.unattributed_s"] = (verify_s - sum(attributed.values()), "s")
    m["golite.compile_s"] = (statistics.median([r["setup_s"] for r in steps]), "s")
    m["analysis.panic_checks"] = (c("analysis.panic_checks"), "count")
    m["analysis.discharge_ratio"] = (ratio(c("analysis.panic_discharged"), c("analysis.panic_checks")), "ratio")
    m["symex.paths"] = (c("budget.paths"), "count")
    m["symex.fuel"] = (c("budget.fuel"), "count")
    m["summary.hit_ratio"] = (ratio(c("summary.hits"), c("summary.hits") + c("summary.misses")), "ratio")
    m["smt.check_s"] = (hsum.get("solver.check_seconds", 0.0), "s")
    m["smt.checks"] = (c("solver.checks"), "count")
    m["smt.fast_path"] = (c("solver.fast_path"), "count")
    m["smt.cache_hit_ratio"] = (ratio(c("solver.cache_hits"), c("solver.cache_hits") + c("solver.cache_misses")), "ratio")
    m["smt.dpllt_iterations"] = (c("solver.dpllt_iterations"), "count")
    m["smt.conflicts"] = (c("solver.conflicts"), "count")
    m["smt.unknowns"] = (c("solver.unknowns"), "count")
    m["cert.validate_s"] = (hsum.get("cert.validate_seconds", 0.0), "s")
    m["cert.checks"] = (c("solver.cert_checks"), "count")
    m["cert.failures"] = (c("solver.cert_failures"), "count")
    m["store.hit_ratio"] = (ratio(c("store.hits"), c("store.hits") + c("store.misses")), "ratio")
    m["store.appends"] = (c("store.appends"), "count")
    m["store.evictions"] = (c("store.evictions"), "count")
    m["store.cert_failures"] = (c("store.cert_failures"), "count")
    m["store.bytes"] = (max(r.get("store_bytes", 0) for r in steps), "bytes")
    m["fingerprint.cone_s"] = (sum(r["cone_s"] for r in steps), "s")
    m["trace.verify_overhead_ratio"] = (ratio(verify_s, sum(r["verify_s"] for r in untraced)), "ratio")
    # The serve path's layers, in process.
    m["engine.run_us.p50"] = (probe["engine_p50_us"], "us")
    m["engine.run_us.p99"] = (probe["engine_p99_us"], "us")
    m["engine.alloc_words"] = (probe["alloc_words"], "words")
    m["wire.decode_us"] = (probe["decode_us"], "us")
    m["wire.encode_us"] = (probe["encode_us"], "us")
    m["wire.decode_errors"] = (probe["decode_errors"], "count")
    m["serve.handle_us.p50"] = (probe["handle_p50_us"], "us")
    m["serve.handle_us.p99"] = (probe["handle_p99_us"], "us")
    m["serve.self_us"] = (probe["serve_self_us"], "us")
    m["obsv.sink_us"] = (probe["sink_us"], "us")
    m["spec.resolve_us"] = (probe["resolve_us"], "us")
    m["trace.serve_overhead_ratio"] = (probe["trace_overhead_ratio"], "ratio")
    # The UDP path: what the kernel and the host add on top.
    for name, _ in UDP_RATES:
        m["udp.p50_ms." + name] = (udp_pct(load, name, "p50_ms"), "ms")
        m["udp.p99_ms." + name] = (udp_pct(load, name, "p99_ms"), "ms")
    m["udp.overhead_us"] = (udp_pct(load, "r200", "p50_ms") * 1000.0 - probe["handle_p50_us"], "us")
    m["loadgen.late_p99_ms"] = (max(udp_pct(load, name, "late_p99_ms") for name, _ in UDP_RATES), "ms")
    m["loadgen.timeouts"] = (sum(p["timeouts"] for p in load["phases"]), "count")
    classes = {}
    for p in load["phases"]:
        for k, v in p["classes"].items():
            classes[k] = classes.get(k, 0) + v
    for k in ("noerror", "nxdomain", "refused", "formerr", "servfail_spec"):
        m["mix." + k] = (classes.get(k, 0), "count")
    m["host.slowdown"] = (slowdown, "ratio")
    return m


# --------------------------------------------------------------------------
# A run
# --------------------------------------------------------------------------


def run(workload, seed, seconds, traced):
    os.makedirs(SCRATCH, exist_ok=True)
    build()
    cpus_ = cpus()
    main_cpu = cpus_[0] if len(cpus_) >= 2 else None
    tally = Tally()
    detail = {}
    metrics = {}

    steps, samples, untraced = verify_part(workload, tally, traced, main_cpu)
    if workload == "verify-cold" and tally.failed == 0:
        save_cold_reference({r["engine"]: r["fingerprint"] for r in steps})
    check_fingerprints(tally, steps + untraced, cold_reference(main_cpu), workload)

    spawn_s, load = udp_part(tally, seed, seconds, cpus_, SERVE_SETUPS if workload == "serve-udp" else 1, traced)

    if traced:
        _, probe, _ = run_child([HELPER, "layers", "--seed", str(seed)], cpu=main_cpu)
        for k, (v, unit) in ledger(steps, untraced, probe, load, tally.slowdown("verify")).items():
            metrics[k] = {"value": v, "unit": unit}
    else:
        rep = replay_part(tally, seed, seconds, main_cpu)
        setup = spawn_s if workload == "serve-udp" else [r["setup_s"] for r in steps]
        slow = {part: tally.slowdown(part) for part in tally.calibration}
        # (metric, raw value, unit, calibration it is scaled by, sample count)
        raw = [("setup_s", statistics.median(setup), "s", "verify", len(setup)),
               ("verify_s", statistics.median(samples), "s", "verify", len(samples))]
        for name, qps in UDP_RATES:
            at = rep["rates"][str(qps)]
            raw.append(("serve_p50_ms." + name, at["p50_ms"], "ms", "serve", at["n"]))
            raw.append(("serve_p99_ms." + name, at["p99_ms"], "ms", "serve", at["n"]))
        raw.append(("serve_capacity_qps", rep["capacity_qps"], "1/s", "serve", rep["attempted"]))
        for k, v, unit, part, n in raw:
            value = v * slow[part] if unit == "1/s" else v / slow[part]
            if not value > 0:
                raise BenchError("%s measured %r" % (k, v))
            metrics[k] = {"value": value, "unit": unit}
            detail[k] = {"raw": v, "n": n}
        metrics["peak_rss_mb"] = {"value": max(tally.rss), "unit": "MB"}
        detail["peak_rss_mb"] = {"raw": max(tally.rss), "n": len(tally.rss)}
        detail["host_slowdown"] = slow
        detail["udp"] = {"%s.%s" % (key, name): udp_pct(load, name, key)
                         for name, _ in UDP_RATES for key in ("p50_ms",)}

    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": cpus_,
        "recommended_domain_count": steps[0]["recommended_domains"],
        "jobs": steps[0]["jobs"],
        "ocaml": steps[0]["ocaml"],
        "transport": "udp over loopback 127.0.0.1; client and server pinned to separate cpus"
        if len(cpus_) >= 2 else "udp over loopback 127.0.0.1; one cpu, unpinned",
        "fail_ratio": ratio(tally.failed, tally.attempted),
    }
    for p in tally.problems[:20]:
        log("FAILED: " + p)
    print(json.dumps({"provenance": provenance, "samples": detail}))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    try:
        code = run(a.workload, a.seed, a.seconds, a.trace == 1)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
