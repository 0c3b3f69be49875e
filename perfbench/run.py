#!/usr/bin/env python3
"""EVA benchmark: serving fleet, GA sizing and pretraining.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet|sizing|pretrain|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the EVA libraries, the three fleet daemons and the
in-process harness) into .bench_build/, runs one workload and prints, as
its last line, {"correct", "attempted", "failed", "metrics"}; "all" runs
the three in turn and ends with their metrics by workload. --trace 0
reports the end-to-end metrics of an untraced run; --trace 1 the
per-layer metrics of a traced run. Logs, run records and Chrome traces
go to .bench_out/. README.md in this directory explains every workload
and metric.
"""

import argparse
import gc
import hashlib
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import benchlib  # noqa: E402
from benchlib import median, percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
# FoMs of a fixed reference subset that every sizing run must reproduce.
SIZING_REFERENCE = ROOT / "perfbench" / "sizing_reference.txt"
TARGETS = ("eva_perfbench", "eva_serve_main", "eva_router_main",
           "eva_cache_main")

SETUPS = 5               # set-ups per run; setup_s is their median
FLEET_LIMIT_MS = 1000.0  # latency limit for fleet throughput
# The in-process workloads do a fixed amount of work per run, sized from
# --seconds at these nominal rates, so one seed always sizes the same
# topologies and trains the same steps however fast the host is.
PRETRAIN_STEPS_PER_S = 11
SIZING_PER_S = 17
WARMUP_LINE = json.dumps({"type": "Op-Amp", "n": 8, "seed": 1})
# A traced fleet segment lasts at least this long: >= 100 misses, so
# queue_ms_p90 keeps 10 samples beyond it.
FLEET_TRACED_MIN_S = 27.0
# Length of the other workloads' companion runs inside a traced run.
COMPANION = {"fleet": FLEET_TRACED_MIN_S, "sizing": 4.0, "pretrain": 4.0}

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    digest: str
    threads: int       # harness threads (its own plus the harness binary's)
    connections: int   # harness connections to the fleet
    # In-process runs: the end-to-end figures from raw wall-clock times
    # (the metrics are at the reference speed) and the kernel's median.
    wall_clock: dict = field(default_factory=dict)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child_env(extra=None):
    """Children run with default config: no EVA_* overrides, no tracing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EVA_")}
    env["TMPDIR"] = str(BUILD / "tmp")
    env.update(extra or {})
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"EVA sources not found under {ROOT}/src")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env()
    with open(BUILD / "build.log", "a") as logf:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                            str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=logf, stderr=logf, env=env)
        subprocess.run(["cmake", "--build", str(BUILD), "-j",
                        str(os.cpu_count() or 1), "--target", *TARGETS],
                       check=True, stdout=logf, stderr=logf, env=env)
    return {
        "harness": BUILD / "eva_perfbench",
        "serve": BUILD / "eva" / "serve" / "eva_serve_main",
        "router": BUILD / "eva" / "serve" / "eva_router_main",
        "cache": BUILD / "eva" / "serve" / "eva_cache_main",
    }


def run_harness(bins, args, spans=None, trace_name=None):
    """Runs the harness binary and returns its JSON document; with `spans`
    it runs traced and its spans join the run's trace."""
    cmd = [str(bins["harness"]), *args]
    trace_path = None
    if spans is not None:
        trace_path = OUT / f"{trace_name}.cpp-trace.json"
        cmd += ["--trace", str(trace_path)]
    launched = clock()
    with open(OUT / "harness.log", "a") as errf:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=errf,
                              env=child_env(), timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if trace_path is not None:
        spans.merge_file(trace_path, launched)
        trace_path.unlink()
    return doc


# ---------------------------------------------------------------------------
# Fleet: 2 replicas + cache sidecar + router on loopback, OS-assigned ports.

class Fleet:
    def __init__(self, bins, tag):
        self.bins = bins
        self.tag = tag
        self.procs = {}
        self.ports = {}

    def _spawn(self, name, binary, env):
        logf = open(OUT / f"{self.tag}-{name}.log", "w")
        proc = subprocess.Popen([str(binary)], stdout=subprocess.PIPE,
                                stderr=logf, env=child_env(env))
        logf.close()
        self.procs[name] = proc

    def _await_listening(self, name, banner, deadline):
        """Blocks on the process's own "<banner> listening on port N"."""
        proc = self.procs[name]
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        buf = b""
        try:
            while True:
                left = deadline - clock()
                if left <= 0 or not sel.select(left):
                    raise BenchError(f"{name} did not report listening")
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(f"{name} exited before listening "
                                     f"(code {proc.wait()})")
                buf += chunk
                for line in buf.decode(errors="replace").splitlines():
                    prefix = f"{banner} listening on port "
                    if line.startswith(prefix):
                        self.ports[name] = int(line[len(prefix):])
                        return
        finally:
            sel.close()

    def start(self):
        """Spawns the fleet and waits for the warm-up answer; returns the
        set-up time in seconds."""
        t0 = clock()
        deadline = t0 + 60.0
        for i in range(2):
            self._spawn(f"replica{i}", self.bins["serve"],
                        {"EVA_SERVE_PORT": "0"})
        self._spawn("cache", self.bins["cache"], {"EVA_CACHE_PORT": "0"})
        for i in range(2):
            self._await_listening(f"replica{i}", "eva_serve", deadline)
        self._await_listening("cache", "eva_cache", deadline)
        backends = ",".join(f"127.0.0.1:{self.ports[f'replica{i}']}"
                            for i in range(2))
        self._spawn("router", self.bins["router"], {
            "EVA_ROUTER_PORT": "0", "EVA_ROUTER_BACKENDS": backends,
            "EVA_ROUTER_CACHE": f"127.0.0.1:{self.ports['cache']}"})
        self._await_listening("router", "eva_router", deadline)
        reply = roundtrip(self.ports["router"], WARMUP_LINE, 30.0)
        if json.loads(reply[-1]).get("status") != "ok":
            raise BenchError(f"warm-up request failed: {reply[-1]}")
        return clock() - t0

    def peak_rss_mb(self):
        total_kb = 0
        for name, proc in self.procs.items():
            with open(f"/proc/{proc.pid}/status") as f:
                hwm = [ln for ln in f if ln.startswith("VmHWM:")]
            if not hwm:
                raise BenchError(f"no VmHWM for {name}")
            total_kb += int(hwm[0].split()[1])
        return total_kb / 1024.0

    def stop(self):
        """SIGTERM, then SIGKILL after 10 s; returns only once every fleet
        process has exited, so none outlives the run."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        alive = [n for n, p in self.procs.items() if p.returncode is None]
        if alive:
            raise BenchError(f"fleet processes still running: {alive}")
        self.procs = {}


def roundtrip(port, line, timeout_s):
    """One request on a fresh connection; returns its response lines."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError(f"connection closed after {line}")
            buf += chunk
            lines = buf.decode().splitlines()
            if buf.endswith(b"\n") and '"done"' in lines[-1]:
                return lines


def stats(port):
    return json.loads(roundtrip(port, json.dumps({"cmd": "stats"}), 10.0)[-1])


class Outcome:
    """What happened to one scheduled request."""
    __slots__ = ("arrival", "send", "done", "status", "items", "term",
                 "error", "lines")

    def __init__(self, arrival):
        self.arrival = arrival
        self.send = self.done = None
        self.status = None
        self.items = []
        self.term = None
        self.error = None
        self.lines = []


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setblocking(False)
        self.buf = b""
        self.req = None


REQUEST_TIMEOUT_S = 10.0


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


def parse_line(raw):
    """One protocol line as a JSON object. Numbers keep their text, so
    repeats compare byte for byte; NaN and Infinity are rejected."""
    msg = json.loads(raw, parse_float=str, parse_int=str,
                     parse_constant=_no_constants)
    if not isinstance(msg, dict):
        raise ValueError("not a JSON object")
    return msg


def drive(port, schedule, max_conns, t_base, spans=None):
    """Single-threaded open-loop generator over `max_conns` persistent
    connections, all opened before the first due time. A request due
    while every connection is busy waits for one; its latency still
    counts from its due time. Returns outcomes in schedule order."""
    sel = selectors.DefaultSelector()
    idle = []
    busy = set()

    def open_conn():
        c = Conn(port)
        sel.register(c.sock, selectors.EVENT_READ, c)
        idle.append(c)

    def drop(c):
        sel.unregister(c.sock)
        c.sock.close()
        busy.discard(c)
        if c in idle:
            idle.remove(c)
        open_conn()

    def finish(c, status, term=None, error=None):
        o = c.req
        o.done = clock()
        o.status, o.term, o.error = status, term, error
        c.req = None
        busy.discard(c)
        if spans is not None and o.arrival.index % 2 == 0:
            i = o.arrival.index
            due = t_base + o.arrival.due_s
            parent = spans.add("fleet.request", due, o.done, i)
            spans.add("loadgen.wait", due, o.send, i, parent)
            spans.add("router.roundtrip", o.send, o.done, i, parent)

    for _ in range(max_conns):
        open_conn()
    outcomes = [Outcome(a) for a in schedule]
    originals = {a.index: a for a in schedule}
    nxt = 0
    waiting = []
    while nxt < len(outcomes) or waiting or busy:
        now = clock()
        while nxt < len(outcomes) and \
                t_base + outcomes[nxt].arrival.due_s <= now:
            waiting.append(outcomes[nxt])
            nxt += 1
        while waiting and idle:
            o = waiting.pop(0)
            c = idle.pop()
            c.req = o
            busy.add(c)
            o.send = clock()
            try:
                c.sock.sendall(o.arrival.line(originals).encode() + b"\n")
            except OSError as e:
                finish(c, "transport", error=str(e))
                drop(c)
        timeout = 0.05 if busy else None
        if nxt < len(outcomes):
            until_due = max(0.0, t_base + outcomes[nxt].arrival.due_s - clock())
            timeout = until_due if timeout is None else min(timeout, until_due)
        for key, _ in sel.select(timeout):
            c = key.data
            try:
                chunk = c.sock.recv(1 << 16)
                err = "connection closed"
            except OSError as e:
                chunk, err = b"", str(e)
            if not chunk:
                if c.req is not None:
                    finish(c, "transport", error=err)
                drop(c)
                continue
            c.buf += chunk
            *lines, c.buf = c.buf.split(b"\n")
            for raw in lines:
                o = c.req
                if o is None:
                    break
                o.lines.append(raw)
                try:
                    msg = parse_line(raw)
                except ValueError:
                    finish(c, "malformed", error=raw[:200])
                    drop(c)
                    break
                if msg.get("done") is True:
                    finish(c, msg.get("status"), term=msg)
                    idle.append(c)
                else:
                    o.items.append(msg)
        now = clock()
        for c in list(busy):
            if now - c.req.send > REQUEST_TIMEOUT_S:
                finish(c, "timeout")
                drop(c)
    for key in list(sel.get_map().values()):
        key.fileobj.close()
    sel.close()
    return outcomes


def check_fleet(outcomes):
    """Output checks: exactly 8 item lines and one ok terminator per
    request, every line a JSON object (drive() fails a request on the
    first line that is not), valid implies decoded, every FoM finite and
    >= 0, and each repeat byte-identical to its original in netlist, valid
    and FoM. Returns (failed count, problems, digest)."""
    failed = 0
    problems = []
    digest = hashlib.sha256()
    by_index = {o.arrival.index: o for o in outcomes}

    def item_key(it):
        return (it.get("netlist"), it.get("valid"), it.get("fom"))

    for o in outcomes:
        i = o.arrival.index
        if o.status != "ok":
            failed += 1
            problems.append(f"request {i}: {o.status} {o.error or ''}".strip())
            continue
        if o.term.get("items") != "8" or len(o.items) != 8:
            problems.append(f"request {i}: {len(o.items)} item lines, "
                            f"terminator says {o.term.get('items')}")
        for it in o.items:
            if it.get("valid") is True and it.get("decoded") is not True:
                problems.append(f"request {i}: valid but not decoded")
            if not benchlib.finite_nonneg(it.get("fom")):
                problems.append(f"request {i}: FoM {it.get('fom')!r}")
        ref = by_index.get(o.arrival.repeat_of)
        if ref is not None and ref.status == "ok" and \
                [item_key(x) for x in o.items] != \
                [item_key(x) for x in ref.items]:
            problems.append(f"repeat {i} differs from request {ref.arrival.index}")
        for it in o.items:
            digest.update(json.dumps(item_key(it)).encode())
    return failed, problems, digest.hexdigest()[:16]


def fleet_segment(bins, seed, seconds, tag, setups, spans=None):
    """Fresh fleets: `setups` set-ups (the last fleet stays up), the open
    loop, then peak memory and, when traced, the stats and sidecar probes.
    Every fleet process has exited when this returns."""
    max_conns = max(1, (os.cpu_count() or 1) - benchlib.own_threads())
    schedule = benchlib.make_schedule(seed, seconds)
    setup_s = []
    fleet = None
    try:
        for i in range(setups):
            if fleet is not None:
                fleet.stop()
            fleet = Fleet(bins, f"{tag}-{i}")
            setup_s.append(fleet.start())
        router = fleet.ports["router"]
        replicas = [fleet.ports[f"replica{i}"] for i in range(2)]
        if spans is not None:
            before = [stats(router)["router"]] + \
                [stats(p)["stats"] for p in replicas]
        gc.disable()  # a collection would stall the one-thread generator
        try:
            t_base = clock() + 0.05
            outcomes = drive(router, schedule, max_conns, t_base, spans)
        finally:
            gc.enable()
        last_done = max(o.done for o in outcomes)
        seg = {"setups": setup_s, "outcomes": outcomes, "t_base": t_base,
               "window_s": last_done - t_base, "max_conns": max_conns,
               "peak_rss_mb": fleet.peak_rss_mb()}
        if spans is not None:
            seg["before"] = before
            seg["after"] = [stats(router)["router"]] + \
                [stats(p)["stats"] for p in replicas]
            seg["sidecar"] = probe_sidecar(fleet.ports["cache"], outcomes,
                                           spans)
        return seg
    finally:
        if fleet is not None:
            fleet.stop()


def probe_sidecar(port, outcomes, spans, rounds=60):
    """cache_put and cache_get round trips at the workload's payload size
    (one served response), timed by the harness."""
    sample = next(o for o in outcomes if o.status == "ok")
    payload = b"\n".join(sample.lines).decode() + "\n"
    put_ms, get_ms = [], []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        reader = s.makefile("rb")
        for i in range(rounds):
            key = f"perfbench-probe-{i}"
            for cmd, acc in (("cache_put", put_ms), ("cache_get", get_ms)):
                msg = {"cmd": cmd, "key": key}
                if cmd == "cache_put":
                    msg["value"] = payload
                t0 = clock()
                s.sendall(json.dumps(msg).encode() + b"\n")
                reply = json.loads(reader.readline())
                t1 = clock()
                acc.append((t1 - t0) * 1e3)
                spans.add(f"sidecar.{cmd}", t0, t1, i)
                if cmd == "cache_get" and reply.get("value") != payload:
                    raise BenchError("sidecar returned a different payload")
    return {"put_ms": put_ms, "get_ms": get_ms}


def fleet_e2e(seg):
    ok = [o for o in seg["outcomes"] if o.status == "ok"]
    latency = [(o.done - seg["t_base"] - o.arrival.due_s) * 1e3 for o in ok]
    within = sum(1 for x in latency if x <= FLEET_LIMIT_MS)
    return {
        "setup_s": median(seg["setups"]),
        "throughput_per_s": within / seg["window_s"],
        "latency_p50_ms": median(latency),
        "latency_p90_ms": tail_percentile(latency, 90),
        "peak_rss_mb": seg["peak_rss_mb"],
    }


def run_fleet(bins, seed, seconds):
    seg = fleet_segment(bins, seed, seconds, "run", SETUPS)
    failed, problems, digest = check_fleet(seg["outcomes"])
    return Result(fleet_e2e(seg), len(seg["outcomes"]), failed, problems,
                  digest, benchlib.own_threads(), seg["max_conns"])


REPLAY_REQUESTS = 40


def overhead_pct(traced, untraced):
    """Tracing overhead from one run whose operations alternate between
    traced and untraced, so host drift between time windows cannot bias
    it."""
    return 100.0 * (median(traced) / median(untraced) - 1.0)


def fleet_layers(bins, seed, seconds, spans, own):
    """Per-layer metrics of the fleet from one segment in which the
    even-indexed requests are traced."""
    seconds = max(seconds, FLEET_TRACED_MIN_S)
    out = {}
    seg = fleet_segment(bins, seed, seconds, "traced", 1, spans)
    outcomes = seg["outcomes"]
    t_base = seg["t_base"]
    ok = [o for o in outcomes if o.status == "ok"]
    misses = [o for o in ok if o.arrival.repeat_of < 0]
    repeats = [o for o in ok if o.arrival.repeat_of >= 0]
    if own:  # even-indexed requests are the traced ones
        latency = {o.arrival.index: o.done - t_base - o.arrival.due_s
                   for o in misses}
        out["trace.overhead_pct"] = overhead_pct(
            [t for i, t in latency.items() if i % 2 == 0],
            [t for i, t in latency.items() if i % 2 == 1])

    def stage(o, k):
        return float(o.term["stages"][k])

    def delta(idx, *path):
        a, b = seg["after"][idx], seg["before"][idx]
        for k in path:
            a, b = a[k], b[k]
        return a - b

    out["serve.router.hop_ms_p50"] = median(
        [(o.done - o.send) * 1e3 - float(o.term["latency_ms"])
         for o in misses])
    out["serve.router.hit_ms_p50"] = median(
        [(o.done - o.send) * 1e3 for o in repeats])
    hits, miss = delta(0, "cache_hits"), delta(0, "cache_misses")
    out["serve.router.hit_frac"] = hits / max(1, hits + miss)
    out["serve.sidecar.get_ms_p50"] = median(seg["sidecar"]["get_ms"])
    out["serve.sidecar.put_ms_p50"] = median(seg["sidecar"]["put_ms"])
    out["serve.service.decode_ms_p50"] = median(
        [stage(o, "decode_ms") for o in misses])
    out["serve.service.queue_ms_p90"] = tail_percentile(
        [stage(o, "queue_ms") for o in misses], 90)
    out["serve.service.verify_ms_sum"] = sum(
        stage(o, "verify_ms") for o in misses)
    out["serve.service.busy_frac"] = sum(
        float(o.term["latency_ms"]) - stage(o, "queue_ms")
        for o in misses) / (2 * seg["window_s"] * 1e3)
    c_hits = sum(delta(i, "cache", "hits") for i in (1, 2))
    c_miss = sum(delta(i, "cache", "misses") for i in (1, 2))
    out["serve.service.result_cache_hit_frac"] = c_hits / max(1, c_hits + c_miss)
    out["nn.decode.ms_per_token"] = sum(
        stage(o, "decode_ms") for o in misses) / max(
            1, sum(int(o.term["tokens"]) for o in misses))
    out["serve.valid_items"] = sum(
        1 for o in ok for it in o.items if it.get("valid") is True)
    out["loadgen.lateness_ms_p90"] = percentile(
        [(o.send - t_base - o.arrival.due_s) * 1e3 for o in outcomes], 90)

    # Decode replay: the first misses' seeds through a decoder built like
    # a replica's, and the decode step split. The replay must decode the
    # netlists the fleet served.
    replayed = misses[:REPLAY_REQUESTS]
    seeds_file = OUT / "replay-seeds.txt"
    seeds_file.write_text("\n".join(
        str(o.arrival.seed) for o in replayed) + "\n")
    doc = run_harness(bins, ["decode", "--seeds-file", str(seeds_file)],
                      spans, "decode")
    served = "".join(it.get("netlist", "") + "\n"
                     for o in replayed for it in o.items)
    for k in ("nn.decode.occupancy", "nn.decode.forward_ms_per_step_w8",
              "nn.decode.forward_ms_per_step_w1",
              "nn.decode.sample_ms_per_step"):
        out[k] = doc["values"][k]
    for k in ("circuit.ids_to_netlist_us", "circuit.canonical_hash_us"):
        out[k] = median(doc["samples"][k])
    failed, problems, digest = check_fleet(outcomes)
    if benchlib.fnv1a(served.encode()) != doc["digest"]:
        problems.append("decode replay differs from the served netlists")
    return Result(out, len(outcomes), failed, problems, digest,
                  benchlib.own_threads(), seg["max_conns"])


# ---------------------------------------------------------------------------
# In-process workloads, run by the harness binary at pool width 1.

def pretrain_steps(seconds):
    return max(20, round(PRETRAIN_STEPS_PER_S * seconds))


def sizing_rounds(seconds):
    return max(2, round(SIZING_PER_S * seconds / len(benchlib.CIRCUIT_TYPES)))


def harness_result(doc, metrics):
    return Result(metrics, doc["attempted"], doc["failed"], doc["problems"],
                  doc["digest"],
                  benchlib.own_threads() + int(doc["values"]["harness_threads"]),
                  0)


def sizing_args(seed, seconds, setups):
    return ["sizing", "--seed", str(seed), "--rounds",
            str(sizing_rounds(seconds)), "--setups", str(setups),
            "--reference", str(SIZING_REFERENCE)]


def in_process_result(doc, times_key, work):
    """End-to-end metrics of an untraced in-process run, from its operation
    times at the reference speed; `work` is what the operations did, in
    units of throughput_per_s. The raw wall-clock figures go beside them."""
    s = doc["samples"]

    def figures(op_ms, setup_s):
        return {
            "setup_s": median(setup_s),
            "throughput_per_s": work / (sum(op_ms) / 1e3),
            "latency_p50_ms": median(op_ms),
            "latency_p90_ms": tail_percentile(op_ms, 90),
            "peak_rss_mb": doc["values"]["peak_rss_kb"] / 1024.0,
        }

    r = harness_result(doc, figures(
        benchlib.at_reference_speed(s[times_key], s["ref_ms"]),
        benchlib.at_reference_speed(s["setup_s"], s["setup_ref_ms"])))
    r.wall_clock = figures(s[times_key], s["setup_s"])
    r.wall_clock["reference_ms_p50"] = median(s["ref_ms"])
    return r


def run_sizing(bins, seed, seconds):
    doc = run_harness(bins, sizing_args(seed, seconds, SETUPS))
    return in_process_result(doc, "call_ms", len(doc["samples"]["call_ms"]))


def run_pretrain(bins, seed, seconds):
    doc = run_harness(bins, ["pretrain", "--seed", str(seed), "--steps",
                             str(pretrain_steps(seconds)), "--setups",
                             str(SETUPS)])
    return in_process_result(doc, "step_ms",
                             sum(doc["samples"]["step_tokens"]))


def sizing_layers(bins, seed, seconds, spans, own):
    doc = run_harness(bins, sizing_args(seed, seconds, 1), spans, "sizing")
    v, s = doc["values"], doc["samples"]
    out = {k: v[k] for k in (
        "opt.ga.evaluations_per_topology", "opt.ga.overhead_frac",
        "spice.dc_solves", "spice.nr_iters_mean",
        "spice.dc_nonconverged_frac", "spice.dc_deadline_exceeded",
        "data.build_s", "data.accept_frac")}
    for k in ("evaluate", "solve_dc", "ac_sweep", "fom"):
        out[f"spice.{k}_us_p50"] = median(s[f"spice.{k}_us"])
    if own:  # even-indexed topologies are the traced ones
        out["trace.overhead_pct"] = overhead_pct(s["call_ms"][0::2],
                                                 s["call_ms"][1::2])
    return harness_result(doc, out)


def pretrain_layers(bins, seed, seconds, spans, own):
    doc = run_harness(bins, ["pretrain", "--seed", str(seed), "--steps",
                             str(pretrain_steps(seconds)), "--setups", "1"],
                      spans, "pretrain")
    v, s = doc["values"], doc["samples"]
    out = {k: v[k] for k in ("tensor.gemm_flops_per_step",
                             "tensor.minor_faults_per_step",
                             "util.pool.speedup", "util.pool.idle_frac",
                             "data.build_s", "data.accept_frac")}
    for k in ("forward", "backward", "optim"):
        out[f"tensor.{k}_ms"] = median(s[f"tensor.{k}_ms"])
    for k in ("nn", "nt", "tn"):
        out[f"tensor.gemm_gflops_{k}"] = median(s[f"tensor.gemm_{k}_gflops"])
    if own:  # even steps are the traced ones; per token, as batches differ
        per_token = [ms / tok for ms, tok in zip(s["step_ms"], s["step_tokens"])]
        out["trace.overhead_pct"] = overhead_pct(per_token[0::2],
                                                 per_token[1::2])
    return harness_result(doc, out)


# workload -> (untraced end-to-end run, traced per-layer run)
WORKLOADS = {
    "fleet": (run_fleet, fleet_layers),
    "sizing": (run_sizing, sizing_layers),
    "pretrain": (run_pretrain, pretrain_layers),
}


def traced_run(bins, workload, seed, seconds):
    """Per-layer metrics of every layer: the workload's own layers from a
    traced run of it (with its untraced twin for the overhead), the other
    workloads' layers from shorter traced companion runs."""
    spans = benchlib.Spans(clock)
    metrics = {}
    own_result = None
    companion_problems = []
    for name, (_, layers) in WORKLOADS.items():
        own = name == workload
        t0 = clock()
        r = layers(bins, seed, seconds if own else COMPANION[name], spans, own)
        spans.add(f"layers.{name}", t0, clock(), seed)
        metrics.update(r.metrics)
        if own:
            own_result = r
        else:
            companion_problems += [f"{name} companion: {p}" for p in r.problems]
            if r.failed:
                companion_problems.append(f"{name} companion: {r.failed} failed")
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    spans.write(trace_path)
    log(f"trace written to {trace_path}")
    own_result.metrics = metrics
    own_result.problems += companion_problems
    return own_result


def run_one(bins, workload, args, names):
    """Runs one workload and prints its host record and result; returns
    (exit code, result document or None)."""
    host = benchlib.HostRecord()
    try:
        if args.trace:
            r = traced_run(bins, workload, args.seed, args.seconds)
        else:
            r = WORKLOADS[workload][0](bins, args.seed, args.seconds)
    except (BenchError, ValueError, OSError, KeyError, StopIteration,
            subprocess.SubprocessError) as e:
        log(f"{workload} failed: {e!r}")
        return 1, None
    record = host.finish(r.threads, r.connections)
    if r.threads + r.connections > record["nproc"]:
        log(f"harness used {r.threads} threads and {r.connections} "
            f"connections on {record['nproc']} CPUs")
        return 3, None
    for p in r.problems:
        log(f"{workload}: check failed: {p}")
    doc = {
        "correct": not r.problems, "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": r.metrics[k], "unit": unit}
                    for k, unit in names.items()},
    }
    name = f"run-{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as f:
        json.dump({"result": doc, "wall_clock": r.wall_clock, "host": record,
                   "digest": r.digest, "problems": r.problems}, f, indent=1)
    print(json.dumps({"workload": workload, "host": record,
                      "wall_clock": r.wall_clock, "digest": r.digest}))
    print(json.dumps(doc), flush=True)
    return (0 if doc["correct"] else 4), doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds like an error, so every fleet process this run
    # started is stopped and reaped before it exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        names = declared_metrics("per_layer" if args.trace else "end_to_end")
        bins = build()
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e} (see {BUILD / 'build.log'})")
        return 2
    except (BenchError, OSError) as e:
        log(f"cannot build the benchmark: {e}")
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        return run_one(bins, args.workload, args, names)[0]
    # All three in turn; the last line gathers their results by name.
    worst, docs = 0, {}
    for workload in WORKLOADS:
        code, doc = run_one(bins, workload, args, names)
        if doc is None:
            return code
        worst, docs[workload] = max(worst, code), doc
    print(json.dumps({
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "workloads": {w: d["metrics"] for w, d in docs.items()},
    }))
    return worst


def declared_metrics(section):
    """Metric names and units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


if __name__ == "__main__":
    sys.exit(main())
