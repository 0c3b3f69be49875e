"""Shared pieces of the EVA benchmark (see README.md in this directory).

One percentile rule, the open-loop request schedule, the host record and
the in-memory span list. run.py uses them; test_benchlib.py tests them.
"""

import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass

# Protocol names of the 11 circuit types (circuit::type_name order).
CIRCUIT_TYPES = ("Op-Amp", "LDO", "Bandgap", "Comparator", "PLL", "LNA",
                 "PA", "Mixer", "VCO", "PowerConverter", "SC-Sampler")

MIN_TAIL = 10  # samples that must lie beyond a reported high percentile


def tail_count(n, pct):
    """Samples strictly beyond the nearest-rank `pct` percentile of n."""
    return n - (pct * n + 99) // 100


def percentile(values, pct):
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value.

    `pct` is an integer in 1..100 so the rank is exact integer arithmetic.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 1 <= pct <= 100:
        raise ValueError(f"percentile {pct} outside 1..100")
    ordered = sorted(values)
    return ordered[(pct * len(ordered) + 99) // 100 - 1]


def tail_percentile(values, pct):
    """`percentile`, refusing a sample too small to leave MIN_TAIL values
    beyond the reported percentile (the run must be made longer)."""
    if tail_count(len(values), pct) < MIN_TAIL:
        raise ValueError(f"p{pct} of {len(values)} samples leaves fewer than "
                         f"{MIN_TAIL} beyond it")
    return percentile(values, pct)


def median(values):
    return percentile(values, 50)


# Host-speed adjustment (README.md): the in-process workloads report each
# operation's time at the reference speed, the host speed at which the
# harness's reference kernel takes REFERENCE_MS.
REFERENCE_MS = 1.0


def at_reference_speed(times, refs):
    """times[i] scaled by REFERENCE_MS over the mean of refs[i] and
    refs[i + 1], the reference kernel's times just before and just after
    operation i."""
    if len(refs) != len(times) + 1:
        raise ValueError(f"{len(times)} operations need {len(times) + 1} "
                         f"reference times, not {len(refs)}")
    return [t * 2.0 * REFERENCE_MS / (refs[i] + refs[i + 1])
            for i, t in enumerate(times)]


# Offered load of `fleet`, open loop. The p90 is steadiest where it sits
# inside the replicas' queueing mode rather than on its edge: on a 4-vCPU
# VM it read 124-311 ms over six seeds at 8 req/s, and at 4 req/s, where
# about 1 request in 10 finds its replica busy, it flipped between ~116
# and ~150 ms. See README.md.
RATE = 5.0          # arrivals per second
REPEAT_FRAC = 0.25  # share of arrivals that repeat an earlier request
MIN_AGE_S = 5.0     # a repeat's original is due at least this much earlier
# Request seeds stay below 2^53: the serving protocol parses every JSON
# number into a double, so larger seeds would reach the replica rounded.
SEED_BITS = 53


@dataclass(frozen=True)
class Arrival:
    index: int
    due_s: float          # offset from the start of the load
    ctype: str
    seed: int
    repeat_of: int        # index of the repeated request, or -1

    def line(self, originals):
        """Request line; a repeat sends its original's request verbatim."""
        src = originals[self.repeat_of] if self.repeat_of >= 0 else self
        return json.dumps({"type": src.ctype, "n": 8, "seed": src.seed})


def make_schedule(seed, seconds):
    """Open-loop Poisson arrivals over [0, seconds) at RATE per second.

    The count is fixed at round(RATE * seconds) and the times are uniform
    order statistics -- a Poisson process conditioned on its count -- so
    every seed offers the same load. Originals cycle through the 11 types,
    each with a unique nonzero seed below 2^SEED_BITS.
    round(REPEAT_FRAC * count) arrivals, drawn among those due at least
    MIN_AGE_S after the first, instead repeat the whole request of an
    original due at least MIN_AGE_S earlier.
    """
    rng = random.Random(seed)
    count = round(RATE * seconds)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    eligible = [i for i, t in enumerate(times) if t >= times[0] + MIN_AGE_S]
    repeats = set(rng.sample(eligible,
                             min(len(eligible), round(REPEAT_FRAC * count))))
    seeds = set()
    originals = []
    out = []
    for i, t in enumerate(times):
        if i in repeats:  # the first arrival is an original old enough
            old = [a.index for a in originals if a.due_s <= t - MIN_AGE_S]
            out.append(Arrival(i, t, "", 0, rng.choice(old)))
            continue
        s = 0
        while s == 0 or s in seeds:
            s = rng.getrandbits(SEED_BITS)
        seeds.add(s)
        ctype = CIRCUIT_TYPES[len(originals) % len(CIRCUIT_TYPES)]
        originals.append(Arrival(i, t, ctype, s, -1))
        out.append(originals[-1])
    return out


def _cpu_fields():
    with open("/proc/stat") as f:
        parts = f.readline().split()
    return [int(x) for x in parts[1:9]]


def spin_ms():
    """Time of a fixed pure-Python loop: a host-speed index. Shared VMs
    switch between speed modes for minutes at a time, and neither steal
    nor load average shows it."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class HostRecord:
    """CPU steal and idle share over a run, load average, nproc and the
    host-speed index at the start and end of the run."""

    def __init__(self):
        self._spin_start = spin_ms()
        self._start = _cpu_fields()

    def finish(self, harness_threads, harness_connections):
        end = _cpu_fields()
        spin = [self._spin_start, spin_ms()]
        delta = [b - a for a, b in zip(self._start, end)]
        total = sum(delta) or 1
        with open("/proc/loadavg") as f:
            load = [float(x) for x in f.read().split()[:3]]
        return {
            "nproc": os.cpu_count(),
            "steal_frac": delta[7] / total,
            "idle_frac": (delta[3] + delta[4]) / total,
            "loadavg": load,
            "spin_ms": spin,
            "harness_threads": harness_threads,
            "harness_connections": harness_connections,
        }


def own_threads():
    return threading.active_count()


class Spans:
    """Spans kept in memory and written once as a Chrome trace."""

    def __init__(self, clock):
        self._t0 = clock()
        self.events = []

    def us(self, t):
        return (t - self._t0) * 1e6

    def add(self, name, start, end, ident, parent=-1, lane="harness"):
        """Records a finished span; returns its index for child spans."""
        self.events.append({"name": name, "ph": "X", "pid": lane, "tid": 1,
                            "ts": self.us(start), "dur": (end - start) * 1e6,
                            "args": {"id": ident, "span": len(self.events),
                                     "parent": parent}})
        return len(self.events) - 1

    def merge_file(self, path, launched_at):
        """Appends a harness binary's trace, shifted to this clock."""
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        shift = self.us(launched_at)
        for ev in events:
            ev["ts"] += shift
        self.events.extend(events)

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events}, f)


def fnv1a(data):
    """64-bit FNV-1a of `data` (bytes) as 16 hex digits, the harness's
    output digest."""
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def finite_nonneg(text):
    """True for a JSON number (kept as its text) that is finite and >= 0."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        return False
    return math.isfinite(value) and value >= 0.0
