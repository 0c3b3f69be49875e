#!/usr/bin/env bash
# Kill-and-resume smoke (CI "kill-and-resume smoke" step): end-to-end
# crash recovery of checkpointed quickstart pretraining.
#
# Usage: tools/kill_resume_smoke.sh <build-dir>
#
# The run snapshots every 25 steps and has an injected NaN gradient at
# the 60th clip (EVA_FAULT=nan_grad:60, step 59 when nothing rewinds).
# SIGTERM is sent only once a pretrain.step record past step 60 is in
# the log, so the fault has fired and the sentinel has handled it, then
# the run is resumed. Assertions:
#   1. the sentinel tripped before the stop (a train.sentinel.trip record);
#   2. "interrupted at step N", the `latest` manifest (ckpt_<N>.eva2) and
#      the rerun's "resumed from checkpoint at step N" all agree;
#   3. the rerun completes and prints its loss line.
set -euo pipefail

build_dir=${1:?usage: kill_resume_smoke.sh <build-dir>}
bin="$build_dir/examples/quickstart"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

EVA_CHECKPOINT_DIR="$work/ckpt" EVA_CHECKPOINT_EVERY=25 \
EVA_FAULT=nan_grad:60 python3 - "$bin" "$work" <<'EOF'
import json, os, re, signal, subprocess, sys, time

bin, work = sys.argv[1], sys.argv[2]
log = os.path.join(work, "run.jsonl")


def records():
    try:
        with open(log) as f:
            lines = f.readlines()
    except FileNotFoundError:
        return []
    out = []
    for line in lines:
        try:
            out.append(json.loads(line))
        except ValueError:
            pass  # the line being written
    return out


p = subprocess.Popen([bin], env=dict(os.environ, EVA_LOG_FILE=log),
                     stdout=subprocess.PIPE, text=True)
deadline = time.monotonic() + 600
while not any(r.get("event") == "pretrain.step" and r.get("step", 0) > 60
              for r in records()):
    if p.poll() is not None:
        sys.exit("quickstart exited before pretraining passed step 60")
    if time.monotonic() > deadline:
        p.kill()
        sys.exit("timed out waiting for pretraining to pass step 60")
    time.sleep(0.1)
p.send_signal(signal.SIGTERM)
out, _ = p.communicate()
print(out, end="")
assert p.returncode == 0, f"interrupted run exited {p.returncode}"
assert any(r.get("event") == "train.sentinel.trip" for r in records()), \
    "the injected NaN gradient never tripped the sentinel"

m = re.search(r"interrupted at step (\d+)", out)
assert m, "the run was not interrupted"
step = int(m.group(1))
with open(os.path.join(work, "ckpt", "latest")) as f:
    latest = f.read().strip()
assert latest == f"ckpt_{step:010d}.eva2", \
    f"latest manifest {latest!r} disagrees with step {step}"

rerun = subprocess.run([bin], env=dict(os.environ, EVA_RESUME="1"),
                       stdout=subprocess.PIPE, text=True, check=True).stdout
print(rerun, end="")
assert f"resumed from checkpoint at step {step}\n" in rerun, \
    f"rerun did not resume at step {step}"
assert re.search(r"^loss .* -> .* \(val .*\)$", rerun, re.M), \
    "rerun did not finish pretraining"
print(f"kill-and-resume agrees at step {step}")
EOF
