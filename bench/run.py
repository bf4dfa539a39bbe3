"""Benchmark of cocyclelab: one workload per invocation, run from the root
of a source checkout.

    python3 bench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

With --trace 0 it reports the end-to-end metrics: the median wall and CPU
time of one pass, peak resident memory of the workload's process, and the
median set-up time over several fresh processes.  With --trace 1 it
alternates untraced and traced passes and reports per-stage self times and
counts (see bench/README.md for what each should move).  Every metric is
printed as a line `<workload> <metric> <value> <unit>`; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("spectra", "periodic", "hoelder")
# fresh processes that only set up; the measured worker's set-up is one more
SETUP_SAMPLES = 6
DEADLINE_S = 175.0
THREAD_VARS = ("COCYCLE_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env():
    """The caller's environment with thread counts capped at nproc; unset
    counts stay unset so the library and BLAS defaults apply."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        raw = env.get(var)
        if raw is not None and raw.isdigit() and int(raw) > nproc:
            env[var] = str(nproc)
    return env


def _worker(args, deadline, extra=()):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("error: out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_ticks():
    """(steal, total) jiffies of the machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def _declared(mode):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if mode else "end_to_end"]]


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join("src", "cocyclelab", "__init__.py")):
        sys.stderr.write("error: run from the root of a cocyclelab checkout "
                         "(src/cocyclelab not found)\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    declared = _declared(args.trace)

    setups = []
    if not args.trace:
        setups = [_worker(args, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
    before = _cpu_ticks()
    res = _worker(args, deadline)
    after = _cpu_ticks()
    # CPU time the hypervisor gave to other guests: it inflates wall_s and
    # explains runs that are slow for no reason inside this machine
    if before and after and after[1] > before[1]:
        res["env"]["steal_share"] = round((after[0] - before[0]) / (after[1] - before[1]), 4)
    attempted, failed = res["attempted"], res["failed"]

    walls = res["walls"]
    if args.trace:
        metrics = res["metrics"]
        counts = f"{len(walls)} untraced and {res['traced_passes']} traced passes"
    else:
        setups.append(res["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        counts = (f"{len(walls)} passes (wall min {min(walls):.4f} s, max {max(walls):.4f} s); "
                  f"{len(setups)} set-ups (max {max(setups):.4f} s)")
    if sorted(metrics) != sorted(declared):
        sys.stderr.write("error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}\n")
        return 1

    for name in declared:
        m = metrics[name]
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} samples: {counts}")
    print(f"{args.workload} fail_share {failed / attempted:.6g} ({failed} of {attempted} units)")
    for note in res["notes"]:
        print(f"{args.workload} failure: {note}")
    if "domination_power_mix" in res:
        print(f"{args.workload} domination powers: {res['domination_power_mix']}")
    print(f"{args.workload} env: {json.dumps(res['env'], sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
