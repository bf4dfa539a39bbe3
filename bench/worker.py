"""One workload in one fresh process: set up, run timed passes, report JSON.

Started by run.py from the root of a source checkout; imports cocyclelab
from ./src.  The clock starts before numpy or cocyclelab is imported, so
set-up time includes the imports.  The last stdout line is a JSON object.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# stages whose call count is a metric
COUNTED = ("shifts.sample_orbit", "cocycles.domination_check", "cocycles.stable_holonomy",
           "cocycles.unstable_holonomy", "cocycles.evaluate", "lyapunov.qr_spectrum",
           "linalg.sorted_spectrum", "rotation.doubled_rotation_number",
           "rotation.rho_measure")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_library(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cocyclelab
    if not os.path.abspath(cocyclelab.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: cocyclelab imported from {cocyclelab.__file__}, not {src}")


def _passes(workload, seconds, work, tracer=None):
    """Run whole passes until the next would end after `seconds`.

    Without a tracer, at least one pass.  With one, passes alternate
    untraced and traced, ending on a traced one, so both kinds see the same
    warm-up and machine load; a traced pass's spans carry its index.
    Returns ({traced: walls}, {traced: cpus}, tallies).
    """
    from workloads import Tally
    walls, cpus, tallies = {False: [], True: []}, {False: [], True: []}, []
    begin = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.phase = len(walls[True])
            tracer.install()
        tally = Tally()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            workload.run(tally, work)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        cpus[traced].append(cpu)
        tallies.append(tally)
        if time.perf_counter() - begin + wall > seconds and (tracer is None or traced):
            return walls, cpus, tallies
        traced = tracer is not None and not traced


def _stage_metrics(spans, walls_untraced, walls_traced):
    """Per-layer metrics: the set-up phase plus the mean traced pass.

    A span's phase is "setup" or the index of its traced pass.
    """
    from tracer import RUNNER, STAGES, covered, self_times
    n_passes = len(walls_traced)
    setup, passes = collections.defaultdict(float), collections.defaultdict(float)
    distinct = collections.defaultdict(set)
    power_max = 0
    for span, own in zip(spans, self_times(spans)):
        stage, counts, phase = span[0], span[6] or {}, span[7]
        acc = setup if phase == "setup" else passes
        acc[f"{stage}.self_s"] += own
        acc[f"{stage}.calls"] += 1
        for key, value in counts.items():
            if key == "d":
                acc[f"{stage}.d{value}.self_s"] += own
            elif key == "power":
                power_max = max(power_max, value or 0)
            elif key == "cocycle":
                distinct[stage].add((phase, id(value)))
            else:
                acc[f"{stage}.{key}"] += value
    total = collections.defaultdict(float, setup)
    for key, value in passes.items():
        total[key] += value / n_passes

    def ratio(num, den):
        return total[num] / total[den] if total[den] else 0.0

    dom, rho = "cocycles.domination_check", "rotation.rho_measure"
    total[f"{dom}.power_max"] = power_max
    total[f"{dom}.distinct"] = len(distinct[dom]) / n_passes
    names = (
        [(f"{s}.self_s", "s") for s in STAGES]
        + [(f"{s}.calls", "count") for s in COUNTED]
        + [("shifts.sample_orbit.symbols", "count"), ("cocycles.path_matrices.steps", "count"),
           (f"{dom}.power_max", "count"),
           ("cocycles.stable_holonomy.depth", "count"),
           ("cocycles.unstable_holonomy.depth", "count"),
           ("lyapunov.qr_spectrum.blocks", "count")]
        + [(f"lyapunov.qr_spectrum.d{d}.self_s", "s") for d in (2, 3, 4)]
    )
    m = {name: {"value": float(total[name]), "unit": unit} for name, unit in names}
    for side in ("stable", "unstable"):
        m[f"cocycles.{side}_holonomy.depth_sum"] = m.pop(f"cocycles.{side}_holonomy.depth")
    m[f"{dom}.distinct_ratio"] = {
        "value": ratio(f"{dom}.distinct", f"{dom}.calls"), "unit": "ratio"}
    m[f"{rho}.exact_ratio"] = {"value": ratio(f"{rho}.exact", f"{rho}.calls"), "unit": "ratio"}
    m["experiments.report_bytes"] = {
        "value": total["experiments.write_report.bytes"], "unit": "B"}
    # wall time inside library spans over the pass's wall time; the runner
    # span encloses them, so it is left out
    coverage = [
        covered([(s[3], s[4]) for s in spans if s[7] == k and s[0] != RUNNER]) / wall
        for k, wall in enumerate(walls_traced)
    ]
    m["trace.coverage"] = {"value": statistics.mean(coverage), "unit": "ratio"}
    m["trace.overhead"] = {
        "value": statistics.median(walls_traced) / statistics.median(walls_untraced) - 1.0,
        "unit": "ratio"}
    return m, {s[0] for s in spans}


def main(argv=None):
    args = _args(argv)
    root = os.getcwd()
    _import_library(root)
    import numpy as np
    import workloads
    from cocyclelab.experiments import parallel
    from tracer import Tracer

    nproc = len(os.sched_getaffinity(0))
    if parallel.worker_count() > nproc:
        os.environ["COCYCLE_LAB_THREADS"] = str(nproc)

    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = cls(args.seed)
    setup_s = time.perf_counter() - T_START
    if tracer:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    out = {"setup_s": setup_s}
    try:
        walls, cpus, tallies = _passes(workload, args.seconds, work, tracer)
        if tracer:
            metrics, recorded = _stage_metrics(tracer.spans, walls[False], walls[True])
            for stage in cls.stages:
                tallies[-1].check(stage in recorded, f"stage {stage} recorded no span")
            out.update(metrics=metrics, traced_passes=len(walls[True]))
            tracer.dump(os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every pass must write the same reports as the first
    first = tallies[0].digests
    for t in tallies[1:]:
        for name, digest in first.items():
            t.check(t.digests.get(name) == digest, f"{name}: report differs between passes")

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out.update(
        walls=walls[False], cpus=cpus[False],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=sum(t.attempted for t in tallies),
        failed=sum(t.failed for t in tallies),
        notes=sorted({n for t in tallies for n in t.notes}),
        env={
            "nproc": nproc,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "workers": parallel.worker_count(),
            **{var: os.environ.get(var) for var in
               ("COCYCLE_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    )
    if isinstance(workload, workloads.Hoelder):
        out["domination_power_mix"] = dict(collections.Counter(workload.powers()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
