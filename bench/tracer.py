"""Stage tracer that times cocyclelab from outside the library.

``Tracer.install`` rebinds each public function named in ``STAGES`` to a
timing wrapper in every ``cocyclelab`` module that holds a reference to it
(modules import public names from each other, so rebinding only the defining
module would miss calls), and on its class for the two methods.  It then
rescans the package and refuses to run if any reference to an original is
left.  ``uninstall`` restores every binding it changed.

Each call becomes one span: stage name, parent span, thread, wall interval,
thread CPU time and a few counts.  Spans stay in memory until ``dump``.
Self time is a span's thread CPU time minus that of its children on the same
thread.  CPU time is used because the library's worker pool runs jobs on two
threads that take turns holding the interpreter lock: their wall intervals
overlap, so wall-clock self times would count the same second twice.
Coverage, which asks how much of the wall clock named stages explain, uses
the union of the wall intervals instead.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time


# counts: (call arguments by parameter name, result) -> {name: value}

def _symbols(arguments, result):
    return {"symbols": int(len(result))}


def _steps(arguments, result):
    return {"steps": int(result[0].shape[0])}


def _domination(arguments, result):
    # the cocycle itself, not its id(): the span keeps it alive, so ids of
    # distinct cocycles cannot collide
    return {"power": result.power, "cocycle": arguments["A"]}


def _depth(arguments, result):
    return {"depth": int(result.depth)}


def _exact(arguments, result):
    return {"exact": bool(result.exact)}


def _report_bytes(arguments, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _qr_blocks(arguments, result):
    mats = arguments["mats"]
    return {"d": int(mats.shape[1]), "blocks": int(mats.shape[0]) // int(arguments["block_size"])}


# stage -> [(module, attribute, count or None)]; "Class.method"
# attributes are rebound on the class
STAGES = {
    "shifts.sample_orbit": [
        ("cocyclelab.shifts", "MarkovMeasure.sample_orbit", _symbols)],
    "shifts.measures": [
        ("cocyclelab.shifts", "parry_measure", None),
        ("cocyclelab.shifts", "gibbs_locally_constant", None),
        ("cocyclelab.shifts", "MarkovMeasure.__post_init__", None)],
    "cocycles.path_matrices": [
        ("cocyclelab.cocycles", "CocycleSpec.path_matrices", _steps)],
    "cocycles.domination_check": [
        ("cocyclelab.cocycles", "domination_check", _domination)],
    "cocycles.stable_holonomy": [
        ("cocyclelab.cocycles", "stable_holonomy", _depth)],
    "cocycles.unstable_holonomy": [
        ("cocyclelab.cocycles", "unstable_holonomy", _depth)],
    "cocycles.holonomy_constants": [("cocyclelab.cocycles", "holonomy_constants", None)],
    "cocycles.simplicity_check": [("cocyclelab.cocycles", "simplicity_check", None)],
    "cocycles.evaluate": [("cocyclelab.cocycles", "evaluate", None)],
    "lyapunov.qr_spectrum": [("cocyclelab.lyapunov", "qr_spectrum", _qr_blocks)],
    "lyapunov.lyapunov_qr": [("cocyclelab.lyapunov", "lyapunov_qr", None)],
    "lyapunov.closed_form_oracle": [("cocyclelab.lyapunov", "closed_form_oracle", None)],
    "linalg.sorted_spectrum": [("cocyclelab.linalg", "sorted_spectrum", None)],
    "linalg.twisting_check": [("cocyclelab.linalg", "twisting_check", None)],
    "linalg.moduli_separation_perturb": [
        ("cocyclelab.linalg", "moduli_separation_perturb", None)],
    "suspension.return_cocycle": [("cocyclelab.suspension", "return_cocycle", None)],
    "suspension.lift_measure_integral": [
        ("cocyclelab.suspension", "lift_measure_integral", None)],
    "suspension.time_change_scaling": [
        ("cocyclelab.suspension", "time_change_scaling", None)],
    "rotation.lift_theta_family": [("cocyclelab.rotation", "lift_theta_family", None)],
    "rotation.theta_ell_rho_check": [("cocyclelab.rotation", "theta_ell_rho_check", None)],
    "rotation.doubled_rotation_number": [
        ("cocyclelab.rotation", "doubled_rotation_number", None)],
    "rotation.rho_measure": [("cocyclelab.rotation", "rho_measure", _exact)],
    "shadowing.exponential_shadowing_check": [
        ("cocyclelab.shadowing", "exponential_shadowing_check", None)],
    "shadowing.toral_close": [("cocyclelab.shadowing", "toral_close", None)],
    "shadowing.period_difference_bound": [
        ("cocyclelab.shadowing", "period_difference_bound", None)],
    "experiments.validate_config": [
        ("cocyclelab.experiments.config", "validate_config", None)],
    "experiments.runner": [("cocyclelab.experiments.runners", "run_experiment", None)],
    "experiments.write_report": [
        ("cocyclelab.experiments.report", "write_report", _report_bytes)],
}

# the runner span encloses the library spans; its self time is the glue
RUNNER = "experiments.runner"

# the worker pool: wrapped without a span so pool threads inherit the
# caller's span as parent
POOL = ("cocyclelab.experiments.parallel", "pmap")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cocyclelab" or name.startswith("cocyclelab."))]


def _resolve(modname, attr):
    __import__(modname)
    owner = sys.modules[modname]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, owner.__dict__[attr]


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans = []      # [stage, parent, thread, t0, t1, cpu, counts, phase]
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rebound = []   # (owner, name, original)

    # -- spans ---------------------------------------------------------------

    def _current(self):
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", -1)

    def _wrap(self, stage, fn, count):
        tracer = self
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            if not hasattr(local, "stack"):
                local.stack = []
            parent = tracer._current()
            span = [stage, parent, threading.get_ident(), 0.0, 0.0, 0.0, None, tracer.phase]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            local.stack.append(idx)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                local.stack.pop()
                span[3], span[4], span[5] = t0, t1, c1 - c0
            if count is not None:
                span[6] = count(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def _wrap_pool(self, pmap):
        tracer = self

        @functools.wraps(pmap)
        def pooled(fn, items):
            parent = tracer._current()

            def adopted(item):
                prev = getattr(tracer._local, "adopted", -1)
                tracer._local.adopted = parent
                try:
                    return fn(item)
                finally:
                    tracer._local.adopted = prev
            return pmap(adopted, items)
        return pooled

    # -- binding -------------------------------------------------------------

    def install(self):
        """Rebind every stage function wherever the package refers to it."""
        if self._rebound:
            raise TraceError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for stage, targets in STAGES.items():
            for modname, attr, count in targets:
                owner, name, fn = _resolve(modname, attr)
                wrappers[id(fn)] = (fn, self._wrap(stage, fn, count))
                if isinstance(owner, type):
                    self._rebind(owner, name, fn, wrappers[id(fn)][1])
        _, _, pmap = _resolve(*POOL)
        wrappers[id(pmap)] = (pmap, self._wrap_pool(pmap))
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, name, value, hit[1])
        leftover = self._references(w[0] for w in wrappers.values())
        if leftover:
            self.uninstall()
            raise TraceError("unwrapped references remain: " + ", ".join(leftover))

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._rebound.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound = []

    @staticmethod
    def _references(originals):
        """Places in the package that still hold an original function: module
        globals, class attributes, and values of module-level containers."""
        wanted = {id(fn): fn for fn in originals}

        def held(value):
            return wanted.get(id(value), wanted) is value

        found = []
        for mod in _package_modules():
            for name, value in vars(mod).items():
                if held(value):
                    found.append(f"{mod.__name__}.{name}")
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    found += [f"{mod.__name__}.{name}.{attr}"
                              for attr, member in vars(value).items() if held(member)]
                elif isinstance(value, (dict, list, tuple, set)):
                    items = value.values() if isinstance(value, dict) else value
                    if any(held(v) for v in items):
                        found.append(f"{mod.__name__}.{name}[...]")
        return found

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON lines, one per span."""
        keys = ("stage", "parent", "thread", "t0", "t1", "cpu", "counts", "phase")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                row = dict(zip(keys, span), id=i)
                counts = row["counts"]
                if counts and "cocycle" in counts:
                    row["counts"] = {k: v for k, v in counts.items() if k != "cocycle"}
                fh.write(json.dumps(row) + "\n")


def self_times(spans):
    """Per-span thread CPU self time: own CPU minus same-thread children."""
    own = [s[5] for s in spans]
    for s in spans:
        parent = s[1]
        if parent >= 0 and spans[parent][2] == s[2]:
            own[parent] -= s[5]
    return own


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
