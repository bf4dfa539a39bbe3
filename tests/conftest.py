"""Traces the shipped set for the guard in test_experiments.py.

The shipped set is the acceptance gate and the tests that feed outside input
to the CLI and its config layer.  While one of them runs, every thread
records the ``src`` lines it executes, and every public library class
records which of its members are read.  A code object stops being traced
once all of its lines have run, and a class stops recording once all of its
members have been read, so the gate pays for tracing only until then.
"""
import ast
import dataclasses
import importlib
import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

PKG = Path(__file__).parents[1] / "src" / "cocyclelab"

# (test file, test class); None takes every test of the file
SHIPPED = {("test_acceptance.py", None), ("test_experiments.py", "TestCli"),
           ("test_experiments.py", "TestConfig"), ("test_experiments.py", "TestParallel")}


def is_shipped(item):
    cls = getattr(item, "cls", None)
    name = Path(str(item.fspath)).name
    return (name, None) in SHIPPED or (name, cls and cls.__name__) in SHIPPED


def library_modules():
    return sorted(PKG.rglob("*.py"))


def module_name(path):
    return ".".join(("cocyclelab", *path.relative_to(PKG).with_suffix("").parts)) \
        .removesuffix(".__init__")


def exempt_lines(tree):
    """Lines of raise statements, and of except clauses whose body only
    raises: these run only on the error paths a guard need not reach."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) or (
                isinstance(node, ast.ExceptHandler)
                and all(isinstance(s, ast.Raise) for s in node.body)):
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


def code_lines(code):
    return {line for _, _, line in code.co_lines() if line is not None}


def function_lines(code):
    """Lines of every function body compiled into code.  Module and class
    bodies, and the def line of each function, run at import."""
    out = set()
    stack = [code]
    while stack:
        co = stack.pop()
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
        if co.co_flags & inspect.CO_OPTIMIZED:
            out |= code_lines(co) - {co.co_firstlineno}
    return out


def public_members(cls):
    """Public methods, properties and dataclass fields the class declares.
    Class and static methods are read through the class, which no instance
    hook sees; the line guard covers their bodies."""
    names = {n for n, v in vars(cls).items() if isinstance(v, (types.FunctionType, property))}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls) if f.name in cls.__annotations__}
    return {n for n in names if not n.startswith("_")}


def shipped_tests():
    """(file, class, name) of every test in the shipped set."""
    out = set()
    for name, cls in SHIPPED:
        tree = ast.parse((Path(__file__).parent / name).read_text())
        body = tree.body if cls is None else next(
            n.body for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
        out |= {(name, cls, n.name) for n in body
                if isinstance(n, ast.FunctionDef) and n.name.startswith("test_")}
    return out


def public_classes():
    for path in library_modules():
        module = importlib.import_module(module_name(path))
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                yield obj


class ShippedTrace:
    """Lines executed per ``src`` file and members not yet read per public
    class."""

    def __init__(self):
        self.files = {str(p.resolve()): p for p in library_modules()}   # resolved name -> path
        self.exempt = {f: exempt_lines(ast.parse(p.read_text())) for f, p in self.files.items()}
        self.executed = {f: set() for f in self.files}
        self.local = {}         # code -> its local trace function, or None
        self.unread = {}        # class -> members not yet read
        self.ran = set()        # (file, class, test name) of shipped tests that ran
        self.failed = set()     # and of those with a case that failed or skipped
        self.lock = threading.Lock()   # pool threads read watched classes at once

    def _tracer(self, code):
        """The local trace function of code, which records its lines until
        all have run; None outside src or once they have."""
        f = str(Path(code.co_filename).resolve())
        if f not in self.files:
            return None
        done = self.executed[f]
        done.add(code.co_firstlineno)
        todo = code_lines(code) - self.exempt[f] - done
        if not todo:
            return None
        local = self.local

        def line(frame, event, arg):
            if event == "line":
                n = frame.f_lineno
                if n in todo:
                    todo.discard(n)
                    done.add(n)
                    if not todo:
                        local[code] = None
                        return None
            return line
        return line

    def _global_tracer(self):
        """The trace function of every frame: the local tracer of its code."""
        local, tracer = self.local, self._tracer

        def call(frame, event, arg):
            try:
                return local[frame.f_code]
            except KeyError:
                local[frame.f_code] = tracer(frame.f_code)
                return local[frame.f_code]
        return call

    def _watch(self, cls):
        """Record reads of cls's public members until all have been read."""
        unread = self.unread.setdefault(cls, public_members(cls))
        if not unread or "__getattribute__" in vars(cls):
            return
        # the class's own validation, dataclasses.replace and the generated
        # dataclass methods read every field without using it
        skip = {getattr(getattr(cls, "__post_init__", None), "__code__", None)}
        machinery = (dataclasses.__file__, "<string>")
        getter = cls.__getattribute__
        lock = self.lock

        def __getattribute__(obj, name):
            if name in unread:
                caller = sys._getframe(1).f_code
                if caller not in skip and caller.co_filename not in machinery:
                    with lock:
                        unread.discard(name)
                        if not unread and vars(cls).get("__getattribute__") is __getattribute__:
                            del cls.__getattribute__
            return getter(obj, name)
        cls.__getattribute__ = __getattribute__

    def start(self):
        call = self._global_tracer()
        threading.settrace(call)
        sys.settrace(call)
        for cls in public_classes():
            self._watch(cls)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)
        with self.lock:
            for cls in self.unread:
                if "__getattribute__" in vars(cls):
                    del cls.__getattribute__

    def unexecuted(self):
        """file -> function-body lines, not exempt, that no traced run executed."""
        out = {}
        for f, path in self.files.items():
            lines = function_lines(compile(path.read_text(), f, "exec"))
            missed = lines - self.exempt[f] - self.executed[f]
            if missed:
                out[path] = missed
        return out


TRACE = ShippedTrace()
# every shipped run imports the package, which runs a few library functions
TRACE.start()
TRACE.stop()


@pytest.fixture(scope="session")
def shipped_trace():
    return TRACE


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not is_shipped(item):
        yield
        return
    TRACE.start()
    try:
        yield
    finally:
        TRACE.stop()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if not is_shipped(item) or not (report.when == "call" or report.failed or report.skipped):
        return
    test = (Path(str(item.fspath)).name, getattr(item.cls, "__name__", None), item.originalname)
    TRACE.ran.add(test)
    if report.failed or report.skipped:
        TRACE.failed.add(test)
