"""Experiment configs, runners, reports, and the command line driver."""
import ast
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cocyclelab.experiments as ex
import cocyclelab.experiments.cli as cli
import cocyclelab.experiments.config as cf
import cocyclelab.experiments.parallel as par
import cocyclelab.experiments.report as rp
import cocyclelab.experiments.runners as rn
import cocyclelab.shifts as sh
from conftest import shipped_tests as conftest_shipped_tests

CONFIG_DIR = Path(ex.__file__).parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("e*.json"))

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
# rows and weights that sum to one with a negative entry
NEGATIVE_MEASURES = [
    {"kind": "markov", "P": [[1.5, -0.5], [0.5, 0.5]]},
    {"kind": "bernoulli", "p": [1.2, -0.2]},
]


def load(name):
    return cf.load_config(str(CONFIG_DIR / name))


class TestConfig:
    def test_all_shipped_configs_validate(self):
        assert len(SHIPPED) == 5
        for path in SHIPPED:
            cfg = cf.validate_config(cf.load_config(str(path)), source=str(path))
            assert cfg["schema_version"] == cf.SCHEMA_VERSION

    def test_parse_error_is_line_anchored(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "schema_version": 1,\n  "oops"\n}')
        with pytest.raises(cf.ConfigError, match=r"bad\.json:4:1: Expecting"):
            cf.load_config(str(bad))

    def test_missing_file(self):
        with pytest.raises(cf.ConfigError, match="nope.json"):
            cf.load_config("/nowhere/nope.json")

    def test_schema_violation_names_json_path(self):
        cfg = load("e3.json")
        cfg["schema_version"] = 2
        with pytest.raises(cf.ConfigError, match=r"\$\.schema_version"):
            cf.validate_config(cfg)

    def test_missing_experiment_block(self):
        cfg = load("e3.json")
        del cfg["toral"]
        with pytest.raises(cf.ConfigError, match="toral"):
            cf.validate_config(cfg)

    def test_nested_anchor(self):
        cfg = load("e2.json")
        cfg["suites"][0]["theta0"] = -1.0
        with pytest.raises(cf.ConfigError, match=r"\$\.suites\[0\]\.theta0"):
            cf.validate_config(cfg)

    def test_top_level_must_be_object(self):
        with pytest.raises(cf.ConfigError, match="top level"):
            cf.validate_config([1, 2, 3])

    def test_build_base_kinds(self):
        assert cf.build_base({"kind": "full_shift", "symbols": 3}).alphabet_size == 3
        gm = cf.build_base({"kind": "golden_mean", "theta": 0.4})
        assert gm.theta == 0.4 and not gm.is_allowed(1, 1)
        tr = cf.build_base({"kind": "transitions",
                            "transitions": [[1, 1], [1, 0]], "theta": 0.5})
        assert np.array_equal(tr.transitions, gm.transitions)

    def test_build_measure_kinds(self):
        parry = cf.build_measure(FULL2, {"kind": "parry"})
        assert parry.cylinder("0") == pytest.approx(0.5)
        markov = cf.build_measure(FULL2, {"kind": "markov",
                                          "P": [[0.7, 0.3], [0.4, 0.6]]})
        assert markov.pi @ markov.P == pytest.approx(markov.pi)
        bern = cf.build_measure(FULL2, {"kind": "bernoulli", "p": [0.3, 0.7]})
        assert bern.cylinder("11") == pytest.approx(0.49)
        gibbs = cf.build_measure(FULL2, {"kind": "gibbs",
                                         "phi": {"00": 0.1, "01": 0.0,
                                                 "10": 0.0, "11": -0.1}})
        assert np.array_equal(gibbs.P, sh.gibbs_locally_constant(
            FULL2, {"00": 0.1, "01": 0.0, "10": 0.0, "11": -0.1}).P)

    def test_bad_bernoulli_vector(self):
        with pytest.raises(cf.ConfigError, match="probability vector"):
            cf.build_measure(FULL2, {"kind": "bernoulli", "p": [0.3, 0.3]})

    @pytest.mark.parametrize("measure", NEGATIVE_MEASURES)
    def test_negative_probabilities_rejected(self, measure):
        with pytest.raises(ValueError, match="nonnegative"):
            cf.build_measure(FULL2, measure)


class TestReport:
    def test_canonical_json_sorts_and_converts(self):
        s = rp.canonical_json({"b": np.float64(1.5), "a": np.array([1, 2])})
        assert s == '{"a":[1,2],"b":1.5}'

    def test_digest_tracks_content(self):
        a = rp.config_digest({"x": 1})
        assert a == rp.config_digest({"x": 1})
        assert a != rp.config_digest({"x": 2})

    def test_csv_cells(self):
        text = rp.render_csv(["a", "b", "c"],
                             [[True, 0.1, [1.5, 2.5]], [False, np.float64(2), "w"]])
        lines = text.splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "true,0.1,1.5;2.5"
        assert lines[2] == "false,2.0,w"

    def test_write_report_layout(self, tmp_path):
        result = {
            "verdicts": [rp.verdict("check-one", True, "some invariant", value=1.0)],
            "tables": {"t": {"header": ["x"], "rows": [[1]]}},
        }
        paths = rp.write_report(str(tmp_path), "E9", {"seed": 0}, 0, result)
        assert [os.path.basename(p) for p in paths] == ["e9.json", "e9_t.csv"]
        doc = json.loads((tmp_path / "e9.json").read_text())
        assert doc["experiment"] == "E9"
        assert doc["traceability"] == [
            {"verdict": "check-one", "invariant": "some invariant"}
        ]
        assert doc["verdicts"][0]["passed"] is True
        assert "timestamp" not in doc and "time" not in doc

    def test_all_passed(self):
        good = {"verdicts": [rp.verdict("a", True, "i")]}
        bad = {"verdicts": [rp.verdict("a", True, "i"), rp.verdict("b", False, "i")]}
        assert rp.all_passed(good) and not rp.all_passed(bad)


class TestParallel:
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("COCYCLE_LAB_THREADS", "2")
        assert par.worker_count() == 2
        monkeypatch.setenv("COCYCLE_LAB_THREADS", "0")
        with pytest.raises(ValueError, match="positive integer"):
            par.worker_count()
        monkeypatch.setenv("COCYCLE_LAB_THREADS", "many")
        with pytest.raises(ValueError, match="positive integer"):
            par.worker_count()

    @pytest.mark.parametrize("cpus,workers", [({3}, 1), ({0, 5}, 2), (set(range(8)), 4)])
    def test_worker_count_from_usable_cpus(self, monkeypatch, cpus, workers):
        # the CPUs this process may run on, not every CPU of the machine
        monkeypatch.delenv("COCYCLE_LAB_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert par.worker_count() == workers
        monkeypatch.setenv("COCYCLE_LAB_THREADS", "3")
        assert par.worker_count() == 3

    def test_worker_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("COCYCLE_LAB_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert par.worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert par.worker_count() == 1

    def test_pmap_preserves_order(self, monkeypatch):
        monkeypatch.setenv("COCYCLE_LAB_THREADS", "4")
        assert par.pmap(lambda v: v * v, range(20)) == [v * v for v in range(20)]
        monkeypatch.setenv("COCYCLE_LAB_THREADS", "1")
        assert par.pmap(lambda v: -v, [3, 1, 2]) == [-3, -1, -2]


def run_shipped(name):
    cfg = cf.validate_config(load(name))
    return cfg, rn.run_experiment(cfg, int(cfg["seed"]))


def defaulted_parameters(fn, method):
    """(name, position) of the parameters of fn that have a default;
    position counts the arguments a call passes (None for keyword-only)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    bound = method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    for arg in positional[len(positional) - len(args.defaults):]:
        yield arg.arg, positional.index(arg) - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


class TestShippedCallers:
    """Guards against options nothing sets, which line tracing cannot see:
    an unpassed default runs on every call."""

    PKG = Path(ex.__file__).parents[1]
    ROOT = Path(__file__).parents[1]

    def library(self):
        return {path: ast.parse(path.read_text()) for path in sorted(self.PKG.rglob("*.py"))
                if path != self.PKG / "__init__.py"}

    def parsed(self, paths):
        return [ast.parse(path.read_text()) for path in paths]

    def shipped_readers(self):
        """Trees of the benchmark and the acceptance gate."""
        return self.parsed([*sorted((self.ROOT / "bench").glob("*.py")),
                            self.ROOT / "tests" / "test_acceptance.py"])

    def test_every_defaulted_parameter_is_passed_somewhere(self):
        # a parameter with a default, of a library function or of a method
        # of a public library class, is passed by keyword or by position at
        # some call in the library, the benchmark or the tests to a callee
        # of the same name (the class name for __init__); a starred
        # argument passes nothing
        calls = {}
        trees = [*self.library().values(), *self.shipped_readers(),
                 *self.parsed(sorted((self.ROOT / "tests").glob("test_*.py")))]
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(callee, []).append(node)

        def passed(callee, name, position):
            return any(
                any(k.arg in (name, None) for k in call.keywords)
                or (position is not None and len(call.args) > position
                    and not any(isinstance(a, ast.Starred) for a in call.args[: position + 1]))
                for call in calls.get(callee, []))

        unset = []
        for path, tree in self.library().items():
            functions = [(node.name, node, False) for node in tree.body
                         if isinstance(node, ast.FunctionDef)]
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                    functions += [(cls.name if node.name == "__init__" else node.name, node, True)
                                  for node in cls.body if isinstance(node, ast.FunctionDef)]
            for callee, fn, method in functions:
                for name, position in defaulted_parameters(fn, method):
                    if not passed(callee, name, position):
                        unset.append(f"{path.relative_to(self.PKG)}:{fn.name}({name})")
        assert unset == []


class TestRunners:
    def test_runners_import_no_private_library_names(self):
        tree = ast.parse(Path(rn.__file__).read_text())
        private = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                # relative imports in the runners module resolve inside cocyclelab
                if node.level or (node.module or "").split(".")[0] == "cocyclelab":
                    private += [a.name for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Import):
                private += [
                    a.name for a in node.names
                    if a.name.split(".")[0] == "cocyclelab"
                    and any(part.startswith("_") for part in a.name.split("."))
                ]
        assert private == []

    def test_e1_reduced(self):
        cfg = load("e1.json")
        cfg["n_steps"] = 20000
        cfg["suite"] = [m for m in cfg["suite"] if m["name"] == "stretch-rotate-d2"]
        out = rn.run_e1(cfg, 2024)
        assert all(v["passed"] for v in out["verdicts"])
        names = [v["name"] for v in out["verdicts"]]
        assert "control-degenerate-cluster" in names
        assert "informative-one-way" in names
        rows = out["tables"]["spectra"]["rows"]
        ctrl = [r for r in rows if r[0] == "duplicated-block"]
        assert ctrl and all(max(r[7]) >= 2 for r in ctrl)

    def test_e2_shipped(self):
        _, out = run_shipped("e2.json")
        assert all(v["passed"] for v in out["verdicts"])
        pipeline = {r[0]: r for r in out["tables"]["pipeline"]["rows"]}
        # commuting pair only touches the real axis: located by golden search
        assert pipeline["commuting-d2"][3] == "golden"
        assert pipeline["commuting-d2"][4] is True
        # the symplectic pair opens a real window: a scan point lands inside
        assert pipeline["symplectic-d4"][3] == "interior"
        assert pipeline["symplectic-d4"][5] is True

    def test_e2_commuting_collision_matches_closed_form(self):
        cfg = cf.validate_config(load("e2.json"))
        out = rn.run_e2(cfg, 7)
        row = [r for r in out["tables"]["pipeline"]["rows"]
               if r[0] == "commuting-d2"][0]
        # base argument over the n=8 closed word is 16*0.9 + 0.35 - 4*pi;
        # the insertion adds 6.4*s, so the full turn lands at a known s
        theta_start = 16 * 0.9 + 0.35 - 4 * np.pi
        s_expected = (2 * np.pi - theta_start) / 6.4
        assert row[2] == pytest.approx(s_expected, abs=1e-7)

    def test_e3_shipped(self):
        _, out = run_shipped("e3.json")
        assert all(v["passed"] for v in out["verdicts"])
        by_name = {v["name"]: v for v in out["verdicts"]}
        assert by_name["exponential-rate"]["detail"]["relative_error"] < 1e-10
        gaps = out["tables"]["period_gaps"]["rows"]
        assert len(gaps) == 64

    def test_e4_shipped(self):
        _, out = run_shipped("e4.json")
        assert all(v["passed"] for v in out["verdicts"])
        by_name = {v["name"]: v for v in out["verdicts"]}
        assert by_name["integral-height"]["detail"]["error"] <= 1e-12

    @pytest.mark.parametrize("name", ["e2.json", "e5.json"])
    def test_e2_e5_stay_off_the_pool(self, name, tmp_path, monkeypatch):
        # their units are Python loops around 2x2 and 4x4 matrices, which a
        # pool only queues on the interpreter lock: they must run serially
        def no_pool(fn, items):
            raise AssertionError(f"{name} reached the worker pool")

        cfg = cf.validate_config(load(name))
        seed = int(cfg["seed"])

        def report(out, sub):
            paths = rp.write_report(str(tmp_path / sub), cfg["experiment"], cfg, seed, out)
            return {os.path.basename(p): Path(p).read_bytes() for p in paths}

        with monkeypatch.context() as m:
            m.setattr(rn, "pmap", no_pool)
            out = rn.run_experiment(cfg, seed)
        assert rp.all_passed(out)
        guarded = report(out, "guarded")
        for threads in ("1", "2"):
            monkeypatch.setenv("COCYCLE_LAB_THREADS", threads)
            assert report(rn.run_experiment(cfg, seed), threads) == guarded

    def test_e5_shipped(self):
        _, out = run_shipped("e5.json")
        assert all(v["passed"] for v in out["verdicts"])
        rows = out["tables"]["ladders"]["rows"]
        assert rows[0][0] == "base"
        ladders = {r[0] for r in rows}
        assert ladders == {"base", "cocycle", "measure", "family"}


def e1_member(**fields):
    """A mutation of e1.json: 1000 steps, and fields set on its first member."""
    def mutate(cfg):
        cfg["n_steps"] = 1000
        cfg["suite"][0].update(fields)
    return mutate


def e1_generator(word, matrix):
    return e1_member(cocycle={"window": 1, "generators": {"0": [[2.0, 0.0], [0.0, 0.5]],
                                                          "1": [[1.0, 1.0], [1.0, 2.0]],
                                                          word: matrix}})


def e2_suite(**fields):
    """A mutation of e2.json: its commuting suite alone, lifted over the two
    copy counts around its full turn and scanned for the collision at 33
    points, with fields set."""
    def mutate(cfg):
        cfg["suites"] = [dict(cfg["suites"][0], n_grid=[7, 8], scan_points=33, **fields)]
    return mutate


def e2_widened(extra, **fields):
    """e2_suite with each generator G_w widened to diag(G_w, extra[w])."""
    def mutate(cfg):
        e2_suite(**fields)(cfg)
        gens = cfg["suites"][0]["cocycle"]["generators"]
        for w, M in gens.items():
            k = len(extra[w])
            gens[w] = [row + [0.0] * k for row in M] + [[0.0] * len(M) + r for r in extra[w]]
    return mutate


def rotation_block(angle, radius):
    c, s = radius * np.cos(angle), radius * np.sin(angle)
    return [[c, -s], [s, c]]


def rotation_pairs(a, b):
    """diag(R_a, R_b) of two unit rotations: pairs of equal modulus."""
    (p, q), (r, t) = rotation_block(a, 1.0), rotation_block(b, 1.0)
    return [p + [0.0, 0.0], q + [0.0, 0.0], [0.0, 0.0] + r, [0.0, 0.0] + t]


# configs that pass the schema and fail later, each with its one error line
CONFIG_ERRORS = {
    "e4-polynomial-word": ("e4.json", lambda c: c["integrals"][0]["poly"].pop("1"),
                           "ValueError: coefficients required for every admissible window-word"),
    "e5-family-word": ("e5.json", lambda c: c["ladders"]["family"].update(p_word="2"),
                       "ValueError: word 2 is not cyclically admissible"),
    "e1-bernoulli": ("e1.json", e1_member(measures=[{"kind": "bernoulli", "name": "b",
                                                     "p": [0.3, 0.3]}]),
                     "bernoulli weights must be a probability vector over the alphabet"),
    "e3-singular-toral": ("e3.json", lambda c: c["toral"].update(matrix=[[0, 1], [0, 2]]),
                          "ValueError: the determinant must be +1 or -1"),
    "e3-non-square-toral": ("e3.json", lambda c: c["toral"].update(matrix=[[2, 1, 0], [1, 1, 0]]),
                            "ValueError: the matrix must be square"),
    "e1-mixed-dimensions": ("e1.json", e1_generator("1", np.eye(3).tolist()),
                            "ValueError: generator matrices have mixed dimensions"),
    "e1-non-square": ("e1.json", e1_generator("0", [[2.0, 0.0, 0.0], [0.0, 0.5, 0.0]]),
                      "ValueError: expected a square matrix, got shape (2, 3)"),
    "e1-unknown-symbol": ("e1.json", e1_member(p_word="0!"),
                          "ValueError: unknown symbol in word '0!'"),
    "e1-empty-word": ("e1.json", e1_member(p_word=""), "ValueError: empty word"),
    "e1-empty-bridge": ("e1.json", e1_member(bridge=""), "ValueError: bridge must be nonempty"),
    "e1-misaligned-exit": ("e1.json", e1_member(p_word="01", bridge="0"),
                           "ValueError: misaligned exit time"),
    "e1-transitions-not-0-1": ("e1.json", lambda c: c.update(base={
        "kind": "transitions", "transitions": [[2, 0], [0, 1]], "theta": 0.5}),
        "ValueError: transitions must be an m x m 0/1 matrix"),
    "e2-bridge-visits-twice": ("e2.json", e2_suite(bridge="11"),
                               "ValueError: word visits every cylinder more than once"),
    "e2-defective-collision": ("e2.json", e2_suite(collision_tol=1e-300),
                               "ValueError: non-diagonalizable input"),
    "e2-separation-budget": ("e2.json", e2_suite(pinching_eps=1e-14),
                             "ArithmeticError: could not separate moduli within the budget"),
    # snapping the collided pair to the real axis takes most of the budget;
    # the separation steps eps / 10 / 1.6^k that still fit are below 1e-9
    # and leave its two reals closer than the gap tolerance
    "e2-separation-real-gap": ("e2.json", e2_suite(pinching_eps=3.5e-8),
                               "ArithmeticError: could not separate moduli within the budget"),
    # two unit rotation pairs below the tracked pair share a modulus; the
    # tracked pair is not snapped, and steps of eps / 30 and below leave the
    # two pairs closer than the gap tolerance
    "e2-separation-equal-pairs": (
        "e2.json", e2_widened({"0": rotation_pairs(0.2, 0.5), "1": rotation_pairs(0.1, 0.3)},
                              pinching_eps=1e-8, realify_tol=1e-300),
        "ArithmeticError: could not separate moduli within the budget"),
    "e4-non-primitive-base": ("e4.json", lambda c: c.update(base={
        "kind": "transitions", "transitions": [[0, 1], [1, 0]], "theta": 0.5}),
        "ValueError: transition matrix must be primitive"),
    "e4-forbidden-transition": ("e4.json", lambda c: c.update(
        base={"kind": "golden_mean", "theta": 0.5},
        measure={"kind": "markov", "P": [[0.5, 0.5], [0.5, 0.5]]}),
        "ValueError: stochastic matrix charges a forbidden transition"),
    "e4-rows-off-one": ("e4.json", lambda c: c.update(
        measure={"kind": "markov", "P": [[0.5, 0.6], [0.5, 0.5]]}),
        "ValueError: rows of P must sum to one"),
    "e4-non-square-per-unit": ("e4.json", lambda c: c["scaling"]["per_unit"].update(
        {"0": [[2.0, 0.0, 0.0], [0.0, 0.5, 0.0]]}),
        "ValueError: generators must be square matrices"),
    "e4-mixed-per-unit": ("e4.json", lambda c: c["scaling"]["per_unit"].update(
        {"0": np.diag([2.0, 0.5, 1.0]).tolist()}),
        "ValueError: generators must share one dimension"),
}


def commuting_pair_and_axis(W, angle, radius, scalar):
    """W diag(R, scalar) W^-1, R the rotation block of angle and radius."""
    D = np.zeros((3, 3))
    D[:2, :2] = rotation_block(angle, radius)
    D[2, 2] = scalar
    return W @ D @ np.linalg.inv(W)


R04 = np.array(rotation_block(0.4, 1.0))
W3 = np.array([[1.0, 0.4, 0.3], [0.2, 1.0, -0.5], [0.1, 0.3, 1.0]])
# commuting E1 generators whose closed-form oracle declines
NO_ORACLE_MEMBERS = {
    # one shared Jordan block: no real block-diagonal basis
    "jordan": lambda: {"0": R04 @ [[2.0, 1.0], [0.0, 2.0]] @ R04.T,
                       "1": R04 @ [[0.5, 0.3], [0.0, 0.5]] @ R04.T},
    # the shared basis reads blocks to a tolerance that grows with its
    # condition number, and an eigenvalue of 3e-10 beside pairs of modulus 2
    # and 0.5 lies below it
    "tiny-eigenvalue": lambda: {"0": commuting_pair_and_axis(W3, 0.3, 2.0, 3e-10),
                                "1": commuting_pair_and_axis(W3, 0.7, 0.5, 6e-10)},
}


def run_doctored(tmp_path, name, mutate):
    """Exit code and report directory of the CLI on a shipped config
    changed by mutate."""
    cfg = load(name)
    mutate(cfg)
    doctored = tmp_path / f"doctored_{name}"
    doctored.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return cli.main(["--config", str(doctored), "--out", str(out)]), out


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        for exp in ("E1", "E2", "E3", "E4", "E5"):
            assert exp in out

    def test_validate_shipped(self, capsys):
        assert cli.main(["--config", str(CONFIG_DIR / "e2.json"), "--validate"]) == 0
        assert "ok (E2)" in capsys.readouterr().out

    def test_config_required(self, capsys):
        assert cli.main([]) == 1
        assert "--config is required" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.main(["--config", str(bad), "--validate"]) == 1
        assert "bad.json:1:2" in capsys.readouterr().err

    @pytest.mark.parametrize("member", ["control", "informative"])
    def test_e1_member_without_measures(self, tmp_path, capsys, member):
        # control and informative are members like the suite's; a missing
        # measures list used to pass validation and fail inside run_e1
        cfg = load("e1.json")
        del cfg[member]["measures"]
        doctored = tmp_path / "e1_bad.json"
        doctored.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(doctored), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {doctored}: $.{member}: 'measures' is a required property")
        assert "Traceback" not in err
        assert not (tmp_path / "e1.json").exists()

    @pytest.mark.parametrize("member,index,kind,field", [
        (1, 1, "markov", "P"), (0, 1, "gibbs", "phi"), (1, 1, "bernoulli", "p")])
    def test_measure_without_its_kinds_field(self, tmp_path, capsys, member, index, kind, field):
        # used to pass validation and raise KeyError inside build_measure
        cfg = load("e1.json")
        cfg["suite"][member]["measures"][index] = {"kind": kind, "name": kind}
        doctored = tmp_path / "e1_bad.json"
        doctored.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(doctored), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        anchor = f"$.suite[{member}].measures[{index}]"
        assert err.startswith(f"error: {doctored}: {anchor}: '{field}' is a required property")
        assert "Traceback" not in err
        assert not (tmp_path / "e1.json").exists()

    @pytest.mark.parametrize("name,path,value,anchor,message", [
        ("e2.json", ["suites", 0, "scan_points"], 1,
         "$.suites[0].scan_points", "1 is less than the minimum of 2"),
        ("e2.json", ["suites", 1, "scan_points"], 64.5,
         "$.suites[1].scan_points", "64.5 is not of type 'integer'"),
        ("e2.json", ["suites", 0, "realify_tol"], 0,
         "$.suites[0].realify_tol", "0 is less than or equal to the minimum of 0"),
        ("e5.json", ["ladders", "measure"], None,
         "$.ladders", "'measure' is a required property"),
        ("e5.json", ["ladders", "cocycle", "word"], None,
         "$.ladders.cocycle", "'word' is a required property"),
        ("e5.json", ["ladders", "cocycle", "word"], 0,
         "$.ladders.cocycle.word", "0 is not of type 'string'"),
        ("e5.json", ["ladders", "cocycle", "eps0"], None,
         "$.ladders.cocycle", "'eps0' is a required property"),
        ("e5.json", ["ladders", "measure", "P1"], None,
         "$.ladders.measure", "'P1' is a required property"),
        ("e5.json", ["ladders", "measure", "P0"], [[0.5, "0.5"], [0.5, 0.5]],
         "$.ladders.measure.P0[0][1]", "'0.5' is not of type 'number'"),
        ("e5.json", ["ladders", "measure", "eps0"], 1.5,
         "$.ladders.measure.eps0", "1.5 is greater than the maximum of 1"),
        ("e5.json", ["ladders", "family", "p_word"], None,
         "$.ladders.family", "'p_word' is a required property"),
        ("e5.json", ["ladders", "family", "theta0"], -0.08,
         "$.ladders.family.theta0", "-0.08 is less than or equal to the minimum of 0"),
        ("e5.json", ["ladders", "family", "eps0"], 0.0,
         "$.ladders.family.eps0", "0.0 is less than or equal to the minimum of 0"),
        ("e5.json", ["ladders", "family", "rungs"], 0,
         "$.ladders.family.rungs", "0 is less than the minimum of 1"),
    ])
    def test_runner_field_constraint(self, tmp_path, capsys, name, path, value, anchor, message):
        # every field run_e2 and run_e5 read is declared; these used to pass
        # validation (value None deletes the field)
        cfg = load(name)
        *parents, key = path
        node = cfg
        for p in parents:
            node = node[p]
        if value is None:
            del node[key]
        else:
            node[key] = value
        doctored = tmp_path / f"bad_{name}"
        doctored.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(doctored), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {doctored}: {anchor}: {message}\n"
        assert not (tmp_path / name).exists()

    def test_experiment_mismatch(self, capsys):
        code = cli.main(["--config", str(CONFIG_DIR / "e3.json"),
                         "--experiment", "E1"])
        assert code == 1
        assert "describes E3" in capsys.readouterr().err

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COCYCLE_LAB_THREADS", "-3")
        code = cli.main(["--config", str(CONFIG_DIR / "e3.json"),
                         "--out", str(tmp_path)])
        assert code == 1
        assert "COCYCLE_LAB_THREADS" in capsys.readouterr().err

    def test_run_writes_reports_and_exit_zero(self, tmp_path, capsys):
        code = cli.main(["--config", str(CONFIG_DIR / "e3.json"),
                         "--experiment", "E3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS  exponential-rate" in out
        assert (tmp_path / "e3.json").exists()
        assert (tmp_path / "e3_toral.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--config", str(CONFIG_DIR / "e5.json"), "--out", str(a)]) == 0
        assert cli.main(["--config", str(CONFIG_DIR / "e5.json"), "--out", str(b)]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_report(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--config", str(CONFIG_DIR / "e3.json"), "--out", str(a)]) == 0
        assert cli.main(["--config", str(CONFIG_DIR / "e3.json"), "--out", str(b),
                         "--seed", "99"]) == 0
        assert json.loads((b / "e3.json").read_text())["seed"] == 99
        assert (a / "e3.json").read_bytes() != (b / "e3.json").read_bytes()

    def test_verdict_failure_exits_two(self, tmp_path, capsys):
        cfg = load("e4.json")
        cfg["integrals"][0]["expected"] = 0.9
        doctored = tmp_path / "e4_fail.json"
        doctored.write_text(json.dumps(cfg))
        code = cli.main(["--config", str(doctored), "--out", str(tmp_path)])
        assert code == 2
        assert "FAIL  integral-unit" in capsys.readouterr().out

    @pytest.mark.parametrize("measure", NEGATIVE_MEASURES)
    def test_negative_probability_exits_one(self, tmp_path, capsys, measure):
        cfg = load("e1.json")
        cfg["n_steps"] = 20000
        cfg["suite"] = [dict(cfg["suite"][0], measures=[measure])]
        doctored = tmp_path / "e1_negative.json"
        doctored.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(doctored), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: P and pi must have nonnegative entries\n"
        assert not (tmp_path / "e1.json").exists()

    def test_runtime_error_ends_with_one_line(self, tmp_path, monkeypatch, capsys):
        def failing(cfg, seed):
            raise ArithmeticError("holonomy series did not converge within the depth cap")

        monkeypatch.setattr(cli, "run_experiment", failing)
        code = cli.main(["--config", str(CONFIG_DIR / "e3.json"), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: ArithmeticError: holonomy series did not converge"
                       " within the depth cap\n")
        assert "Traceback" not in err
        assert not (tmp_path / "e3.json").exists()

    # configs that reach branches and errors no shipped config reaches

    @pytest.mark.parametrize("mutate", [
        lambda c: c["roof"]["values"].update({"1": 1.5}),
        lambda c: c["scaling"].update(factor=1.5),
    ], ids=["roof", "factor"])
    def test_non_integer_roof_exits_one(self, tmp_path, capsys, mutate):
        # return cocycles raise per-unit generators to integer powers only
        code, out = run_doctored(tmp_path, "e4.json", mutate)
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: return cocycles need integer roof values, got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("name,mutate,message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
    def test_error_ends_with_one_line(self, tmp_path, capsys, name, mutate, message):
        code, out = run_doctored(tmp_path, name, mutate)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_e3_toral_matrix_with_zero_pivot(self, tmp_path, capsys):
        # the integer determinant swaps rows past the zero pivot
        code, out = run_doctored(
            tmp_path, "e3.json", lambda c: c["toral"].update(matrix=[[0, 1], [1, 1]]))
        assert code == 0
        v = {d["name"]: d for d in json.loads((out / "e3.json").read_text())["verdicts"]}
        assert v["toral-uniqueness"]["passed"] and v["toral-shadowing-bound"]["passed"]

    def test_e2_lift_short_of_a_full_turn(self, tmp_path, capsys):
        # two copies never turn the commuting pair a full turn: no collision
        # to separate, and the pipeline row records none
        def short(cfg):
            cfg["suites"] = [dict(cfg["suites"][0], n_grid=[1, 2])]
        code, out = run_doctored(tmp_path, "e2.json", short)
        assert code == 2
        v = {d["name"]: d["passed"] for d in json.loads((out / "e2.json").read_text())["verdicts"]}
        assert not v["commuting-d2-threshold-n"]
        assert not v["commuting-d2-pinching-after-separation"]
        rows = (out / "e2_pipeline.csv").read_text().splitlines()
        assert rows[1:] == ["commuting-d2,-1,nan,none,false,false,nan"]

    def test_e5_stopping_time_inside_a_step(self, tmp_path, capsys):
        # t = 6.5 ends every path half way through a unit roof step
        code, out = run_doctored(tmp_path, "e5.json", lambda c: c.update(t=6.5))
        assert code == 0
        doc = json.loads((out / "e5.json").read_text())
        assert all(v["passed"] for v in doc["verdicts"])

    def test_e1_conformal_member_and_short_path(self, tmp_path, capsys):
        # commuting rotation-dilation generators: the closed-form oracle
        # reads their conformal 2x2 blocks, and their two equal exponents
        # are not simple; 1000 steps halve the QR block
        def member(cfg):
            cfg["n_steps"] = 1000
            cfg["suite"] = [{
                "name": "conformal-d2", "p_word": "0", "bridge": "1",
                "cocycle": {"window": 1, "generators": {
                    "0": rotation_block(0.3, 2.0), "1": rotation_block(0.7, 0.5)}},
                "measures": [{"kind": "parry", "name": "parry"}]}]
            cfg["gap_member"] = "conformal-d2"
        code, out = run_doctored(tmp_path, "e1.json", member)
        v = {d["name"]: d for d in json.loads((out / "e1.json").read_text())["verdicts"]}
        assert v["closed-form-agreement"]["passed"]
        assert "conformal-d2/parry" in v["closed-form-agreement"]["detail"]["errors"]
        assert not v["suite-simplicity-verdicts"]["passed"]
        assert code == 2


    @pytest.mark.parametrize("mutate", [
        # a chain that mostly stays put: the sampler walks its long runs
        lambda c: c.update(measure={"kind": "markov", "P": [[0.99, 0.01], [0.01, 0.99]]}),
        # forbidding 00: its Parry measure comes from negative Perron vectors
        # as LAPACK returns them
        lambda c: c.update(base={"kind": "transitions", "theta": 0.5,
                                 "transitions": [[0, 1], [1, 1]]},
                           integrals=c["integrals"][:1]),
    ], ids=["sticky-markov", "negative-perron-vectors"])
    def test_e4_other_measures(self, tmp_path, capsys, mutate):
        def short(cfg):
            mutate(cfg)
            cfg["scaling"]["n_steps"] = 20000
        code, out = run_doctored(tmp_path, "e4.json", short)
        assert code == 0

    def test_e4_overflowing_integral_is_written_as_a_string(self, tmp_path, capsys):
        def huge(cfg):
            cfg["integrals"][1]["poly"].update({"0": [1e308], "1": [1e308]})
            cfg["scaling"]["n_steps"] = 20000
        code, out = run_doctored(tmp_path, "e4.json", huge)
        assert code == 2
        v = {d["name"]: d for d in json.loads((out / "e4.json").read_text())["verdicts"]}
        assert v["integral-height"]["detail"]["value"] == "inf"
        assert (out / "e4_integrals.csv").read_text().splitlines()[2].startswith("height,inf,")

    @pytest.mark.parametrize("extra,pinched", [
        # a third axis completes the rotation plane to a basis, and
        # separation keeps it as a real block
        ({"0": [[0.5]], "1": [[0.7]]}, True),
        # a second conformal pair stays complex through separation, so the
        # return word is not pinched
        ({"0": rotation_block(0.2, 1.0), "1": rotation_block(0.1, 1.0)}, False),
    ], ids=["d3", "d4"])
    def test_e2_commuting_family_in_higher_dimension(self, tmp_path, capsys, extra, pinched):
        code, out = run_doctored(tmp_path, "e2.json", e2_widened(extra))
        row = (out / "e2_pipeline.csv").read_text().splitlines()[1].split(",")
        assert row[3:5] == ["golden", "true" if pinched else "false"]
        assert code == (0 if pinched else 2)

    @pytest.mark.parametrize("theta0,generators", [
        (2.353, {"0": [[0.6962, -0.8147], [0.8147, 0.6962]],
                 "1": [[1.1193, -0.1137], [-0.0878, 0.9968]]}),
        (1.8465, {"0": [[-0.2676, 0.9309, 0.0], [-0.9309, -0.2676, 0.0], [0.0, 0.0, 1.5384]],
                  "1": [[1.0206, -0.1043, -0.0754], [-0.1043, 1.1204, -0.0438],
                        [-0.0754, -0.0438, 1.1705]]}),
    ], ids=["d2", "d3"])
    def test_e2_generic_family_with_real_grid_points(self, tmp_path, capsys, theta0, generators):
        # the pair of these families turns real at some scan and grid
        # points, which have no block to track or compare: in d = 2 the
        # return block has a real spectrum, in d = 3 no complex pair at all
        code, out = run_doctored(tmp_path, "e2.json", lambda c: c.update(suites=[dict(
            c["suites"][0], name="generic", kind="generic", theta0=theta0, n_grid=[1, 2, 3],
            s_points=17, scan_points=65, cocycle={"window": 1, "generators": generators})]))
        assert code == 0
        lifts = [row.split(",") for row in (out / "e2_lifts.csv").read_text().splitlines()[1:]]
        assert [row[-1] for row in lifts] == ["1", "1", "1"]
        assert (out / "e2_pipeline.csv").read_text().splitlines()[1].split(",")[3] == "interior"

    def test_e1_oracle_disagrees_on_a_path_that_keeps_its_state(self, tmp_path, capsys):
        # a chain that leaves a state once in 10^5 steps keeps the 1000-step
        # path in its first state: every batch mean is that state's log
        # modulus, log 2 or log 0.5, and the stationary average is 0
        def member(cfg):
            cfg["n_steps"] = 1000
            cfg["suite"] = [{
                "name": "conformal-d2", "p_word": "0", "bridge": "1",
                "cocycle": {"window": 1, "generators": {
                    "0": rotation_block(0.3, 2.0), "1": rotation_block(0.7, 0.5)}},
                "measures": [{"kind": "markov", "name": "sticky",
                              "P": [[0.99999, 0.00001], [0.00001, 0.99999]]}]}]
            cfg["gap_member"] = "conformal-d2"
        code, out = run_doctored(tmp_path, "e1.json", member)
        v = {d["name"]: d for d in json.loads((out / "e1.json").read_text())["verdicts"]}
        assert not v["closed-form-agreement"]["passed"]
        errors = v["closed-form-agreement"]["detail"]["errors"]
        assert errors["conformal-d2/sticky"] == pytest.approx(np.log(2.0), rel=1e-12)
        assert code == 2

    def test_e1_generator_with_an_off_block_entry_in_its_last_row(self, tmp_path, capsys):
        # 5e-12 under the conformal pair is within the pair's tolerance but
        # not within the last axis's, so no block starts on the last row; the
        # closed-form oracle reads the commuting pair in a shared basis instead
        gens = {"0": [[2.0, 1.0, 0.0], [-1.0, 2.0, 0.0], [5e-12, 0.0, 0.5]],
                "1": [[1.0, 0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 1.5]]}

        def member(cfg):
            cfg["n_steps"] = 1000
            cfg["suite"] = [{"name": "last-row", "p_word": "0", "bridge": "1",
                             "cocycle": {"window": 1, "generators": gens},
                             "measures": [{"kind": "parry", "name": "parry"}]}]
            cfg["gap_member"] = "last-row"
        code, out = run_doctored(tmp_path, "e1.json", member)
        v = {d["name"]: d for d in json.loads((out / "e1.json").read_text())["verdicts"]}
        assert v["closed-form-agreement"]["passed"]
        assert "last-row/parry" in v["closed-form-agreement"]["detail"]["errors"]

    @pytest.mark.parametrize("gens", NO_ORACLE_MEMBERS.values(), ids=NO_ORACLE_MEMBERS)
    def test_e1_commuting_member_without_an_oracle(self, tmp_path, capsys, gens):
        def member(cfg):
            cfg["n_steps"] = 1000
            cfg["suite"].append({
                "name": "no-oracle", "p_word": "0", "bridge": "1",
                "cocycle": {"window": 1, "generators": {w: M.tolist() for w, M in gens().items()}},
                "measures": [{"kind": "parry", "name": "parry"}]})
        _, out = run_doctored(tmp_path, "e1.json", member)
        rows = [r.split(",") for r in (out / "e1_spectra.csv").read_text().splitlines()]
        member_rows = [r for r in rows if r[0] == "no-oracle"]
        assert member_rows and all(r[rows[0].index("oracle")] == "" for r in member_rows)


class TestColdStart:
    def test_shipped_runs_do_not_import_scipy(self, tmp_path):
        # scipy is not a dependency: an import hook blocks it, and the
        # package and every shipped config must still run, without even
        # trying to import it
        script = (
            "import sys\n"
            "tried = []\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            tried.append(name)\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import cocyclelab\n"
            "import cocyclelab.experiments.cli as cli\n"
            f"codes = [cli.main(['--config', p, '--out', {str(tmp_path)!r}]) for p in sys.argv[1:]]\n"
            "assert codes == [0] * len(codes), codes\n"
            "print(tried, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(ex.__file__).parents[2])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script, *map(str, SHIPPED)],
                             env=env, capture_output=True, text=True, check=True)
        assert run.stdout.splitlines()[-1] == "[] []"


# members that only the benchmark's per-layer counters are meant to read
UNREAD_MEMBERS = {
    f"{cls}.{name}": "ROADMAP item 6: deterministic work counter"
    for cls, name in [("LyapunovEstimate", "block_size"), ("LyapunovEstimate", "segments"),
                      ("LyapunovEstimate", "reduced_blocks"), ("LyapunovEstimate", "seam_blocks"),
                      ("RhoMeasureEstimate", "nodes")]
}


# src blocks no shipped run executes, each with the open item that ships it:
# (module, function, first line of a statement); a compound statement
# excuses its body, None the whole function
ITEM5 = "ROADMAP item 5: the symplectic surgery ships with a repeated modulus"
ITEM5_UNIT = "ROADMAP item 5: a symplectic member whose rotated pair has modulus one"
ITEM4 = ("ROADMAP item 4: the E1 bump member from the hyperbolic_bump_cocycle family"
         " has two bumps, one along its own direction")
ITEM4_DEEP = ("ROADMAP item 4: the shipped bump cocycles converge within one chunk of"
              " their holonomy series; a slower fiber-bunched member runs past it")
ITEM4_UNDOMINATED = ("ROADMAP item 4: with bump members in E1 configs, an undominated bump"
                     " cocycle is legal input")
UNRUN_BLOCKS = {
    ("linalg.py", "_symplectic_moduli_perturb", None): ITEM5,
    ("linalg.py", "_symplectic_moduli_perturb_repeated", None): ITEM5,
    ("linalg.py", "moduli_separation_perturb", 'if constraint == "symplectic":'): ITEM5,
    ("linalg.py", "symplectic_diagonalize", "if real:"): ITEM5,
    ("linalg.py", "symplectic_diagonalize", "elif abs(mod - 1.0) <= match_tol:"): ITEM5,
    ("linalg.py", "symplectic_diagonalize", 'if kind == "real_pair":'): ITEM5,
    ("linalg.py", "symplectic_diagonalize", 'elif kind == "unit_pair":'): ITEM5,
    ("linalg.py", "symplectic_diagonalize", 'if b.kind == "unit_pair":'): ITEM5,
    ("cocycles.py", "insertion", "i = self.block_slots[0]"): ITEM5_UNIT,
    ("cocycles.py", "insertion", "R[np.ix_([i, n + i], [i, n + i])] = rot"): ITEM5_UNIT,
    ("cocycles.py", "rotation_perturb_family", "off = coords[slots[0], n + slots[0]]"): ITEM5_UNIT,
    ("cocycles.py", "direction_for", None): ITEM4,
    ("cocycles.py", "_bump_factors", "elif lam[j].imag == 0:"): ITEM4,
    ("cocycles.py", "_factor_gap", "if i:"): ITEM4,
    ("cocycles.py", "_series_holonomy", "if len(bumps) > 1:"): ITEM4,
    ("cocycles.py", "_series_holonomy", "k0 += n"): ITEM4_DEEP,
    ("cocycles.py", "domination_check", "if N >= _DOMINATION_MAX_POWER:"): ITEM4_UNDOMINATED,
    ("cocycles.py", "domination_check", "if len(idx) * m > _DOMINATION_BUDGET:"): ITEM4_UNDOMINATED,
    ("cocycles.py", "domination_check", "return DominationResult(False, None, 0.0)"):
        ITEM4_UNDOMINATED,
    ("cocycles.py", "holonomy_constants", "if not dom.dominated:"): ITEM4_UNDOMINATED,
}


@functools.cache
def parsed_module(path):
    source = path.read_text()
    return ast.parse(source), source.splitlines()


def block_lines(path, function, header):
    """Lines of a function, or of its statement whose first line reads
    header: the body of a compound statement, a simple one whole."""
    tree, lines = parsed_module(path)
    fn = next(n for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == function)
    if header is None:
        return set(range(fn.lineno, fn.end_lineno + 1))
    node = next(n for n in ast.walk(fn)
                if isinstance(n, ast.stmt) and lines[n.lineno - 1].strip() == header)
    body = getattr(node, "body", [node])
    return set(range(body[0].lineno, body[-1].end_lineno + 1))


def line_ranges(lines):
    """Sorted line numbers as compact 'a-b' ranges."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return [f"{a}" if a == b else f"{a}-{b}" for a, b in out]


def load_bench_workloads():
    path = Path(ex.__file__).parents[3] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def shipped_record(request, shipped_trace, tmp_path_factory):
    """The session's trace of the shipped set, completed by one pass at
    seed 2024 of the benchmark's hoelder workload and rho-fallback unit.

    A shipped test that failed or skipped fails the guards at once.  When
    the session left shipped tests out, they and these guards run in a
    fresh session that names every shipped test, and the record is None; a
    session that names them all and still misses one fails instead."""
    root = Path(ex.__file__).parents[3]
    shipped = conftest_shipped_tests()
    if shipped & shipped_trace.failed:
        pytest.fail(f"shipped tests did not pass: {sorted(shipped & shipped_trace.failed)}")
    if not shipped <= shipped_trace.ran:
        nodes = sorted({f"tests/{f}" + (f"::{c}" if c else "") for f, c, _ in shipped})
        if set(nodes) <= set(request.config.invocation_params.args):
            pytest.fail(f"shipped tests did not run: {sorted(shipped - shipped_trace.ran)}")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes,
             f"tests/{Path(__file__).name}::TestShippedRuns"],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True)
        assert run.returncode == 0, run.stdout[-4000:]
        return None
    bench = load_bench_workloads()
    work = str(tmp_path_factory.mktemp("bench"))
    tally = bench.Tally()
    hoelder, periodic = bench.Hoelder(2024), bench.Periodic(2024)
    shipped_trace.start()
    try:
        hoelder.run(tally, work)
        bench.run_unit(tally, "rho-fallback", lambda: periodic._fallback(tally, work))
    finally:
        shipped_trace.stop()
    assert (tally.failed, sorted(tally.digests)) == (0, ["hoelder", "rho-fallback"]), tally.notes
    return shipped_trace


class TestShippedRuns:
    """Guards against regrowth: what the shipped set does not run or read
    goes, or gets a shipped case."""

    def test_every_src_line_runs_in_a_shipped_run(self, shipped_record):
        # every non-raise line of a library function body runs in the
        # shipped set, apart from the blocks UNRUN_BLOCKS names
        if shipped_record is None:
            return  # checked by the fresh session above
        pkg = Path(ex.__file__).parents[1]
        missed = shipped_record.unexecuted()
        stale = []
        for (module, function, header), reason in UNRUN_BLOCKS.items():
            assert "ROADMAP item" in reason
            path = pkg / module
            excused = block_lines(path, function, header) & missed.get(path, set())
            if not excused:
                stale.append((module, function, header))
            missed[path] = missed.get(path, set()) - excused
        unrun = [f"{path.relative_to(pkg)}:{','.join(line_ranges(lines))}"
                 for path, lines in sorted(missed.items()) if lines]
        assert (unrun, stale) == ([], [])

    def test_every_public_member_is_read_in_a_shipped_run(self, shipped_record):
        # a public method, property or dataclass field of a public library
        # class is read in the shipped set, other than by the class's own
        # __post_init__ or the dataclass machinery
        if shipped_record is None:
            return  # checked by the fresh session above
        unread = {f"{cls.__name__}.{name}"
                  for cls, names in shipped_record.unread.items() for name in names}
        assert sorted(unread - set(UNREAD_MEMBERS)) == []
        assert sorted(set(UNREAD_MEMBERS) - unread) == []
