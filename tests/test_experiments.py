"""Experiment configs, runners, reports, and the command line driver."""
import ast
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


def referenced_names(tree, skip=frozenset()):
    """Names read as a variable, an attribute or an import alias anywhere in
    tree, outside the nodes in skip; comments and docstrings do not count."""
    out = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update({node.name.rsplit(".", 1)[-1], node.asname})
    return out


def read_attributes(tree, skip=frozenset()):
    """Attribute names loaded anywhere in tree, outside the nodes in skip."""
    return {node.attr for node in ast.walk(tree)
            if node not in skip and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def public_members(cls):
    """(name, node) of the public methods, properties and annotated
    (dataclass) fields in a class body."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, node


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


# members that only the benchmark's per-layer counters are meant to read
UNREAD_MEMBERS = {
    f"{cls}.{name}": "ROADMAP item 6: deterministic work counter"
    for cls, name in [("LyapunovEstimate", "block_size"), ("LyapunovEstimate", "segments"),
                      ("LyapunovEstimate", "reduced_blocks"), ("LyapunovEstimate", "seam_blocks"),
                      ("RhoMeasureEstimate", "nodes")]
}


class TestShippedCallers:
    """Guards against regrowth by name: a name read or passed elsewhere for
    another object (``.nu``, ``.period``) hides an unread one."""

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

    def test_every_public_definition_has_a_library_bench_or_gate_reference(self):
        # a public top-level function or class of the library is referenced
        # outside its own definition, in a library module (its own
        # included), in the benchmark or in the acceptance gate; the
        # package's re-exports and the unit tests do not count.  This only
        # guards against regrowth: a referenced name may still never run.
        pkg = self.PKG
        trees = self.library()
        names = {path: referenced_names(tree) for path, tree in trees.items()}
        outside = set().union(*map(referenced_names, self.shipped_readers()))
        unreferenced = []
        for path, tree in trees.items():
            others = outside.union(*(n for p, n in names.items() if p != path))
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")
                        and node.name not in others
                        and node.name not in referenced_names(tree, frozenset(ast.walk(node)))):
                    unreferenced.append(f"{path.relative_to(pkg)}:{node.name}")
        assert unreferenced == []

    def test_every_public_member_is_read_by_the_library_bench_or_gate(self):
        # a public method, property or dataclass field of a public library
        # class is read as an attribute in a library module outside its own
        # definition, in the benchmark or in the acceptance gate
        trees = self.library()
        reads = {path: read_attributes(tree) for path, tree in trees.items()}
        outside = set().union(*map(read_attributes, self.shipped_readers()))
        unread = []
        for path, tree in trees.items():
            others = outside.union(*(r for p, r in reads.items() if p != path))
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                    continue
                for name, node in public_members(cls):
                    if (name not in others
                            and name not in read_attributes(tree, frozenset(ast.walk(node)))):
                        unread.append(f"{cls.name}.{name}")
        assert sorted(set(unread) - set(UNREAD_MEMBERS)) == []
        assert sorted(set(UNREAD_MEMBERS) - set(unread)) == []

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


class TestColdStart:
    def test_shipped_runs_do_not_import_scipy(self, tmp_path):
        # scipy is only needed for non-integer matrix powers; importing it
        # would be half of every cold start
        script = (
            "import sys\n"
            "import cocyclelab\n"
            "import cocyclelab.experiments.cli as cli\n"
            f"codes = [cli.main(['--config', p, '--out', {str(tmp_path)!r}]) for p in sys.argv[1:]]\n"
            "assert codes == [0] * len(codes), codes\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(ex.__file__).parents[2])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script, *map(str, SHIPPED)],
                             env=env, capture_output=True, text=True, check=True)
        assert run.stdout.splitlines()[-1] == "[]"
