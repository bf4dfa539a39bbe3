"""Deterministic experiment reports: a JSON verdict document plus CSV tables.

Reports carry no timestamps or machine identifiers; rerunning the same
config with the same seed yields byte-identical files.  Every verdict names
the library invariant it exercises, collected into a traceability table.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os

import numpy as np

REPORT_VERSION = "0.1.0"


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, fixed separators, no NaN."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def _plain(obj):
    """Recursively convert numpy scalars/arrays into JSON-native values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            return repr(v)
        return v
    return obj


def verdict(name: str, passed, invariant: str, **detail) -> dict:
    """One named pass/fail check with the invariant it certifies."""
    return {
        "name": name,
        "passed": bool(passed),
        "invariant": invariant,
        "detail": _plain(detail),
    }


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        return ";".join(_cell(x) for x in v)
    return str(v)


def render_csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue()


def write_report(out_dir: str, experiment: str, cfg: dict, seed: int, result: dict) -> list:
    """Write <experiment>.json and one CSV per table; returns written paths.

    result holds "verdicts" (list of verdict dicts) and "tables"
    (name -> {"header": [...], "rows": [...]}).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    tables = result.get("tables", {})
    doc = {
        "experiment": experiment,
        "version": REPORT_VERSION,
        "config_sha256": config_digest(cfg),
        "seed": int(seed),
        "verdicts": _plain(result["verdicts"]),
        "traceability": [
            {"verdict": v["name"], "invariant": v["invariant"]}
            for v in result["verdicts"]
        ],
        "tables": sorted(tables),
    }
    jpath = os.path.join(out_dir, f"{experiment.lower()}.json")
    with open(jpath, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2))
        fh.write("\n")
    paths.append(jpath)
    for name in sorted(tables):
        t = tables[name]
        cpath = os.path.join(out_dir, f"{experiment.lower()}_{name}.csv")
        with open(cpath, "w") as fh:
            fh.write(render_csv(t["header"], t["rows"]))
        paths.append(cpath)
    return paths


def all_passed(result: dict) -> bool:
    return all(v["passed"] for v in result["verdicts"])
