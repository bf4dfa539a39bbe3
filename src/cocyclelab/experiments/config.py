"""Experiment configuration: JSON documents, schema validation, builders.

A config file holds one experiment: a schema version, the experiment id,
a seed, and the experiment-specific sections.  Validation reports schema
violations anchored to their JSON path; parse errors are anchored to the
line and column of the offending byte.
"""
from __future__ import annotations

import json

import jsonschema
import numpy as np

from ..cocycles import CocycleSpec
from ..shifts import MarkovMeasure, SftSpec, gibbs_locally_constant, parry_measure
from ..suspension import RoofFunction

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid configuration document; message carries the anchor."""


_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}

_BASE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["full_shift", "golden_mean", "transitions"]},
        "symbols": {"type": "integer", "minimum": 2},
        "theta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "transitions": _MATRIX,
    },
    "required": ["kind"],
}

_MEASURE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["parry", "markov", "bernoulli", "gibbs"]},
        "P": _MATRIX,
        "p": {"type": "array", "items": {"type": "number"}},
        "phi": {"type": "object"},
    },
    "required": ["kind"],
    # each kind needs the field build_measure reads for it
    "allOf": [
        {"if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
         "then": {"required": [field]}}
        for kind, field in (("markov", "P"), ("gibbs", "phi"), ("bernoulli", "p"))
    ],
}

# a generator has at least two rows and columns: a 1 x 1 cocycle has no
# modulus gap to measure (CocycleSpec checks that it is square)
_GENERATOR = {"type": "array", "minItems": 2,
              "items": {"type": "array", "minItems": 2, "items": {"type": "number"}}}

_COCYCLE = {
    "type": "object",
    "properties": {
        "window": {"type": "integer", "minimum": 1},
        "generators": {"type": "object", "additionalProperties": _GENERATOR},
    },
    "required": ["window", "generators"],
}

_ROOF = {
    "type": "object",
    "properties": {
        "window": {"type": "integer", "minimum": 1},
        "values": {"type": "object"},
    },
    "required": ["window", "values"],
}

_POLY = {"type": "object"}

# an E1 member: a suite entry, the control or the informative member
_MEMBER = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "cocycle": _COCYCLE,
        "p_word": {"type": "string"},
        "bridge": {"type": "string"},
        "measures": {"type": "array", "items": _MEASURE, "minItems": 1},
    },
    "required": ["name", "cocycle", "p_word", "bridge", "measures"],
}

_E1 = {
    "type": "object",
    "properties": {
        "n_steps": {"type": "integer", "minimum": 1000},
        "suite": {"type": "array", "minItems": 1, "items": _MEMBER},
        "control": _MEMBER,
        "informative": _MEMBER,
        "gap_member": {"type": "string"},
    },
    "required": ["n_steps", "suite", "control", "informative", "gap_member"],
}

_E2 = {
    "type": "object",
    "properties": {
        "roof": _ROOF,
        "suites": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "kind": {"enum": ["commuting", "symplectic", "generic"]},
                    "cocycle": _COCYCLE,
                    "p_word": {"type": "string"},
                    "bridge": {"type": "string"},
                    "theta0": {"type": "number", "exclusiveMinimum": 0},
                    "n_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                    "s_points": {"type": "integer", "minimum": 3},
                    "pinching_eps": {"type": "number", "exclusiveMinimum": 0},
                    "collision_tol": {"type": "number", "exclusiveMinimum": 0},
                    "scan_points": {"type": "integer", "minimum": 2},
                    "realify_tol": {"type": "number", "exclusiveMinimum": 0},
                    "final_bridge_fill": {"type": "string"},
                },
                "required": ["name", "kind", "cocycle", "p_word", "bridge",
                             "theta0", "n_grid", "s_points", "pinching_eps"],
            },
        },
    },
    "required": ["roof", "suites"],
}

_E3 = {
    "type": "object",
    "properties": {
        "fit": {
            "type": "object",
            "properties": {
                "p_word": {"type": "string"},
                "bridge": {"type": "string"},
                "n_values": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "eta_rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "residual_tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["p_word", "bridge", "n_values", "eta_rel_tol", "residual_tol"],
        },
        "toral": {
            "type": "object",
            "properties": {
                "matrix": _MATRIX,
                "x0": {"type": "array", "items": {"type": "number"}},
                "length": {"type": "integer", "minimum": 1},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 2},
            },
            "required": ["matrix", "x0", "length", "amplitude", "seeds"],
        },
        "period_bound": {
            "type": "object",
            "properties": {
                "roof0": _ROOF,
                "roof1": _ROOF,
                "p_word": {"type": "string"},
                "bridge": {"type": "string"},
                "n_max": {"type": "integer", "minimum": 1},
            },
            "required": ["roof0", "roof1", "p_word", "bridge", "n_max"],
        },
    },
    "required": ["fit", "toral", "period_bound"],
}

_E4 = {
    "type": "object",
    "properties": {
        "measure": _MEASURE,
        "roof": _ROOF,
        "integrals": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "poly": _POLY,
                    "poly_window": {"type": "integer", "minimum": 1},
                    "expected": {"type": "number"},
                },
                "required": ["name", "poly", "expected"],
            },
        },
        "identity_tol": {"type": "number", "exclusiveMinimum": 0},
        "scaling": {
            "type": "object",
            "properties": {
                "per_unit": {"type": "object"},
                "factor": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 1000},
                "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 2},
            },
            "required": ["per_unit", "factor", "n_steps", "seeds"],
        },
    },
    "required": ["measure", "roof", "integrals", "identity_tol", "scaling"],
}

# an E5 ladder runs eps0 * 2^-k for k < rungs (default 8)
_RUNGS = {"eps0": {"type": "number", "exclusiveMinimum": 0},
          "rungs": {"type": "integer", "minimum": 1}}

_E5 = {
    "type": "object",
    "properties": {
        "roof": _ROOF,
        "cocycle": _COCYCLE,
        "measure": _MEASURE,
        "t": {"type": "number", "exclusiveMinimum": 0},
        "ladders": {
            "type": "object",
            "properties": {
                "cocycle": {"type": "object", "required": ["word", "eps0"], "properties": {
                    "word": {"type": "string"}, **_RUNGS}},
                # P0 + eps (P1 - P0) stays between the two chains for eps <= 1
                "measure": {"type": "object", "required": ["P0", "P1", "eps0"], "properties": {
                    "P0": _MATRIX, "P1": _MATRIX, **_RUNGS,
                    "eps0": {"type": "number", "exclusiveMinimum": 0, "maximum": 1}}},
                "family": {"type": "object", "required": ["p_word", "theta0", "eps0"], "properties": {
                    "p_word": {"type": "string"},
                    "theta0": {"type": "number", "exclusiveMinimum": 0}, **_RUNGS}},
            },
            "required": ["cocycle", "measure", "family"],
        },
        "compare_eps": {"type": "number", "exclusiveMinimum": 0},
        "width_factor": {"type": "number", "exclusiveMinimum": 1},
    },
    "required": ["roof", "cocycle", "measure", "t", "ladders",
                 "compare_eps", "width_factor"],
}

_PER_EXPERIMENT = {"E1": _E1, "E2": _E2, "E3": _E3, "E4": _E4, "E5": _E5}

_TOP = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"enum": sorted(_PER_EXPERIMENT)},
        "seed": {"type": "integer", "minimum": 0},
        "base": _BASE,
    },
    "required": ["schema_version", "experiment", "seed", "base"],
}


def load_config(path: str) -> dict:
    """Parse a JSON config file; parse errors carry file:line:column, and
    the non-finite constants NaN, Infinity and -Infinity are rejected."""
    def non_finite(name):
        raise ConfigError(f"{path}: {name} is not a finite number")

    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=non_finite)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


def validate_config(cfg, source: str = "config") -> dict:
    """Schema-check a parsed config; violations carry the JSON path."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: top level must be an object")
    _check(cfg, _TOP, source)
    exp = cfg["experiment"]
    _check(cfg, _PER_EXPERIMENT[exp], source)
    return cfg


def _check(obj, schema, source):
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        anchor = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in e.absolute_path
        )
        raise ConfigError(f"{source}: {anchor}: {e.message}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_base(d: dict) -> SftSpec:
    kind = d["kind"]
    theta = float(d.get("theta", 0.5))
    if kind == "full_shift":
        return SftSpec.full_shift(int(d.get("symbols", 2)), theta=theta)
    if kind == "golden_mean":
        return SftSpec.golden_mean(theta=theta)
    T = np.asarray(d["transitions"], dtype=int)
    return SftSpec(T.shape[0], T, theta)


def build_measure(spec: SftSpec, d: dict) -> MarkovMeasure:
    kind = d["kind"]
    if kind == "parry":
        return parry_measure(spec)
    if kind == "gibbs":
        return gibbs_locally_constant(spec, {k: float(v) for k, v in d["phi"].items()})
    if kind == "bernoulli":
        p = np.asarray(d["p"], dtype=float)
        if p.shape != (spec.alphabet_size,) or abs(p.sum() - 1.0) > 1e-12:
            raise ConfigError("bernoulli weights must be a probability vector over the alphabet")
        P = np.tile(p, (spec.alphabet_size, 1))
        return markov_from_P(spec, P)
    return markov_from_P(spec, np.asarray(d["P"], dtype=float))


def markov_from_P(spec: SftSpec, P: np.ndarray) -> MarkovMeasure:
    """Markov measure from a stochastic matrix, stationary vector recomputed."""
    vals, vecs = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, i])
    pi = pi / pi.sum()
    return MarkovMeasure(spec=spec, P=P, pi=pi)


def build_cocycle(spec: SftSpec, d: dict) -> CocycleSpec:
    gens = {w: np.asarray(m, dtype=float) for w, m in d["generators"].items()}
    return CocycleSpec(spec, int(d["window"]), gens)


def build_roof(spec: SftSpec, d: dict) -> RoofFunction:
    vals = {w: float(v) for w, v in d["values"].items()}
    return RoofFunction(spec, int(d["window"]), vals)
