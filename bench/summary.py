"""Canonical, JSON-ready summaries of gordonlab results, and their comparison.

A summary keeps exact values exact (raw fixed-point integers, rationals as
"p/q" strings) and reduces long arrays and orbits to their length, sums and
evenly spaced samples.  Float fields compare within TOLERANCE; everything
else compares exactly.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

# Float outputs agree with the committed references to this tolerance:
# |a - b| <= abs + rel * max(|a|, |b|).  It absorbs libm/LAPACK last-bit
# differences between machines, nothing more.
TOLERANCE = {"rel": 1e-9, "abs": 1e-12}

_SAMPLES = 16
# Eigenvector signs are arbitrary; the sign-free ipr/edge_mass carry their content.
_SKIPPED_FIELDS = {"vectors"}


def summarize(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.ndarray):
        flat = obj.astype(float).ravel()
        stride = max(1, flat.size // _SAMPLES)
        return {
            "shape": list(obj.shape),
            "sum": summarize(np.sum(flat)),
            "abs_sum": summarize(np.sum(np.abs(flat))),
            "samples": [summarize(x) for x in flat[::stride][:_SAMPLES]],
        }
    if dataclasses.is_dataclass(obj):
        if hasattr(obj, "coords"):  # TorusPoint
            return [c.value for c in obj.coords]
        if hasattr(obj, "value") and len(dataclasses.fields(obj)) == 1:  # FixedPointFrac
            return obj.value
        return {
            f.name: summarize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in _SKIPPED_FIELDS
        }
    if isinstance(obj, dict):
        return {str(k): summarize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if len(obj) <= _SAMPLES:
            return [summarize(x) for x in obj]
        stride = len(obj) // _SAMPLES
        return {
            "len": len(obj),
            "samples": [summarize(x) for x in obj[::stride][:_SAMPLES]],
            "last": summarize(obj[-1]),
        }
    raise TypeError(f"no summary for {type(obj).__name__}")


def differences(expected, actual, path: str = "") -> list[str]:
    """Where `actual` departs from `expected`, as 'path: expected != actual' lines."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) and not (
            isinstance(expected, bool) or isinstance(actual, bool)
        ):
            scale = max(abs(expected), abs(actual))
            if abs(expected - actual) <= TOLERANCE["abs"] + TOLERANCE["rel"] * scale:
                return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}/{key}: present on one side only")
            else:
                out.extend(differences(expected[key], actual[key], f"{path}/{key}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(differences(e, a, f"{path}[{i}]"))
        return out
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def nonfinite_fields(summary, path: str = "") -> list[str]:
    """Paths of the non-finite floats ('nan', 'inf', '-inf') in a summary."""
    if summary in ("nan", "inf", "-inf"):
        return [path or "/"]
    if isinstance(summary, dict):
        return [p for k, v in summary.items() for p in nonfinite_fields(v, f"{path}/{k}")]
    if isinstance(summary, list):
        return [p for i, v in enumerate(summary) for p in nonfinite_fields(v, f"{path}[{i}]")]
    return []
