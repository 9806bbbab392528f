"""Output checks.  Each returns a list of problems and never raises on bad data.

* assembled systems: K and M exactly symmetric, Ge SPD, every block finite,
  the expected DoF count per mesh level;
* transient traces: the consistent (Ge) variant finite and undiverged, the
  original (G) variant finite up to its divergence marker;
* reference quantities: on seed 0 the Ge-variant quantities must match the
  stored values of ``reference_seed0.json`` to 1e-9 relative;
* repeatability: an operation's outputs must be bit-identical to the first
  operation's outputs in the same run.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

REFERENCE_PATH = Path(__file__).with_name("reference_seed0.json")
REFERENCE_RTOL = 1e-9
EXPECTED_DOFS = {0: 84, 1: 231, 2: 1196, 3: 4500}
TRACE_STRIDE = 100


def _guarded(check):
    """Turn an exception raised while inspecting malformed output into a reported problem."""

    @functools.wraps(check)
    def run(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (AttributeError, TypeError, ValueError, KeyError, IndexError, OSError) as exc:
            return [f"{check.__name__}: {type(exc).__name__}: {exc}"]

    return run


@_guarded
def check_system(system, level: int, label: str) -> list:
    problems = []
    for name in ("K", "M"):
        mat = sp.csr_matrix(getattr(system, name))
        if not np.all(np.isfinite(mat.data)):
            problems.append(f"{label}: {name} has non-finite entries")
        if (mat != mat.T).nnz:
            problems.append(f"{label}: {name} is not exactly symmetric")
    for name in ("X", "G", "G_e", "c"):
        if not np.all(np.isfinite(np.asarray(getattr(system, name), dtype=float))):
            problems.append(f"{label}: {name} has non-finite entries")
    try:
        np.linalg.cholesky(np.asarray(system.G_e, dtype=float))
    except np.linalg.LinAlgError:
        problems.append(f"{label}: Ge is not SPD")
    expected = EXPECTED_DOFS.get(level)
    if expected is not None and system.n_dofs != expected:
        problems.append(f"{label}: {system.n_dofs} DoFs, expected {expected}")
    return problems


@_guarded
def check_trace(values, mode: str, diverged_at, label: str) -> list:
    values = np.asarray(values, dtype=float)
    if mode == "G":
        # the original variant may legitimately diverge; check what precedes the marker
        stop = len(values) if diverged_at is None else diverged_at
        if not np.all(np.isfinite(values[:stop])):
            return [f"{label}: non-finite values before the divergence marker"]
        return []
    if diverged_at is not None:
        return [f"{label}: consistent variant diverged at step {diverged_at}"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: non-finite values"]
    return []


def trace_digest(values) -> list:
    """Every ``TRACE_STRIDE``-th sample plus the last one, as plain floats."""
    values = np.asarray(values, dtype=float)
    return [float(v) for v in values[::TRACE_STRIDE]] + [float(values[-1])]


def fingerprint(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(str(a.shape).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="ascii"))


@_guarded
def compare_reference(quantities: dict, reference: dict, rtol: float = REFERENCE_RTOL) -> list:
    """Every quantity within ``rtol`` of its reference, relative to the reference's largest entry."""
    problems = []
    for key, ref in reference.items():
        if key not in quantities:
            problems.append(f"reference {key}: missing from the outputs")
            continue
        got = np.asarray(quantities[key], dtype=float)
        want = np.asarray(ref, dtype=float)
        if got.shape != want.shape:
            problems.append(f"reference {key}: shape {got.shape}, expected {want.shape}")
            continue
        scale = float(np.max(np.abs(want))) if want.size else 0.0
        err = float(np.max(np.abs(got - want))) if want.size else 0.0
        if not err <= rtol * scale:
            problems.append(f"reference {key}: deviation {err:.3e} exceeds {rtol:.0e} * {scale:.3e}")
    return problems


class Repeatability:
    """Remembers the first fingerprint per key and flags any later mismatch."""

    def __init__(self):
        self._first: dict[str, str] = {}

    def check(self, key: str, digest: str) -> list:
        first = self._first.setdefault(key, digest)
        if digest != first:
            return [f"{key}: output differs from the first operation of this run"]
        return []
