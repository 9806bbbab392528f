"""Lumped-circuit layer: netlist parsing, topology analysis and MNA stamping.

Netlist grammar (one branch per line, ``*`` starts a comment, keywords are
case-insensitive)::

    R<name> <node+> <node-> <ohms>
    L<name> <node+> <node-> <henries>
    C<name> <node+> <node-> <farads>
    V<name> <node+> <node-> SIN <amp> <f> | PSIN <amp> <f> <eps> <feps> | DC <volts>
    I<name> <node+> <node-> SIN ... | PSIN ... | DC ...
    FW<name> <node+> <node-> FILE <path> MODE <G|Ge|SOLID>

Node "0" is ground.  The stamped system is ``E dy/dt + A y = s(t)`` with the
unknown vector holding node potentials first, then per-branch extras in
branch order (inductor and source currents; field DoFs, voltage coefficients
and terminal current for embedded field elements).  :func:`mna_stamp` numbers
and stamps each branch in one pass; it drops entries in a ground row or column
and entries of value zero, and sums entries that share a position in branch
order.

Differential-index prediction is topological: the system is index 2 exactly
when the circuit contains a cutset of inductance-like branches and current
sources or a loop of capacitors and voltage sources.  :func:`predict_index`
reads both off component counts, at any netlist size: contracting every R, C
and V branch leaves more than one supernode, or adding the V branches to the
C branches merges fewer components than there are V branches.
:func:`detect_li_cutsets` enumerates the minimal cutsets on the contracted
graph, at desk scale.  The prediction targets the benign topologies this
package builds (passive two-terminal branches, independent sources); exotic
configurations outside that class are not covered.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .dae_analysis import ElementKind
from .errors import ParseError, UnclassifiedElementError, ValidationError
from .winding import AssembledFoilSystem, SolidSystem, load_system, solid_from_foil

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SourceWaveform:
    """Time-dependent source value: plain/perturbed sine or constant."""

    kind: str  # "sin" | "psin" | "dc"
    amplitude: float
    frequency: float = 0.0
    eps: float = 0.0
    f_eps: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sin", "psin", "dc"):
            raise ValidationError(f"unknown waveform kind {self.kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "dc":
            return self.amplitude * np.ones_like(t)
        base = np.sin(TWO_PI * self.frequency * t)
        if self.kind == "psin":
            base = base + self.eps * np.sin(TWO_PI * self.f_eps * t)
        return self.amplitude * base

    def integral(self, t):
        """Exact integral from 0 to t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "dc":
            return self.amplitude * t
        w = TWO_PI * self.frequency
        out = (1.0 - np.cos(w * t)) / w
        if self.kind == "psin":
            we = TWO_PI * self.f_eps
            out = out + self.eps * (1.0 - np.cos(we * t)) / we
        return self.amplitude * out


@dataclass(frozen=True)
class FieldElementRef:
    """Reference to an assembled field system plus the conductance mode."""

    path: str
    mode: str  # "G" | "Ge" | "SOLID"


@dataclass(frozen=True)
class Branch:
    name: str
    kind: str  # "R" | "L" | "C" | "V" | "I" | "FW"
    node_pos: str
    node_neg: str
    value: object  # float, SourceWaveform or FieldElementRef


@dataclass(frozen=True)
class Netlist:
    branches: tuple
    nodes: tuple  # deterministic order of first appearance, ground excluded


_WAVEFORM_ARITY = {"SIN": 2, "PSIN": 4, "DC": 1}


def _parse_float(token: str, line_no: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"expected a number, got {token!r}", line=line_no, column=col) from exc
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {token!r}", line=line_no, column=col)
    return value


def _parse_waveform(tokens, line_no, cols):
    if not tokens:
        raise ParseError("missing waveform", line=line_no)
    keyword = tokens[0].upper()
    if keyword not in _WAVEFORM_ARITY:
        raise ParseError(f"unknown waveform {tokens[0]!r}", line=line_no, column=cols[0])
    arity = _WAVEFORM_ARITY[keyword]
    if len(tokens) - 1 != arity:
        raise ParseError(
            f"waveform {keyword} needs {arity} parameter(s)", line=line_no, column=cols[0]
        )
    vals = [_parse_float(tok, line_no, col) for tok, col in zip(tokens[1:], cols[1:])]
    if keyword == "DC":
        return SourceWaveform(kind="dc", amplitude=vals[0])
    if keyword == "SIN":
        return SourceWaveform(kind="sin", amplitude=vals[0], frequency=vals[1])
    return SourceWaveform(
        kind="psin", amplitude=vals[0], frequency=vals[1], eps=vals[2], f_eps=vals[3]
    )


def parse_netlist(text: str) -> Netlist:
    """Parse and structurally validate a netlist."""
    branches = []
    names = set()
    nodes: dict = {}  # every node once, in order of first appearance

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("*", 1)[0]
        if not stripped.strip():
            continue
        matches = list(re.finditer(r"\S+", stripped))
        tokens = [m.group(0) for m in matches]
        cols = [m.start() + 1 for m in matches]
        if len(tokens) < 4:
            raise ParseError("branch line needs name, two nodes and a value", line=line_no)
        name = tokens[0]
        prefix = re.match(r"[A-Za-z]+", name)
        if prefix is None:
            raise ParseError(f"branch name {name!r} must start with letters", line=line_no, column=cols[0])
        kind = prefix.group(0).upper()
        kind = "FW" if kind.startswith("FW") else kind[0]
        if kind not in ("R", "L", "C", "V", "I", "FW"):
            raise ParseError(f"unknown element kind in {name!r}", line=line_no, column=cols[0])
        if name in names:
            raise ValidationError(f"duplicate branch name {name!r}", line=line_no)
        names.add(name)
        np_, nn = tokens[1], tokens[2]
        if np_ == nn:
            raise ValidationError(f"branch {name!r} connects a node to itself", line=line_no)
        nodes.setdefault(np_)
        nodes.setdefault(nn)
        rest, rest_cols = tokens[3:], cols[3:]
        if kind in ("R", "L", "C"):
            if len(rest) != 1:
                raise ParseError(f"{kind} branch takes exactly one value", line=line_no, column=cols[0])
            value = _parse_float(rest[0], line_no, rest_cols[0])
            if value <= 0.0:
                raise ValidationError(f"branch {name!r} needs a positive value, got {value}", line=line_no)
        elif kind in ("V", "I"):
            value = _parse_waveform(rest, line_no, rest_cols)
        else:  # FW
            if len(rest) != 4 or rest[0].upper() != "FILE" or rest[2].upper() != "MODE":
                raise ParseError(
                    "field element needs 'FILE <path> MODE <G|Ge|SOLID>'", line=line_no, column=cols[0]
                )
            mode_raw = rest[3].upper()
            mode_map = {"G": "G", "GE": "Ge", "SOLID": "SOLID"}
            if mode_raw not in mode_map:
                raise ParseError(f"unknown mode {rest[3]!r}", line=line_no, column=rest_cols[3])
            value = FieldElementRef(path=rest[1], mode=mode_map[mode_raw])
        branches.append(Branch(name=name, kind=kind, node_pos=np_, node_neg=nn, value=value))

    if not branches:
        raise ValidationError("empty netlist")
    if "0" not in nodes:
        raise ValidationError("netlist must reference the ground node '0'")
    del nodes["0"]
    find = _union(["0", *nodes], [(b.node_pos, b.node_neg) for b in branches])
    floating = [n for n in nodes if find(n) != find("0")]
    if floating:
        raise ValidationError(f"disconnected node(s): {sorted(floating)}")
    return Netlist(branches=tuple(branches), nodes=tuple(nodes))


def _field_kind(branch: Branch, field_classes) -> str:
    """Map a field element to 'L' or 'R' behavior via its :class:`ElementKind`."""
    if field_classes is None or branch.name not in field_classes:
        raise UnclassifiedElementError(
            f"field element {branch.name!r} lacks an inductance-/resistance-like classification"
        )
    if field_classes[branch.name] is ElementKind.RESISTANCE_LIKE:
        return "R"
    return "L"  # inductance-like and solid-degenerate behave inductively


def _effective_kinds(netlist: Netlist, field_classes) -> dict:
    kinds = {}
    for b in netlist.branches:
        kinds[b.name] = _field_kind(b, field_classes) if b.kind == "FW" else b.kind
    return kinds


def _union(nodes, pairs):
    """Union-find over ``nodes`` joined by ``pairs``; returns ``find``, each node's root.

    Each pair ``(a, b)`` in order sets ``parent[find(a)] = find(b)``; ``find``
    halves the paths it walks.
    """
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for a, b in pairs:
        parent[find(a)] = find(b)
    return find


def _contract(netlist: Netlist, kinds: dict, contracted: tuple) -> tuple:
    """Contract every branch whose effective kind is in ``contracted``.

    Returns ``find``, each node's supernode, and the sorted supernodes, ground's
    included.
    """
    nodes = ["0", *netlist.nodes]
    pairs = [(b.node_pos, b.node_neg) for b in netlist.branches if kinds[b.name] in contracted]
    find = _union(nodes, pairs)
    return find, sorted({find(n) for n in nodes})


def detect_li_cutsets(netlist: Netlist, field_classes: Mapping | None = None) -> list:
    """Minimal cutsets consisting only of inductive branches and current sources.

    Exact at desk scale: contract all other branches; every bond of the
    contracted multigraph that separates some supernode set from ground is a
    cutset of the original circuit.
    """
    kinds = _effective_kinds(netlist, field_classes)
    find, comps = _contract(netlist, kinds, ("R", "C", "V"))
    if len(comps) == 1:
        return []
    others = [c for c in comps if c != find("0")]
    if len(others) > 16:
        raise ValidationError(
            "cutset enumeration limited to desk-scale netlists: "
            f"{len(others)} supernodes besides ground's, at most 16"
        )
    li_edges = [(b.name, find(b.node_pos), find(b.node_neg))
                for b in netlist.branches if kinds[b.name] in ("L", "I")]
    cutsets = []
    seen = set()
    for size in range(1, len(others) + 1):
        for combo in itertools.combinations(others, size):
            inside = set(combo)
            crossing = [name for name, a, c in li_edges if (a in inside) != (c in inside)]
            if not crossing:
                continue
            outside = set(comps) - inside
            if not (_connected_subset(inside, li_edges) and _connected_subset(outside, li_edges)):
                continue
            key = frozenset(crossing)
            if key not in seen:
                seen.add(key)
                cutsets.append(crossing)
    return cutsets


def _connected_subset(node_set, edges) -> bool:
    """Whether the ``edges`` ``(name, a, b)`` with both ends in ``node_set`` connect it."""
    find = _union(node_set, [(a, c) for _, a, c in edges if a in node_set and c in node_set])
    return len({find(n) for n in node_set}) <= 1


def predict_index(netlist: Netlist, field_classes: Mapping | None = None) -> int:
    """Differential index of the MNA system, 2 or 1, read off component counts.

    The index is 2 when contracting every R, C and V branch leaves more than one
    supernode (an LI-cutset; a parsed netlist is connected), or when adding the V
    branches to the C branches merges fewer components than there are V branches
    (some source closes a loop of capacitors and sources).  Otherwise it is 1.
    """
    kinds = _effective_kinds(netlist, field_classes)

    def supernodes(*contracted):
        return len(_contract(netlist, kinds, contracted)[1])

    li_cutset = supernodes("R", "C", "V") > 1
    cv_loop = supernodes("C") - supernodes("C", "V") < list(kinds.values()).count("V")
    return 2 if li_cutset or cv_loop else 1


@dataclass(frozen=True)
class Probe:
    """How to read the terminal pair (i, v) of a branch from the state vector."""

    kind: str
    pos_index: int  # -1 for ground
    neg_index: int
    current_index: int = -1
    value: object = None


@dataclass(frozen=True)
class DAESystem:
    """Linear DAE ``E dy/dt + A y = s(t)`` with probe metadata."""

    E: sp.csr_matrix
    A: sp.csr_matrix
    source_rows: tuple  # (row, waveform, sign)
    layout: dict
    probes: dict

    def row_sources(self, t) -> dict:
        """Map each row with a source to the value of its sources at ``t`` (scalar or array).

        A row's sources are summed in ``source_rows`` order, starting from 0.0.
        """
        values = {}
        for row, waveform, sign in self.source_rows:
            values[row] = values.get(row, 0.0) + sign * waveform(t)
        return values

    def source(self, t: float) -> np.ndarray:
        """The source vector ``s(t)``: :meth:`row_sources` on its rows, zero elsewhere.

        :func:`~foilfem.timestepper.integrate` calls this only for its zero-start check;
        its steps use :meth:`row_sources`, evaluated once on the whole time grid.
        """
        s = np.zeros(self.E.shape[0])
        for row, value in self.row_sources(t).items():
            s[row] = value
        return s


def _stamp(parts: list, rows, cols, vals) -> None:
    """Append the entries ``(rows, cols, vals)``, broadcast together, to ``parts``.

    An entry in a ground row or column (index -1) or with value zero is dropped.
    """
    rows, cols, vals = np.broadcast_arrays(
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp),
        np.asarray(vals, dtype=float),
    )
    keep = (rows >= 0) & (cols >= 0) & (vals != 0.0)
    parts.append((rows[keep], cols[keep], vals[keep]))


def _block(parts: list, matrix, row0: int, col0: int, scale: float = 1.0) -> None:
    """Stamp ``scale * matrix`` with its entry (0, 0) at ``(row0, col0)``.

    The entries go in row-major order: a sparse block's in CSR storage order, a dense
    block's nonzeros as ``np.nonzero`` lists them.
    """
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        cols, vals = csr.indices, csr.data
    else:
        rows, cols = np.nonzero(matrix)
        vals = matrix[rows, cols]
    _stamp(parts, rows + row0, cols + col0, scale * vals)


def _csr(parts: list, n: int) -> sp.csr_matrix:
    """Sum the stamped entries into an ``n`` x ``n`` matrix, duplicates in stamp order."""
    none = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))
    rows, cols, vals = (np.concatenate(column) for column in zip(none, *parts))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def mna_stamp(netlist: Netlist, field_systems: Mapping | None = None) -> DAESystem:
    """Stamp the netlist into ``E dy/dt + A y = s(t)`` in one pass over the branches.

    Each branch numbers its own unknowns as it is stamped, after the node
    potentials and the unknowns of the branches before it.  Every entry goes
    through :func:`_stamp`, which drops entries in a ground row or column and
    entries of value zero; entries that land on one position are summed in
    branch order.  ``field_systems`` maps field-element file paths to
    in-memory systems; missing paths are loaded from disk.  Sign conventions:
    branch current flows from the positive to the negative node through the
    element, node equations sum currents leaving the node, current sources
    inject into the positive node.
    """
    node_index = {n: i for i, n in enumerate(netlist.nodes)}
    n_total = len(node_index)
    extras: dict = {}
    e_parts, a_parts = [], []
    source_rows = []
    probes = {}
    for b in netlist.branches:
        p, q = node_index.get(b.node_pos, -1), node_index.get(b.node_neg, -1)
        if b.kind in ("R", "C"):
            # the branch admittance couples p and q: conductance into A, capacitance into E
            g, parts = (1.0 / b.value, a_parts) if b.kind == "R" else (b.value, e_parts)
            _stamp(parts, [p, q, p, q], [p, q, q, p], [g, g, -g, -g])
            probes[b.name] = Probe(kind=b.kind, pos_index=p, neg_index=q, value=b.value)
            continue
        if b.kind == "I":
            source_rows += [(row, b.value, sign) for row, sign in ((p, 1.0), (q, -1.0)) if row >= 0]
            probes[b.name] = Probe(kind="I", pos_index=p, neg_index=q, value=b.value)
            continue

        # L, V and FW carry their current as an unknown j, after a field element's a and u
        info = {}
        if b.kind == "FW":
            ref = b.value
            in_memory = field_systems is not None and ref.path in field_systems
            system = field_systems[ref.path] if in_memory else load_system(ref.path)
            if ref.mode == "SOLID" and isinstance(system, AssembledFoilSystem):
                system = solid_from_foil(system)
            a0 = n_total
            n_total += system.n_dofs
            info["a"] = slice(a0, n_total)
            if not isinstance(system, SolidSystem):
                u0 = n_total
                n_total += system.n_basis
                info["u"] = slice(u0, n_total)
        j = info["current"] = n_total
        n_total += 1
        extras[b.name] = info
        _stamp(a_parts, [p, q], j, [1.0, -1.0])  # j leaves node p and enters node q
        if b.kind == "L":
            # L dj/dt - (phi_p - phi_q) = 0
            _stamp(e_parts, j, j, b.value)
            _stamp(a_parts, j, [p, q], [-1.0, 1.0])
        elif b.kind == "V":
            # phi_p - phi_q = v(t)
            _stamp(a_parts, j, [p, q], [1.0, -1.0])
            source_rows.append((j, b.value, 1.0))
        else:
            _block(e_parts, system.M, a0, a0)
            _block(a_parts, system.K, a0, a0)
            if isinstance(system, SolidSystem):
                # field rows: M da/dt + K a - x_sol (phi_p - phi_q) = 0
                x_col = system.x_sol[:, None]
                _block(a_parts, x_col, a0, p, scale=-1.0)
                _block(a_parts, x_col, a0, q)
                # terminal row: -x_sol^T da/dt + G_sol (phi_p - phi_q) - j = 0
                _block(e_parts, x_col.T, j, a0, scale=-1.0)
                _stamp(a_parts, j, [p, q, j], [system.G_sol, -system.G_sol, -1.0])
            else:
                # a rows: M da/dt + K a - X u = 0
                _block(a_parts, system.X, a0, u0, scale=-1.0)
                # u rows: -X^T da/dt + G u - c j = 0
                _block(e_parts, system.X.T, u0, a0, scale=-1.0)
                _block(a_parts, system.conductance(ref.mode), u0, u0)
                u_rows = np.arange(u0, j)
                _stamp(a_parts, u_rows, j, -system.c)
                # terminal row: -c^T u + (phi_p - phi_q) = 0
                _stamp(a_parts, j, u_rows, -system.c)
                _stamp(a_parts, j, [p, q], [1.0, -1.0])
        value = None if b.kind == "FW" else b.value
        probes[b.name] = Probe(kind=b.kind, pos_index=p, neg_index=q, current_index=j, value=value)

    return DAESystem(
        E=_csr(e_parts, n_total),
        A=_csr(a_parts, n_total),
        source_rows=tuple(source_rows),
        layout={"potentials": node_index, "extras": extras},
        probes=probes,
    )


def lumped_inductor_voltage_driven(L: float, psi0: float, waveform: SourceWaveform, t):
    """Closed-form inductor current under a voltage drive: (psi0 + int v) / L."""
    if L <= 0.0:
        raise ValidationError("inductance must be positive")
    return (psi0 + waveform.integral(t)) / L

