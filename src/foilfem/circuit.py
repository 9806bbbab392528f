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
and terminal current for embedded field elements).

Differential-index prediction is topological: the system is index 2 exactly
when the circuit contains a cutset of inductance-like branches and current
sources or a loop of capacitors and voltage sources.  Detection is exact at
desk scale via the spanning-forest criterion, with minimal cutsets enumerated
on the contracted graph.  The prediction targets the benign topologies this
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

    def branch(self, name: str) -> Branch:
        for b in self.branches:
            if b.name == name:
                return b
        raise KeyError(name)


_WAVEFORM_ARITY = {"SIN": 2, "PSIN": 4, "DC": 1}


def _parse_float(token: str, line_no: int, col: int) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"expected a number, got {token!r}", line=line_no, column=col) from exc


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
    nodes: list = []
    seen_nodes = set()

    def note_node(n):
        if n != "0" and n not in seen_nodes:
            seen_nodes.add(n)
            nodes.append(n)

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
            raise ValidationError(f"duplicate branch name {name!r}")
        names.add(name)
        np_, nn = tokens[1], tokens[2]
        if np_ == nn:
            raise ValidationError(f"branch {name!r} connects a node to itself")
        note_node(np_)
        note_node(nn)
        rest, rest_cols = tokens[3:], cols[3:]
        if kind in ("R", "L", "C"):
            if len(rest) != 1:
                raise ParseError(f"{kind} branch takes exactly one value", line=line_no, column=cols[0])
            value = _parse_float(rest[0], line_no, rest_cols[0])
            if value <= 0.0:
                raise ValidationError(f"branch {name!r} needs a positive value, got {value}")
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
    all_nodes = {"0"} | seen_nodes
    touched = set()
    for b in branches:
        touched.add(b.node_pos)
        touched.add(b.node_neg)
    if "0" not in touched:
        raise ValidationError("netlist must reference the ground node '0'")
    # connectivity over the full branch set
    adjacency: dict = {n: set() for n in all_nodes}
    for b in branches:
        adjacency[b.node_pos].add(b.node_neg)
        adjacency[b.node_neg].add(b.node_pos)
    reached = {"0"}
    stack = ["0"]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in reached:
                reached.add(nb)
                stack.append(nb)
    if reached != all_nodes:
        raise ValidationError(f"disconnected node(s): {sorted(all_nodes - reached)}")
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


def detect_li_cutsets(netlist: Netlist, field_classes: Mapping | None = None) -> list:
    """Minimal cutsets consisting only of inductive branches and current sources.

    Exact at desk scale: contract all other branches; every bond of the
    contracted multigraph that separates some supernode set from ground is a
    cutset of the original circuit.
    """
    kinds = _effective_kinds(netlist, field_classes)
    all_nodes = ["0", *netlist.nodes]
    parent = {n: n for n in all_nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for b in netlist.branches:
        if kinds[b.name] not in ("L", "I"):
            pa, pb = find(b.node_pos), find(b.node_neg)
            if pa != pb:
                parent[pa] = pb
    comps = sorted({find(n) for n in all_nodes})
    if len(comps) == 1:
        return []
    ground_comp = find("0")
    others = [c for c in comps if c != ground_comp]
    if len(others) > 16:
        raise ValidationError("cutset enumeration limited to desk-scale netlists")
    li_edges = [b for b in netlist.branches if kinds[b.name] in ("L", "I")]
    cutsets = []
    seen = set()
    for size in range(1, len(others) + 1):
        for combo in itertools.combinations(others, size):
            inside = set(combo)
            crossing = [
                b for b in li_edges if (find(b.node_pos) in inside) != (find(b.node_neg) in inside)
            ]
            if not crossing:
                continue
            if not _connected_subset(inside, li_edges, find):
                continue
            outside = set(comps) - inside
            if not _connected_subset(outside, li_edges, find):
                continue
            key = frozenset(b.name for b in crossing)
            if key not in seen:
                seen.add(key)
                cutsets.append([b.name for b in crossing])
    return cutsets


def _connected_subset(node_set, edges, find) -> bool:
    node_set = set(node_set)
    if len(node_set) <= 1:
        return True
    adj = {n: set() for n in node_set}
    for b in edges:
        a, c = find(b.node_pos), find(b.node_neg)
        if a in node_set and c in node_set and a != c:
            adj[a].add(c)
            adj[c].add(a)
    start = next(iter(node_set))
    reached = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in reached:
                reached.add(nb)
                stack.append(nb)
    return reached == node_set


def detect_cv_loops(netlist: Netlist, field_classes: Mapping | None = None) -> list:
    """Loops of capacitors and voltage sources containing at least one source."""
    kinds = _effective_kinds(netlist, field_classes)
    cv = [b for b in netlist.branches if kinds[b.name] in ("C", "V")]
    loops = []
    seen = set()
    for probe in (b for b in cv if kinds[b.name] == "V"):
        others = [b for b in cv if b.name != probe.name]
        path = _find_path(probe.node_pos, probe.node_neg, others)
        if path is None:
            continue
        loop = [probe.name, *path]
        key = frozenset(loop)
        if key not in seen:
            seen.add(key)
            loops.append(loop)
    return loops


def _find_path(start, goal, branches):
    """Breadth-first branch path between two nodes; returns branch names."""
    from collections import deque

    queue = deque([(start, [])])
    visited = {start}
    while queue:
        node, path = queue.popleft()
        if node == goal:
            return path
        for b in branches:
            if b.node_pos == node and b.node_neg not in visited:
                visited.add(b.node_neg)
                queue.append((b.node_neg, path + [b.name]))
            elif b.node_neg == node and b.node_pos not in visited:
                visited.add(b.node_pos)
                queue.append((b.node_pos, path + [b.name]))
    return None


def predict_index(netlist: Netlist, field_classes: Mapping | None = None) -> int:
    """Differential index of the MNA system: 2 on LI-cutsets or CV-loops, else 1."""
    if detect_li_cutsets(netlist, field_classes):
        return 2
    if detect_cv_loops(netlist, field_classes):
        return 2
    return 1


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
    n: int
    layout: dict
    probes: dict

    def source(self, t: float) -> np.ndarray:
        s = np.zeros(self.n)
        for row, waveform, sign in self.source_rows:
            s[row] += sign * waveform(t)
        return s


def mna_stamp(netlist: Netlist, field_systems: Mapping | None = None) -> DAESystem:
    """Stamp the netlist into ``E dy/dt + A y = s(t)``.

    ``field_systems`` maps field-element file paths to in-memory systems;
    missing paths are loaded from disk.  Sign conventions: branch current
    flows from the positive to the negative node through the element, node
    equations sum currents leaving the node, current sources inject into the
    positive node.
    """
    node_index = {n: i for i, n in enumerate(netlist.nodes)}
    n_nodes = len(netlist.nodes)

    def pot(node):
        return node_index[node] if node != "0" else -1

    next_index = n_nodes
    layout: dict = {"potentials": dict(node_index)}
    extras: dict = {}
    for b in netlist.branches:
        if b.kind in ("L", "V"):
            extras[b.name] = {"current": next_index}
            next_index += 1
        elif b.kind == "FW":
            ref = b.value
            system = None
            if field_systems is not None and ref.path in field_systems:
                system = field_systems[ref.path]
            else:
                system = load_system(ref.path)
            if ref.mode == "SOLID" and isinstance(system, AssembledFoilSystem):
                system = solid_from_foil(system)
            n_dofs = system.n_dofs
            if isinstance(system, SolidSystem):
                extras[b.name] = {
                    "system": system,
                    "a": slice(next_index, next_index + n_dofs),
                    "current": next_index + n_dofs,
                }
                next_index += n_dofs + 1
            else:
                n_p = system.n_basis
                extras[b.name] = {
                    "system": system,
                    "a": slice(next_index, next_index + n_dofs),
                    "u": slice(next_index + n_dofs, next_index + n_dofs + n_p),
                    "current": next_index + n_dofs + n_p,
                }
                next_index += n_dofs + n_p + 1
    n_total = next_index
    layout["extras"] = {
        name: {k: v for k, v in info.items() if k != "system"} for name, info in extras.items()
    }

    e_rows, e_cols, e_vals = [], [], []
    a_rows, a_cols, a_vals = [], [], []
    source_rows = []
    probes = {}

    def add(bucket, row, col, val):
        if row < 0 or col < 0 or val == 0.0:
            return
        rows, cols, vals = bucket
        rows.append(row)
        cols.append(col)
        vals.append(val)

    E_bucket = (e_rows, e_cols, e_vals)
    A_bucket = (a_rows, a_cols, a_vals)

    def add_block(bucket, matrix, row_offset, col_offset, scale=1.0):
        coo = sp.coo_matrix(matrix)
        rows, cols, vals = bucket
        rows.extend((coo.row + row_offset).tolist())
        cols.extend((coo.col + col_offset).tolist())
        vals.extend((scale * coo.data).tolist())

    for b in netlist.branches:
        p, q = pot(b.node_pos), pot(b.node_neg)
        if b.kind == "R":
            conductance = 1.0 / b.value
            add(A_bucket, p, p, conductance)
            add(A_bucket, q, q, conductance)
            add(A_bucket, p, q, -conductance)
            add(A_bucket, q, p, -conductance)
            probes[b.name] = Probe(kind="R", pos_index=p, neg_index=q, value=b.value)
        elif b.kind == "C":
            add(E_bucket, p, p, b.value)
            add(E_bucket, q, q, b.value)
            add(E_bucket, p, q, -b.value)
            add(E_bucket, q, p, -b.value)
            probes[b.name] = Probe(kind="C", pos_index=p, neg_index=q, value=b.value)
        elif b.kind == "L":
            j = extras[b.name]["current"]
            add(A_bucket, p, j, 1.0)
            add(A_bucket, q, j, -1.0)
            add(E_bucket, j, j, b.value)
            add(A_bucket, j, p, -1.0)
            add(A_bucket, j, q, 1.0)
            probes[b.name] = Probe(kind="L", pos_index=p, neg_index=q, current_index=j, value=b.value)
        elif b.kind == "V":
            j = extras[b.name]["current"]
            add(A_bucket, p, j, 1.0)
            add(A_bucket, q, j, -1.0)
            add(A_bucket, j, p, 1.0)
            add(A_bucket, j, q, -1.0)
            source_rows.append((j, b.value, 1.0))
            probes[b.name] = Probe(kind="V", pos_index=p, neg_index=q, current_index=j, value=b.value)
        elif b.kind == "I":
            if p >= 0:
                source_rows.append((p, b.value, 1.0))
            if q >= 0:
                source_rows.append((q, b.value, -1.0))
            probes[b.name] = Probe(kind="I", pos_index=p, neg_index=q, value=b.value)
        else:  # FW
            info = extras[b.name]
            system = info["system"]
            a_sl = info["a"]
            j = info["current"]
            add(A_bucket, p, j, 1.0)
            add(A_bucket, q, j, -1.0)
            if isinstance(system, SolidSystem):
                # field rows: M da/dt + K a - x_sol (phi_p - phi_q) = 0
                add_block(E_bucket, system.M, a_sl.start, a_sl.start)
                add_block(A_bucket, system.K, a_sl.start, a_sl.start)
                x_col = system.x_sol[:, None]
                if p >= 0:
                    add_block(A_bucket, x_col, a_sl.start, p, scale=-1.0)
                if q >= 0:
                    add_block(A_bucket, x_col, a_sl.start, q)
                # terminal row: -x_sol^T da/dt + G_sol (phi_p - phi_q) - i = 0
                add_block(E_bucket, x_col.T, j, a_sl.start, scale=-1.0)
                add(A_bucket, j, p, system.G_sol)
                add(A_bucket, j, q, -system.G_sol)
                add(A_bucket, j, j, -1.0)
            else:
                ref = b.value
                g_mat = system.conductance(ref.mode)
                u_sl = info["u"]
                # a rows: M da/dt + K a - X u = 0
                add_block(E_bucket, system.M, a_sl.start, a_sl.start)
                add_block(A_bucket, system.K, a_sl.start, a_sl.start)
                add_block(A_bucket, system.X, a_sl.start, u_sl.start, scale=-1.0)
                # u rows: -X^T da/dt + G u - c i = 0
                add_block(E_bucket, system.X.T, u_sl.start, a_sl.start, scale=-1.0)
                add_block(A_bucket, g_mat, u_sl.start, u_sl.start)
                for idx, val in enumerate(system.c):
                    add(A_bucket, u_sl.start + idx, j, -val)
                # terminal row: -c^T u + (phi_p - phi_q) = 0
                for idx, val in enumerate(system.c):
                    add(A_bucket, j, u_sl.start + idx, -val)
                add(A_bucket, j, p, 1.0)
                add(A_bucket, j, q, -1.0)
            probes[b.name] = Probe(kind="FW", pos_index=p, neg_index=q, current_index=j)

    e_mat = sp.coo_matrix((e_vals, (e_rows, e_cols)), shape=(n_total, n_total)).tocsr()
    a_mat = sp.coo_matrix((a_vals, (a_rows, a_cols)), shape=(n_total, n_total)).tocsr()
    e_mat.sum_duplicates()
    a_mat.sum_duplicates()
    return DAESystem(
        E=e_mat,
        A=a_mat,
        source_rows=tuple(source_rows),
        n=n_total,
        layout=layout,
        probes=probes,
    )


def lumped_inductor_voltage_driven(L: float, psi0: float, waveform: SourceWaveform, t):
    """Closed-form inductor current under a voltage drive: (psi0 + int v) / L."""
    if L <= 0.0:
        raise ValidationError("inductance must be positive")
    return (psi0 + waveform.integral(t)) / L

