"""Independent brute-force and loop-form oracles shared between test modules."""

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgemm, dgemv
from scipy.linalg.lapack import dlange

from foilfem.assembly import QUADRATURE_RULES, TWO_PI
from foilfem.circuit import DAESystem, Netlist, Probe, _effective_kinds
from foilfem.dae_analysis import KERNEL_TOL
from foilfem.errors import SingularMatrixError, SingularSystemAtStepError
from foilfem.experiments import (
    COARSE_LEVEL,
    FIG4_DTS,
    FIG5_DT,
    FINE_LEVEL,
    build_mesh,
    build_system,
    emit_study,
    format_fig4_metrics,
    noise_fit_grid,
    noise_metric,
    response,
    run_transient,
    time_grid,
)
from foilfem.linalg import RestrictedSpdSolver, canonical_csr, sparse_factorize
from foilfem.mesh import GeometrySpec, Mesh, RegionTag, validate_mesh
from foilfem.timestepper import (
    BLOWUP_BOUND,
    PROPAGATOR_MAX_ROWS,
    TimeSeries,
    consistent_zero_start,
    propagator,
)
from foilfem.winding import (
    AssembledFoilSystem,
    SolidSystem,
    assemble_G_exact,
    distribution_coefficients,
    load_system,
    profile_for,
    solid_from_foil,
)


def brute_force_li_bonds(net, field_classes=None):
    """Enumerate every subset of inductive/current-source branches and keep
    the minimal cuts (bonds): removal splits the circuit graph into exactly
    two components with every removed branch crossing between them."""
    kinds = _effective_kinds(net, field_classes)
    li = [b for b in net.branches if kinds[b.name] in ("L", "I")]
    all_nodes = ["0", *net.nodes]

    def components(removed):
        adj = {n: set() for n in all_nodes}
        for b in net.branches:
            if b.name in removed:
                continue
            adj[b.node_pos].add(b.node_neg)
            adj[b.node_neg].add(b.node_pos)
        comp = {}
        cid = 0
        for start in all_nodes:
            if start in comp:
                continue
            stack = [start]
            comp[start] = cid
            while stack:
                for nb in adj[stack.pop()]:
                    if nb not in comp:
                        comp[nb] = cid
                        stack.append(nb)
            cid += 1
        return comp, cid

    bonds = set()
    for size in range(1, len(li) + 1):
        for combo in combinations(li, size):
            removed = {b.name for b in combo}
            comp, ncomp = components(removed)
            if ncomp != 2:
                continue
            if all(comp[b.node_pos] != comp[b.node_neg] for b in combo):
                bonds.add(frozenset(removed))
    return bonds


# --- loop forms of the batched assembly and mesher -------------------------------------
#
# These are the per-element and per-cell loops the package used before its assembly and
# mesher were batched, and the per-column solve it used before G_e took one block solve.
# The batched code must reproduce K, M, X, the support, G_e, E and every mesh array bit
# for bit, and G to round-off.

def _loop_accumulate(rows, cols, vals, n_dofs):
    if not rows:
        return sp.csr_matrix((n_dofs, n_dofs))
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dofs, n_dofs),
    )
    return canonical_csr(coo)


def _loop_append(rows, cols, vals, element_matrix, idx):
    keep = idx >= 0
    if not np.any(keep):
        return
    sub = element_matrix[np.ix_(keep, keep)]
    ii = idx[keep]
    rows.append(np.repeat(ii, ii.size))
    cols.append(np.tile(ii, ii.size))
    vals.append(sub.ravel())


def loop_element_geometry(mesh, degree):
    """Areas, P1 hat gradients (d/dr, d/dz) and quadrature points, one element at a time.

    Returns ``(area, grad_r, grad_z, bary, weights, pts)`` with ``pts`` of
    shape ``(m, q, 2)``; each point is ``sum_a bary[q, a] * node_a`` summed
    left to right.
    """
    bary, weights = QUADRATURE_RULES[degree]
    m = mesh.n_triangles
    area, grad_r, grad_z = np.empty(m), np.empty((m, 3)), np.empty((m, 3))
    pts = np.empty((m, bary.shape[0], 2))
    for e, tri in enumerate(mesh.triangles.tolist()):
        corners = mesh.nodes[tri].tolist()
        (r1, z1), (r2, z2), (r3, z3) = corners
        det = (r2 - r1) * (z3 - z1) - (r3 - r1) * (z2 - z1)
        area[e] = 0.5 * det
        grad_r[e] = [(z2 - z3) / det, (z3 - z1) / det, (z1 - z2) / det]
        grad_z[e] = [(r3 - r2) / det, (r1 - r3) / det, (r2 - r1) / det]
        for q, (b0, b1, b2) in enumerate(bary.tolist()):
            for d in range(2):
                pts[e, q, d] = b0 * corners[0][d] + b1 * corners[1][d] + b2 * corners[2][d]
    return area, grad_r, grad_z, bary, weights, pts


def loop_assemble_stiffness(mesh, materials, disc):
    area, grad_r, grad_z, _, weights, pts = loop_element_geometry(mesh, disc.quad_degree)
    inv_r = np.einsum("q,mq->m", weights, 1.0 / pts[:, :, 0])
    rows, cols, vals = [], [], []
    for e in range(mesh.n_triangles):
        nu_r, nu_z = materials.material(mesh.regions[e]).nu
        gr, gz = grad_r[e], grad_z[e]
        ke = (TWO_PI * area[e] * inv_r[e]) * (nu_r * np.outer(gz, gz) + nu_z * np.outer(gr, gr))
        _loop_append(rows, cols, vals, ke, disc.dof_index[mesh.triangles[e]])
    return _loop_accumulate(rows, cols, vals, disc.n_dofs)


def loop_mass_like(mesh, materials, disc, element_filter, profile):
    area, _, _, bary, weights, pts = loop_element_geometry(mesh, disc.quad_degree)
    hat_products = bary[:, :, None] * bary[:, None, :]
    rows, cols, vals = [], [], []
    for e in range(mesh.n_triangles):
        tag = int(mesh.regions[e])
        if not element_filter(tag):
            continue
        sigma_axial = materials.material(tag).sigma[1]
        if sigma_axial == 0.0:
            continue
        r_q = pts[e, :, 0]
        w_eff = weights * sigma_axial / r_q
        if profile is not None:
            w_eff = w_eff * profile(r_q, pts[e, :, 1])
        me = (TWO_PI * area[e]) * np.tensordot(w_eff, hat_products, axes=1)
        _loop_append(rows, cols, vals, me, disc.dof_index[mesh.triangles[e]])
    return _loop_accumulate(rows, cols, vals, disc.n_dofs)


def loop_assemble_mass(mesh, materials, disc):
    return loop_mass_like(mesh, materials, disc, lambda tag: True, None)


def _is_winding(tag):
    return tag == int(RegionTag.FOIL_WINDING)


def loop_assemble_X(mesh, materials, disc, spec, basis, x=None):
    if x is None:
        x = distribution_coefficients(mesh, disc)
    cols = []
    for l in range(basis.n_functions):
        m_l = loop_mass_like(mesh, materials, disc, _is_winding, profile_for(spec, basis, l))
        cols.append(m_l @ x)
    return np.column_stack(cols)


def loop_assemble_G_original(mesh, materials, disc, spec, basis, x=None):
    if x is None:
        x = distribution_coefficients(mesh, disc)
    n = basis.n_functions
    g = np.zeros((n, n))
    for k in range(n):
        for l in range(k, n):
            pk, pl = profile_for(spec, basis, k), profile_for(spec, basis, l)
            m_kl = loop_mass_like(
                mesh, materials, disc, _is_winding, lambda r, z: pk(r, z) * pl(r, z)
            )
            g[k, l] = g[l, k] = float(x @ (m_kl @ x))
    return g


def loop_conductive_support(mesh, materials, disc):
    nodes = set()
    for e in range(mesh.n_triangles):
        if materials.material(mesh.regions[e]).sigma[1] > 0.0:
            nodes.update(int(n) for n in mesh.triangles[e])
    dofs = disc.dof_index[sorted(nodes)]
    return np.asarray(sorted(int(d) for d in dofs if d >= 0), dtype=np.intp)


def loop_assemble_G_consistent(M, X, support):
    """``(G_e, E)`` with one vector solve per column of ``X``, as before the block solve."""
    solver = RestrictedSpdSolver(M, support)
    E = np.column_stack([solver.solve(X[:, l]) for l in range(X.shape[1])])
    ge = X.T @ E
    return 0.5 * (ge + ge.T), E


def scalar_region_of(geom: GeometrySpec, r: float, z: float) -> RegionTag:
    """Region tag of one interior point (not on a breakline), by chained comparisons."""
    w0, w1 = geom.winding_z_bounds
    g0, g1 = geom.gap_z_bounds
    if geom.winding_inner_radius < r < geom.winding_outer_radius and w0 < z < w1:
        return RegionTag.FOIL_WINDING
    if r < geom.limb_radius and g0 < z < g1:
        return RegionTag.AIR_GAP
    if geom.limb_radius < r < geom.window_outer_radius and geom.window_bottom < z < geom.window_top:
        return RegionTag.AIR
    return RegionTag.YOKE


def loop_tensor_mesh(r_ticks, z_ticks, region_of):
    """The tensor-grid mesher, one cell at a time; ``region_of(r, z)`` tags one centroid."""
    r_ticks = np.asarray(r_ticks, dtype=float)
    z_ticks = np.asarray(z_ticks, dtype=float)
    nr, nz = r_ticks.size, z_ticks.size
    rr, zz = np.meshgrid(r_ticks, z_ticks)
    nodes = np.column_stack([rr.ravel(), zz.ravel()])

    def nid(ir, iz):
        return iz * nr + ir

    tris, tags = [], []
    for iz in range(nz - 1):
        for ir in range(nr - 1):
            a, b = nid(ir, iz), nid(ir + 1, iz)
            c, d = nid(ir + 1, iz + 1), nid(ir, iz + 1)
            for tri in ((a, b, c), (a, c, d)):
                tris.append(tri)
                tags.append(int(region_of(nodes[list(tri), 0].mean(), nodes[list(tri), 1].mean())))
    boundary = np.zeros(nodes.shape[0], dtype=bool)
    for iz in range(nz):
        boundary[nid(0, iz)] = boundary[nid(nr - 1, iz)] = True
    for ir in range(nr):
        boundary[nid(ir, 0)] = boundary[nid(ir, nz - 1)] = True
    return Mesh(nodes, np.asarray(tris, dtype=np.int32), np.asarray(tags, dtype=np.int32), boundary)


def loop_edge_counts(mesh):
    counts = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            counts[key] = counts.get(key, 0) + 1
    return counts


def loop_refine_uniform(mesh):
    nodes = [tuple(p) for p in mesh.nodes]
    edge_mid = {}
    counts = loop_edge_counts(mesh)

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        idx = edge_mid.get(key)
        if idx is None:
            pa, pb = mesh.nodes[a], mesh.nodes[b]
            nodes.append((0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1])))
            idx = edge_mid[key] = len(nodes) - 1
        return idx

    tris, tags = [], []
    for t, tag in zip(mesh.triangles, mesh.regions):
        a, b, c = (int(t[0]), int(t[1]), int(t[2]))
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
        tags.extend([tag] * 4)
    boundary = np.zeros(len(nodes), dtype=bool)
    boundary[: mesh.n_nodes] = mesh.boundary
    for key, idx in edge_mid.items():
        if counts[key] == 1:
            boundary[idx] = True
    refined = Mesh(np.asarray(nodes), np.asarray(tris, dtype=np.int32),
                   np.asarray(tags, dtype=np.int32), boundary)
    validate_mesh(refined)
    return refined


# --- loop form of the implicit-Euler stepper ------------------------------------------
#
# The stepper as it was before it recorded only the probed state entries and derived the
# probe traces after the loop and evaluated the sources on the whole grid: a per-step
# source vector summed branch by branch, a per-step, per-probe read of the full state, an
# optional initial state and optional full-state snapshots every ``snapshot_stride``
# steps.  Up to ``PROPAGATOR_MAX_ROWS`` unknowns it steps with the amplification matrix and
# source columns of ``propagator`` and one ``dgemv`` per step, the forcing summed per step into
# a fresh vector; ``integrate``, which chains ``BLOCK_STEPS`` such steps into blocks, must
# reproduce its times and divergence step exactly and its traces to round-off.  The oracle tests
# every whole state; ``integrate`` skips that for a chunk whose inputs certify it bounded.
# ``per_step_solve`` makes it solve ``E/dt + A`` at every step instead, at any size; above
# ``PROPAGATOR_MAX_ROWS`` unknowns ``integrate`` must reproduce that bit for bit.


def _loop_source(dae, t):
    s = np.zeros(dae.E.shape[0])
    for row, waveform, sign in dae.source_rows:
        s[row] += sign * waveform(t)
    return s


def _loop_probe_values(probe, y, y_prev, dt, t):
    phi_p = y[probe.pos_index] if probe.pos_index >= 0 else 0.0
    phi_n = y[probe.neg_index] if probe.neg_index >= 0 else 0.0
    v = phi_p - phi_n
    if probe.kind == "R":
        return v / probe.value, v
    if probe.kind == "C":
        vp_p = y_prev[probe.pos_index] if probe.pos_index >= 0 else 0.0
        vp_n = y_prev[probe.neg_index] if probe.neg_index >= 0 else 0.0
        return probe.value * (v - (vp_p - vp_n)) / dt, v
    if probe.kind == "I":
        return float(probe.value(t)), v
    return y[probe.current_index], v  # L, V, FW carry their current as an unknown


def loop_integrate(
    dae, cfg, probe_names=None, initial_state=None, snapshot_stride=0, per_step_solve=False
):
    """Return the ``TimeSeries`` and the stacked snapshots (None when not taken)."""
    n_steps = cfg.n_steps
    times = cfg.t0 + cfg.dt * np.arange(n_steps + 1)
    if probe_names is None:
        probe_names = list(dae.probes)
    try:
        lhs = sparse_factorize(dae.E.multiply(1.0 / cfg.dt) + dae.A)
    except SingularMatrixError as exc:
        raise SingularSystemAtStepError(f"iteration matrix singular: {exc}") from exc
    e_over_dt = (dae.E.multiply(1.0 / cfg.dt)).tocsr()
    propagated = not per_step_solve and dae.E.shape[0] <= PROPAGATOR_MAX_ROWS
    if propagated:
        rows = list(dict.fromkeys(row for row, _, _ in dae.source_rows))
        amplification, columns = propagator(lhs, e_over_dt, rows)

    if initial_state is not None:
        y = np.asarray(initial_state, dtype=float).copy()
        if y.shape[0] != dae.E.shape[0]:
            raise ValueError("initial state has wrong length")
    else:
        y = consistent_zero_start(dae, cfg.t0)

    currents = {name: np.empty(n_steps + 1) for name in probe_names}
    voltages = {name: np.empty(n_steps + 1) for name in probe_names}
    snapshots = [] if snapshot_stride else None

    def record(k, state, prev_state):
        for name in probe_names:
            i, v = _loop_probe_values(dae.probes[name], state, prev_state, cfg.dt, times[k])
            currents[name][k] = i
            voltages[name][k] = v
        if snapshots is not None and k % snapshot_stride == 0:
            snapshots.append(state.copy())

    record(0, y, y)
    diverged_at = None
    last = n_steps
    for k in range(1, n_steps + 1):
        s = _loop_source(dae, times[k])
        if propagated:
            f = np.zeros(y.shape[0])
            for r, row in enumerate(rows):
                f += s[row] * columns[:, r]
            y_next = dgemv(1.0, amplification, y, 1.0, f, overwrite_y=True)
        else:
            y_next = lhs.solve(e_over_dt @ y + s)
        record(k, y_next, y)
        if not np.all(np.isfinite(y_next)) or float(np.max(np.abs(y_next))) > BLOWUP_BOUND:
            diverged_at = k
            last = k
            break
        y = y_next

    keep = last + 1
    series = TimeSeries(
        times=times[:keep],
        currents={name: arr[:keep] for name, arr in currents.items()},
        voltages={name: arr[:keep] for name, arr in voltages.items()},
        diverged_at=diverged_at,
    )
    return series, (np.asarray(snapshots) if snapshots else None)


# --- the whole block propagator ------------------------------------------------------------
#
# The block propagator as ``integrate`` formed it before it formed only what its steps read:
# every power T^j of a block of ``steps`` steps, and the one-norm of the map from a block's
# input row to its inner states.  ``timestepper.block_propagator`` must reproduce ``final`` and
# the probed columns of ``inner`` to round-off, and its gain must be at least that one-norm.


def whole_block_propagator(amplification, columns, steps):
    """``(inner, final)``: ``u @ inner = [y_1, ..., y_(steps-1)]`` and ``final @ u = y_steps``
    for a block's input row ``u = [y_0, s_1, ..., s_steps]``, each ``s_m`` ordered as the
    columns of ``W = columns``; ``y_j = T^j y_0 + sum_{m <= j} T^(j-m) W s_m``."""
    n, r = columns.shape
    inner = np.zeros((n + steps * r, (steps - 1) * n), order="F")
    last = np.zeros((n + steps * r, n))
    # gains[j - 1] maps u to y_j: (T^j)^T = (T^(j-1))^T T^T, and (T^(j-1) W)^T likewise
    gains = [inner[:, j * n : (j + 1) * n] for j in range(steps - 1)] + [last]
    gains[0][:n] = amplification.T
    gains[0][n : n + r] = columns.T
    for j, (previous, gain) in enumerate(zip(gains, gains[1:]), start=1):
        gain[: n + r] = dgemm(1.0, previous[: n + r], amplification, trans_b=True)
        # s_m acts on y_(j+1) as s_(m-1) acts on y_j
        gain[n + r : n + (j + 1) * r] = previous[n : n + j * r]
    return inner, last.T


def exact_gain(inner):
    """The certificate's gain from the whole map: its one-norm, the largest column abs-sum, at
    least 1 (NaN if ``inner`` holds a NaN)."""
    return np.maximum(dlange("1", inner), 1.0)


# --- loop form of the MNA stamp ----------------------------------------------------------
#
# The stamp as it was before it numbered and stamped each branch in one pass: a first pass
# numbers the unknowns, a second appends each entry to Python lists through a per-entry
# guard.  ``mna_stamp`` must reproduce its E, A, source rows, layout and probes bit for bit.

def loop_stamp(netlist: Netlist, field_systems: Mapping | None = None) -> DAESystem:
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
        layout=layout,
        probes=probes,
    )


# --- frequency response of the stamped circuit ------------------------------------------
#
# The phasor form of ``E dy/dt + A y = s(t)`` at one angular frequency.  It shares no code
# with the Schur reduction or the kernel-basis inductance of ``dae_analysis``, so it checks
# their ``R`` and ``L`` through the circuit that the time stepper integrates.


def terminal_impedance(dae: DAESystem, omega: float) -> complex:
    """``Z = v / i`` of the field element ``FW1`` from one complex solve of ``(j omega E + A) y = b``.

    ``b`` holds each source row's sign at unit amplitude.
    """
    b = np.zeros(dae.E.shape[0], dtype=complex)
    for row, _, sign in dae.source_rows:
        b[row] += sign
    y = spla.spsolve(sp.csc_matrix(1j * omega * dae.E + dae.A), b)
    p = dae.probes["FW1"]
    v = (y[p.pos_index] if p.pos_index >= 0 else 0.0) - (y[p.neg_index] if p.neg_index >= 0 else 0.0)
    return complex(v / y[p.current_index])


# --- dense kernel projectors and the terminal inductance through them --------------------
#
# The kernel of a symmetric matrix found numerically from its eigenvalues, not read off the
# conductive support and ``E`` as ``dae_analysis.kernel_basis`` does for the Schur mass.
# Dense and guarded, so coarse meshes only; acceptance criterion 8 and the inductance tests
# check the sparse basis and ``L`` against these.

DENSE_SIZE_GUARD = 500  # largest DoF count of the dense projector oracles


def nullspace_basis(a, tol: float) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of a symmetric matrix.

    Eigenvectors with ``|lambda| <= tol * max|lambda|`` span the returned
    columns; a full-rank matrix yields an ``(n, 0)`` array.  The all-zero
    matrix returns the identity basis.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    scale = float(np.max(np.abs(a)))
    if scale > 0.0 and float(np.max(np.abs(a - a.T))) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    if scale == 0.0:
        return np.eye(n)
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    lam_max = float(np.max(np.abs(w)))
    keep = np.abs(w) <= tol * lam_max
    return np.ascontiguousarray(v[:, keep])


@dataclass(frozen=True)
class ProjectorPair:
    """Orthogonal projector onto a kernel and its complement."""

    Q: np.ndarray
    P: np.ndarray


def build_projectors(a) -> ProjectorPair:
    """Projector onto the numerical kernel of a symmetric matrix (dense, at most
    ``DENSE_SIZE_GUARD`` rows)."""
    if sp.issparse(a):
        a = a.toarray()
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n > DENSE_SIZE_GUARD:
        raise ValueError(f"dense projector oracle limited to {DENSE_SIZE_GUARD} DoFs, got {n}")
    basis = nullspace_basis(a, KERNEL_TOL)
    q = basis @ basis.T
    return ProjectorPair(Q=q, P=np.eye(n) - q)


def projector_inductance(sf, K) -> float:
    """``L = (Q x_bar)^T (Q K Q + P P)^-1 (Q x_bar)`` with the dense projector ``Q`` onto the
    numerical kernel of ``sf.M_bar`` and ``P = I - Q``."""
    pair = build_projectors(sf.M_bar)
    qx = pair.Q @ sf.x_bar
    return float(qx @ np.linalg.solve(pair.Q @ K.toarray() @ pair.Q + pair.P @ pair.P, qx))


# --- serial fig4 -----------------------------------------------------------------------------
#
# fig4 as it ran before its transients went to worker processes: one in-process run after the
# other.  ``run_fig4`` must return the same series in the same key order and write the same bytes.

def loop_fig4(cfg, out_dir) -> dict:
    """``run_fig4`` with its four transients run in this process, one after the other."""
    for dt in FIG4_DTS:
        noise_fit_grid(cfg, dt)
    system = build_system(cfg, build_mesh(cfg, FINE_LEVEL))[0]
    series, metrics = {}, {}
    for drive in ("i", "v"):
        for dt in FIG4_DTS:
            key = f"{drive}fed_dt{dt:.0e}"
            s = series[key] = run_transient(cfg, system, drive, "Ge", dt)
            metrics[key] = noise_metric(s.times, response(s, drive)[0], cfg.frequency)
    metrics["vnoise_ratio_small_over_large_dt"] = (
        metrics["ifed_dt1e-05"].noise_rms / metrics["ifed_dt1e-04"].noise_rms
    )
    results = {"series": series, "metrics": metrics}
    results["report"] = format_fig4_metrics(results)
    plots = {
        name: (drive, [(f"dt={dt:.0e} s", series[f"{drive}fed_dt{dt:.0e}"]) for dt in FIG4_DTS[::-1]])
        for name, drive in (("current_driven", "i"), ("voltage_driven", "v"))
    }
    emit_study(out_dir, "fig4", series, plots, results["report"])
    return results


def loop_fig5(cfg, out_dir) -> dict:
    """``run_fig5`` with its four transients run in this process, mesh by mesh."""
    time_grid(cfg, FIG5_DT)
    results = {"series": {}, "discrepancy": {}, "diverged": {}}
    for mesh_name, level in (("coarse", COARSE_LEVEL), ("fine", FINE_LEVEL)):
        system, spec, basis = build_system(cfg, build_mesh(cfg, level))
        system = replace(system, G=assemble_G_exact(spec, basis))
        pair = {mode: run_transient(cfg, system, "i", mode, FIG5_DT) for mode in ("G", "Ge")}
        for mode, series in pair.items():
            results["series"][f"{mesh_name}_{mode}"] = series
            results["diverged"][f"{mesh_name}_{mode}"] = series.diverged_at
        if any(s.diverged_at is not None for s in pair.values()):
            results["discrepancy"][mesh_name] = math.inf
            continue
        v_g, v_ge = (response(pair[mode], "i")[0] for mode in ("G", "Ge"))
        ref = float(np.sqrt(np.mean(v_ge**2)))
        results["discrepancy"][mesh_name] = float(np.sqrt(np.mean((v_g - v_ge) ** 2))) / ref
    lines = [f"{name}: rel RMS discrepancy = {v:.6e}" for name, v in results["discrepancy"].items()]
    lines += [f"diverged[{key}] = {step}" for key, step in results["diverged"].items()]
    results["report"] = "\n".join(lines) + "\n"
    plots = {
        mesh_name: ("i", [(label, results["series"][f"{mesh_name}_{mode}"])
                          for label, mode in (("original G", "G"), ("consistent Ge", "Ge"))])
        for mesh_name in ("coarse", "fine")
    }
    emit_study(out_dir, "fig5", results["series"], plots, results["report"])
    return results
