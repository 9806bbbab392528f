"""Independent brute-force and loop-form oracles shared between test modules."""

from itertools import combinations

import numpy as np
import scipy.sparse as sp

from foilfem.assembly import TWO_PI, _element_geometry, _quad_points
from foilfem.circuit import _effective_kinds
from foilfem.errors import SingularMatrixError, SingularSystemAtStepError
from foilfem.linalg import canonical_csr, sparse_factorize
from foilfem.mesh import Mesh, RegionTag, validate_mesh
from foilfem.timestepper import BLOWUP_BOUND, TimeSeries, consistent_zero_start
from foilfem.winding import distribution_coefficients, profile_for


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
# mesher were batched.  The batched code must reproduce K, M, X, the support and every
# mesh array bit for bit, and G to round-off.

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


def loop_assemble_stiffness(mesh, materials, disc):
    area, grad_r, grad_z = _element_geometry(mesh)
    _, weights, pts = _quad_points(mesh, disc.quad_degree)
    inv_r = np.einsum("q,mq->m", weights, 1.0 / pts[:, :, 0])
    rows, cols, vals = [], [], []
    for e in range(mesh.n_triangles):
        nu_r, nu_z = materials.material(mesh.regions[e]).nu
        gr, gz = grad_r[e], grad_z[e]
        ke = (TWO_PI * area[e] * inv_r[e]) * (nu_r * np.outer(gz, gz) + nu_z * np.outer(gr, gr))
        _loop_append(rows, cols, vals, ke, disc.dof_index[mesh.triangles[e]])
    return _loop_accumulate(rows, cols, vals, disc.n_dofs)


def loop_mass_like(mesh, materials, disc, element_filter, profile):
    area, _, _ = _element_geometry(mesh)
    bary, weights, pts = _quad_points(mesh, disc.quad_degree)
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


def loop_tensor_mesh(r_ticks, z_ticks, region_of):
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
# probe traces after the loop: a per-step, per-probe read of the full state, with an
# optional initial state and optional full-state snapshots every ``snapshot_stride``
# steps.  ``integrate`` must reproduce its times, traces and divergence step bit for bit.


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


def loop_integrate(dae, cfg, probe_names=None, initial_state=None, snapshot_stride=0):
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

    if initial_state is not None:
        y = np.asarray(initial_state, dtype=float).copy()
        if y.shape[0] != dae.n:
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
        rhs = e_over_dt @ y + dae.source(times[k])
        y_next = lhs.solve(rhs)
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
