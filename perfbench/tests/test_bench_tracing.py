"""Self-time arithmetic, wrapping and restoring of the benchmark tracer."""

import numpy as np

from perfbench import tracing


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_duration():
    tracer = tracing.Tracer()
    tracer.active = True
    root = tracer.open("root")
    for _ in range(3):
        outer = tracer.open("outer")
        tracer.close(tracer.open("inner"))
        tracer.close(outer)
    tracer.close(root)
    names, _, parent, start, end = tracer.arrays()
    own = tracing.self_times(parent, start, end)
    assert names == ["root", "outer", "inner"]
    assert np.all(own >= 0.0)
    assert np.isclose(own.sum(), end[0] - start[0], rtol=0.0, atol=1e-12)


def test_layer_metrics_per_operation_and_per_call():
    tracer = tracing.Tracer()
    spans = [("bench.op", -1, 0.0, 10.0), ("linalg.Factorization.solve", 0, 1.0, 2.0),
             ("linalg.Factorization.solve", 0, 3.0, 5.0), ("timestepper.integrate", 0, 6.0, 9.0)]
    for name, parent, t0, t1 in spans:
        idx = tracer.open(name)
        tracer.start[idx], tracer.end[idx] = t0, t1
        tracer._stack.pop()
        tracer.parent[idx] = parent
    tracer.counters["timestepper.steps"] = 2
    metrics = tracing.layer_metrics(tracer, n_ops=2)
    assert metrics["linalg.solve_calls"] == 1.0  # two calls over two operations
    assert metrics["linalg.solve_us"] == 1.5e6  # 3 s over two calls
    assert metrics["timestepper.integrate_s"] == 1.5
    assert metrics["timestepper.overhead_us"] == 1.5e6
    assert metrics["mesh.generate_s"] == 0.0
    assert set(metrics) == {m.name for m in tracing.LAYER_METRICS}


def test_install_wraps_every_alias_and_restores():
    import foilfem.experiments as fx
    import foilfem.mesh as mesh

    original = mesh.refine_uniform
    tracer = tracing.Tracer()
    handle = tracing.install(tracer, (tracing.Target("foilfem.mesh", "refine_uniform"),))
    try:
        assert mesh.refine_uniform is not original
        assert fx.refine_uniform is mesh.refine_uniform  # the copy made by ``from .mesh import``
    finally:
        handle.restore()
    assert mesh.refine_uniform is original and fx.refine_uniform is original


def test_deleted_target_is_reported_absent_not_raised():
    tracer = tracing.Tracer()
    targets = (
        tracing.Target("foilfem.mesh", "no_such_function"),
        tracing.Target("foilfem.linalg", "NoSuchClass.solve"),
        tracing.Target("foilfem.no_such_module", "f"),
    )
    handle = tracing.install(tracer, targets)
    handle.restore()
    assert handle.absent == ["mesh.no_such_function", "linalg.NoSuchClass.solve", "no_such_module.f"]
    assert tracing.layer_metrics(tracer, n_ops=0)["linalg.solve_calls"] == 0.0


def test_wrapped_classmethod_and_counters():
    from foilfem.assembly import FieldDiscretization
    from foilfem.experiments import ExperimentConfig, build_mesh

    mesh = build_mesh(ExperimentConfig(), 0)
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    tracer.active = True
    try:
        disc = FieldDiscretization.from_mesh(mesh)
        build_mesh(ExperimentConfig(), 0)
    finally:
        tracer.active = False
        handle.restore()
    assert handle.absent == []
    assert disc.n_dofs == 84
    assert tracer.names[:1] == ["assembly.FieldDiscretization.from_mesh"]
    assert tracer.counters["mesh.nodes"] == mesh.n_nodes
