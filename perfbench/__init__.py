"""Layered benchmark of foilfem: seeded inputs, workloads, output checks and a span tracer.

Run it from the repository root with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``; ``BENCHMARK.json`` lists the workloads
and metrics.  Nothing here modifies the package under ``src/``: the tracer wraps
foilfem's public functions from outside for the length of one traced operation.
"""
