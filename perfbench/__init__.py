"""
End-to-end and per-layer benchmark of the ``hsmf`` command-line pipeline.

Run it from the repository root::

    python3 -m perfbench.run --workload envelope-block --seed 1 --seconds 12 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
correctness references.
"""
