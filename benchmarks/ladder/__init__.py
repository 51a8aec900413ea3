"""The serving ladder: the repo's end-to-end benchmark (see README.md).

Entry point: ``python3 benchmarks/ladder/run.py``.  Registered in the
root ``BENCHMARK.json``; ``spec.py`` is the single source of the
workload and metric names both files agree on.
"""
