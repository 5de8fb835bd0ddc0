"""The benchmark of record for the GraphCache reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload and prints its metrics; ``python3 perfbench/suite.py``
repeats runs over seeds and prints medians and quartiles.  The benchmark only
drives the library's public API from outside (``src/`` is never modified by
it); the traced run wraps the public entry points of each layer in spans that
the benchmark itself records.
"""
