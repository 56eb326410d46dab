"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Three workloads (``serve``, ``fleet``, ``explore``) each print every
end-to-end metric named in ``BENCHMARK.json``; ``--trace 1`` adds a
separately traced run whose spans give the per-layer breakdown.  See
``perfbench/README.md``.
"""
