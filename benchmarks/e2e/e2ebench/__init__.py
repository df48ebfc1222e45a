"""The repo benchmark: five closed-loop workloads measured end to end and per layer.

See ``benchmarks/e2e/README.md``.  The package imports the product only
through its public surface and is importable only when ``src/`` is on
``sys.path`` (``run.py`` and the tests put it there).
"""
