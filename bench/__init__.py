"""The repo benchmark: six workloads, end-to-end metrics, traced layers.

See ``bench/README.md``.  Entry points: ``python -m bench.run`` (or
``python3 bench/run.py``) and ``python -m bench.compare``.
"""
