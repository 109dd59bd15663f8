"""Benchmark of the polystar pipeline; run it with `python3 perfbench/run.py`."""
