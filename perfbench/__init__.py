"""Benchmark of the scheduler_ray KG engine; run ``python3 perfbench/run.py``."""
