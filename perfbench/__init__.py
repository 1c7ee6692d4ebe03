"""Benchmark for fblsec: seeded workloads, output checks and a per-module
span tracer.  Run it with ``python3 perfbench/run.py --workload <name>``."""
