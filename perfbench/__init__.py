"""Benchmark harness for thetagw: workloads, output checks and layer tracing.

Run it as ``python3 perfbench/run.py --workload <name|all>``; see README.md.
"""
