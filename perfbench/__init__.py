"""Repo benchmark: end-to-end and per-layer metrics over four workloads.

Run ``python3 perfbench/run.py --help``; ``perfbench/NOTES.md`` records
why each workload exists and which end-to-end metric each layer metric
should move.
"""
