"""Seeded end-to-end benchmark of the dependence analyzer.

``python3 perfbench/run.py --workload corpus|symbolic|serve --seed N
--seconds S --trace 0|1`` runs one workload; see ``perfbench/README.md``.
"""
