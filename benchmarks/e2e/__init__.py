"""End-to-end benchmark of the ioSnap data path (see README.md).

Self-contained: drives the product surface only and imports nothing
from ``repro.bench``, ``repro.workloads`` or the rigs.
"""
