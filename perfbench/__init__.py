"""Seeded end-to-end and per-layer benchmark of miru_ray (see run.py)."""
