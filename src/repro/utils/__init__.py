"""Shared utilities: registries, per-client seeding, the simulated clock,
logging, lazy package surfaces.

These are deliberately dependency-free so every other subpackage can import
them without cycles.
"""

from repro.utils.registry import Registry
from repro.utils.timer import SimClock

__all__ = ["Registry", "SimClock"]
