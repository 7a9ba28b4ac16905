"""Small shared utilities (RNG handling, formatting)."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timing import format_bytes, format_seconds

__all__ = ["as_rng", "spawn_rngs", "format_bytes", "format_seconds"]
