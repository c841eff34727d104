"""Shared utilities: deterministic RNG helpers, timing, and bit packing."""
