"""Shared utilities: deterministic RNG helpers and atomic file writes."""
