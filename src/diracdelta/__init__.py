"""Bit-exact 4-bit DiracDeltaNet inference plus a cycle-level model of its tiled conv pipeline."""

__version__ = "0.1.0"
