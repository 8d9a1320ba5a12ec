"""Blocking / candidate-generation substrate (§4.1)."""

from .token_blocking import token_blocking_pairs

__all__ = ["token_blocking_pairs"]
