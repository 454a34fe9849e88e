"""Small helpers for int-valued bitsets."""

from __future__ import annotations

from typing import Iterator


def iter_bits(x: int) -> Iterator[int]:
    """Yield set bit positions of x in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def least_bit(x: int) -> int:
    """Position of the lowest set bit; x must be nonzero."""
    return (x & -x).bit_length() - 1
