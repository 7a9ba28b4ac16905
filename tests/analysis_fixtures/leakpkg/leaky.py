"""Seeded LEAK001 violations: raw slot-arena views escaping a store."""

import numpy as np


class Arena:
    def __init__(self) -> None:
        self._slots = np.zeros((4, 8))

    def good_copy(self, slot: int) -> np.ndarray:
        return self._slots[slot].copy()

    def good_scalar(self) -> int:
        return self._slots.nbytes

    def bad_subscript(self, slot: int) -> np.ndarray:
        return self._slots[slot]  # expect: LEAK001

    def bad_whole_arena(self) -> np.ndarray:
        return self._slots  # expect: LEAK001

    def _private_ok(self, slot: int) -> np.ndarray:
        # Private helpers form the pin/borrow API; not flagged.
        return self._slots[slot]


class AnnotatedArena:
    """An annotated ``_slots`` assignment declares an arena just the same."""

    def __init__(self) -> None:
        self._slots: list[np.ndarray] = list(np.zeros((4, 8)))

    def bad_subscript(self, slot: int) -> np.ndarray:
        return self._slots[slot]  # expect: LEAK001


class NotAnArena:
    """No ``_slots`` in __init__ — the checker must ignore this class."""

    def __init__(self) -> None:
        self._data = np.zeros(8)

    def whatever(self) -> np.ndarray:
        return self._data
