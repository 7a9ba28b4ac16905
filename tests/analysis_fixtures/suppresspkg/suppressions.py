"""Suppression semantics: a reasoned ``# lockfree-ok`` suppresses LOCK001,
a reasonless one suppresses nothing and is LOCK002."""

import threading


class Guarded:
    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._flag = False  # guarded-by: _lock

    def suppressed_fast_path(self) -> bool:
        return self._flag  # lockfree-ok: boolean poll, staleness acceptable

    def reasonless_fast_path(self) -> bool:
        # expect-next-line: LOCK001 LOCK002 -- no reason => no suppression
        return self._flag  # lockfree-ok:
