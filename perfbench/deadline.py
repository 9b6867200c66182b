"""Per-operation deadline enforced with an in-process interval timer.

SIGALRM from ``signal.setitimer`` interrupts the running operation between
two bytecodes of the main thread, so no extra thread or process is started.
The exception derives from BaseException so that no ``except Exception``
in the program under test can swallow it.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager


class DeadlineExceeded(BaseException):
    """The operation ran past its deadline and was interrupted."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded inside the block once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
