"""Small shared utilities: RNG plumbing, timers, validation, persistence."""

from repro.utils.persist import atomic_write_json
from repro.utils.rng import make_rng
from repro.utils.timing import Stopwatch, Timer
from repro.utils.validation import require

__all__ = [
    "Stopwatch",
    "Timer",
    "atomic_write_json",
    "make_rng",
    "require",
]
