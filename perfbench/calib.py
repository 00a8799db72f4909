"""Reference kernel that tracks the host's current speed.

The benchmark runs on a shared virtual machine whose speed swings by up to
about 1.8x, for stretches from a fraction of a second to minutes.  Every
timed operation is therefore divided by the time of this fixed kernel,
the mean of its measurements right before and right after the operation's
group in the same process, and multiplied by ``REF_S``, so times read as on
a host where the kernel takes ``REF_S`` seconds.  The kernel does what the
package does most: build and sort small integer tuples, update dicts and
do integer arithmetic.  It is part of the benchmark, not of the program,
so a change to the program moves the scaled times exactly as it moves the
raw ones.

The module imports nothing beyond builtins, so a child process can time
``import scrollcoh`` after it without having imported any of its
dependencies first.
"""

from time import perf_counter

REF_S = 150e-6  # nominal time of one kernel run
REF_RUNS = 3    # kernel runs per measurement; the fastest counts

_DATA = []
_state = 12345
for _ in range(300):
    _row = []
    for _ in range(3):
        _state = (_state * 1103515245 + 12345) % 2 ** 31
        _row.append(_state % 50)
    _DATA.append(tuple(_row))


def _kernel():
    acc = {}
    for row in sorted(_DATA):
        key = (row[0] + row[1]) % 17
        acc[key] = acc.get(key, 0) + row[2] * row[0]
    total = 0
    for i in range(600):
        total += i * i % 7
    return len(acc) + total


def ref_seconds():
    """Fastest of ``REF_RUNS`` kernel runs, in seconds."""
    best = float("inf")
    for _ in range(REF_RUNS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def scale():
    """Factor that turns a time measured now into one at the nominal speed."""
    return REF_S / ref_seconds()
