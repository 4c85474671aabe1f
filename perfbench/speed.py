"""Timing a pass against a reference slice of work run all through it.

On a shared host the speed of the machine drifts by a third or more within
minutes, and the wall time of a pass drifts with it. While a pass runs, a
timer signal every PERIOD_S seconds runs one slice of fixed work (`_slice`:
small numpy steps, routing inputs down a forest of node objects and dict
updates, the kind of code ecobench runs) and times it. The slices live
through the same slow and fast spells as the pass, so the pass time divided
by the mean slice time raised to SENSITIVITY holds steady where the wall time
does not. `PassClock.adjusted_s` scales the pass's seconds to the reference
speed, the speed at which one slice takes REFERENCE_SLICE_S.

The slice does not call the program, so a change to the program moves the
adjusted time in the same proportion as the program's own time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
# Seconds of one slice at the reference speed. Fixed once, so adjusted times
# compare across runs and commits; on the 2-core host where the benchmark was
# written a slice took 1.6 to 3 ms.
REFERENCE_SLICE_S = 0.002
# How much more the program's time moves than the slice's when the machine
# slows: log(pass time) against log(mean slice time) had slopes of 1.29 to
# 1.41 over three recordings of 27 to 46 passes (two of model-roundtrip, one
# of grid-small). With 1.3 the pass-to-pass spread at the reference speed was
# lowest on both workloads.
SENSITIVITY = 1.3

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(30, 6))
_Y = (_X[:, 0] + _X[:, 1] > 0).astype(float)


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "label")

    def __init__(self, feature=None, threshold=None, left=None, right=None, label=None):
        self.feature, self.threshold = feature, threshold
        self.left, self.right, self.label = left, right, label


def _tree(depth: int) -> _Node:
    if depth == 0 or _rng.random() < 0.15:
        return _Node(label=int(_rng.integers(3)))
    return _Node(int(_rng.integers(_X.shape[1])), float(_rng.normal()),
                 _tree(depth - 1), _tree(depth - 1))


_FOREST = [_tree(6) for _ in range(300)]


def _slice():
    """One slice: logistic-regression steps, a threshold scan, a forest vote
    and dict updates."""
    w = np.zeros(_X.shape[1])
    for _ in range(60):
        p = 1.0 / (1.0 + np.exp(-(_X @ w)))
        w -= 0.1 * (_X.T @ (p - _Y)) / len(_Y)
    column, best = _X[:, 2], 0.0
    for threshold in np.unique(column)[:-1]:
        mask = column <= threshold
        best = max(best, abs(_Y[mask].sum() - _Y[~mask].sum()))
    votes = np.zeros(3, dtype=np.int64)
    for x in _X[:2]:
        for node in _FOREST:
            while node.label is None:
                node = node.left if x[node.feature] <= node.threshold else node.right
            votes[node.label] += 1
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return w, best, votes, counts


class PassClock:
    """Times the body of a `with` block and, with `slices`, the reference
    slices run inside it. `wall_s` leaves the slices' own time out."""

    def __init__(self, slices: bool = True):
        self.slices = slices
        self.wall_s = 0.0
        self.slice_s = 0.0
        self.slice_count = 0
        self._previous = None
        self._start = 0.0

    def _run_slice(self, *_):
        start = time.perf_counter()
        _slice()
        self.slice_s += time.perf_counter() - start
        self.slice_count += 1

    def __enter__(self) -> PassClock:
        if self.slices:
            self._previous = signal.signal(signal.SIGALRM, self._run_slice)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.slices:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        # Every slice ran inside the timed interval.
        self.wall_s = time.perf_counter() - self._start - self.slice_s
        return False

    @property
    def adjusted_s(self) -> float:
        """The pass's seconds at the reference speed; the wall time when the
        pass ran no slice."""
        if not self.slice_count:
            return self.wall_s
        mean_slice_s = self.slice_s / self.slice_count
        return self.wall_s * (REFERENCE_SLICE_S / mean_slice_s) ** SENSITIVITY
