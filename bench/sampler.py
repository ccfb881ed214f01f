"""Calibration samples taken while the benchmark times its work.

A ``Sampler`` runs the kernel of calib.py about once per
``CALIBRATE_EVERY_S`` of timed work and records where in that work each
sample was taken; run.py turns the samples into speed factors.  Run as a
script, this module starts one torelli-graphs CLI command with a sampler
inside it (the cli-warm workload's untraced launcher):

    python3 sampler.py SAMPLES_OUT -- CLI_ARGS...

The command's samples, their positions and the seconds they took go to
SAMPLES_OUT, and the worker folds them into the command's item with
``Sampler.absorb``.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import calib

CALIBRATE_EVERY_S = 0.05


class Sampler:
    """Calibration samples spread over the timed work of a pass.

    With ``timer`` set, SIGPROF fires after every ``CALIBRATE_EVERY_S`` of
    this process's CPU time and its handler takes a sample inside the
    running item, so a long item gets samples from its whole length.  A
    child process can take its own samples, which ``absorb`` adds to the
    running item; other work the timer cannot see, an item waiting for a
    child, is made up by samples right after the item: either way there is
    about one sample per ``CALIBRATE_EVERY_S`` of timed work.  Each sample
    records where in the pass's timed work it was taken, and no item's time
    includes a sample.
    """

    def __init__(self, timer: bool):
        self.timer = timer
        self.samples: list = []
        self.at: list = []  # timed work before each sample, in seconds
        self.spent = 0.0  # seconds inside samples
        self.worked = 0.0  # timed work of the finished items
        self.owed = CALIBRATE_EVERY_S / 2
        self.item_start = None  # perf_counter at which the running item began
        self.item_spent = 0.0  # seconds inside samples since then
        self.first = 0  # index of the running item's first sample
        self.busy = False

    def _take(self, position: float) -> float:
        self.busy = True
        t = time.perf_counter()
        self.samples.append(calib.sample())
        self.at.append(position)
        took = time.perf_counter() - t
        self.spent += took
        self.busy = False
        return took

    def _on_timer(self, signum, frame) -> None:
        if self.busy or self.item_start is None:
            return
        position = self.worked + time.perf_counter() - self.item_start - self.item_spent
        self.item_spent += self._take(position)

    def start(self) -> None:
        if self.timer:
            signal.signal(signal.SIGPROF, self._on_timer)
            signal.siginterrupt(signal.SIGPROF, False)
            signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self, min_samples: int = 1) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_IGN)
        while len(self.samples) < min_samples:
            self._take(self.worked)

    def begin(self) -> None:
        self.first = len(self.samples)
        self.item_spent = 0.0
        self.item_start = time.perf_counter()

    def absorb(self, path) -> None:
        """Add the samples that a child process started by the running item
        wrote to ``path`` (see the module doc); neither they nor reading
        them count as the item's time."""
        t = time.perf_counter()
        self.busy = True  # no timer sample while the lists are rebuilt
        with open(path) as fh:
            child = json.load(fh)
        pairs = sorted(list(zip(self.at[self.first:], self.samples[self.first:]))
                       + [(self.worked + at, x) for at, x in zip(child["at"], child["samples"])])
        self.at[self.first:] = [at for at, _ in pairs]
        self.samples[self.first:] = [x for _, x in pairs]
        self.busy = False
        took = child["spent"] + time.perf_counter() - t
        self.item_spent += took
        self.spent += took

    def end(self) -> float:
        """Seconds the item took, its samples left out."""
        took = time.perf_counter() - self.item_start - self.item_spent
        self.item_start = None
        self.worked += took
        inside = len(self.samples) - self.first
        self.owed = max(0.0, self.owed + took - inside * CALIBRATE_EVERY_S)
        while self.owed >= CALIBRATE_EVERY_S:
            self._take(self.worked)
            self.owed -= CALIBRATE_EVERY_S
        return took


if __name__ == "__main__":
    samples_out = sys.argv[1]
    if sys.argv[2] != "--":
        sys.exit("usage: sampler.py SAMPLES_OUT -- CLI_ARGS...")
    sampler = Sampler(timer=True)
    sampler.start()
    sampler.begin()
    try:
        from torelli_graphs.cli import main

        code = main(sys.argv[3:])
    finally:
        sampler.end()
        sampler.stop()
        with open(samples_out, "w") as fh:
            json.dump({"samples": sampler.samples, "at": sampler.at,
                       "spent": sampler.spent}, fh)
    sys.exit(code)
