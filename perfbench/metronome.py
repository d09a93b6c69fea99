"""A fixed reference kernel run beside the program, to measure the core's speed.

    python3 perfbench/metronome.py   # prints "ready", ticks until stdin closes,
                                     # then prints its ticks as JSON

On a shared host one core's speed changes by up to a factor of two over
seconds to minutes, as other tenants load the hardware it shares; the
slowdown shows as slower instructions, so CPU time moves with it. Timing
the program alone then measures the neighbours. The benchmark therefore
pins itself, every child and this metronome to one CPU. The metronome runs
a fixed numpy kernel (one "tick") over and over at a lower priority, so
the scheduler interleaves it with the program every few milliseconds and
both see the same slowdowns. The program's CPU time over an interval,
divided by the mean CPU time of the ticks in that interval, is the
program's work in ticks, which the slowdowns scale out of. ``to_ref_s``
turns it back into seconds on a core where one tick takes ``TICK_REF_S``.

The kernel imitates a dstl sweep with numpy only and none of dstl's code,
so a change to dstl moves the program's side of the ratio only. On a
2-core host, the program's CPU per operation ranged 1.64x (n=32000 fit)
and 1.75x (n=8000) over a minute, and its ratio to the tick 1.04x and
1.09x.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

TICK_REF_S = 0.02     # reference seconds: CPU time of one tick on the reference core
NICE = 5              # the tick gets about a quarter of the CPU beside the program
MIN_TICKS = 3         # fewest ticks a speed is read from


def _kernel():
    import numpy as np

    n, k, m, d = 4096, 5, 3, 30
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((k, m, n))
    x = rng.standard_normal((d, 4 * n))
    y = rng.random((k, 4 * n))

    def tick() -> None:
        # tubal shrinkage at k x m x n, then a W step and a residual over 16k columns
        f = np.moveaxis(np.fft.rfft(tensor, axis=2), 2, 0)
        u, s, vh = np.linalg.svd(f, full_matrices=False)
        g = np.moveaxis((u * np.maximum(s - 0.1, 0.0)[:, None, :]) @ vh, 0, 2)
        np.fft.irfft(g, n=n, axis=2)
        w = x @ y.T
        np.square(w.T @ x - y).sum()

    return tick


def main() -> int:
    os.nice(NICE)
    tick = _kernel()
    tick()  # first-call set-up is not a tick
    print("ready", flush=True)
    ticks = []
    while not select.select([sys.stdin], [], [], 0)[0]:
        t0, c0 = time.perf_counter(), time.process_time()
        tick()
        ticks.append((t0, time.perf_counter(), time.process_time() - c0))
    json.dump(ticks, sys.stdout)
    return 0


class Metronome:
    """The metronome process; start it, run the program, stop it, then read speeds."""

    def __init__(self, env: dict, cwd) -> None:
        self.env, self.cwd = env, cwd
        self.proc: subprocess.Popen | None = None
        self.ticks: list[tuple[float, float, float]] = []

    def __enter__(self) -> "Metronome":
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=self.env, cwd=self.cwd)
        if self.proc.stdout.readline() != b"ready\n":
            self.kill()
            raise RuntimeError(f"metronome failed to start, exit code {self.proc.returncode}")
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is not None:
            self.kill()
            return
        try:
            out, _ = self.proc.communicate(input=b"", timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"metronome exit code {self.proc.returncode}")
        self.ticks = [tuple(t) for t in json.loads(out)]

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def tick_s(self, t0: float, t1: float) -> float:
        """Mean CPU seconds per tick over the ticks that overlap [t0, t1], or
        over the MIN_TICKS ticks nearest its middle when fewer overlap it."""
        inside = [cpu for start, end, cpu in self.ticks if end > t0 and start < t1]
        if len(inside) < MIN_TICKS:
            if len(self.ticks) < MIN_TICKS:
                raise RuntimeError(f"the metronome ticked {len(self.ticks)} times")
            mid = (t0 + t1) / 2
            nearest = sorted(self.ticks, key=lambda t: abs((t[0] + t[1]) / 2 - mid))
            inside = [cpu for _, _, cpu in nearest[:MIN_TICKS]]
        return sum(inside) / len(inside)

    def to_ref_s(self, cpu_s: float, t0: float, t1: float) -> float:
        """CPU seconds spent in [t0, t1] as seconds on the reference core."""
        return cpu_s * TICK_REF_S / self.tick_s(t0, t1)


if __name__ == "__main__":
    sys.exit(main())
