"""The forked child process behind RunningMoments.folded_in_child.

aggregate imports this module only when a fold moves to a child, so
the package's import and runs at parallelism 1 never compile it.
"""
from __future__ import annotations

import math
import mmap
import os

import numpy as np

# the observations one slot holds (its token byte carries the count, so
# at most 255) and the slots in the ring; on the pinned 200 x 20000
# sweep 8 x 4 keeps the ring at 0.3 MB and solves as fast as 32 x 4
# (1.2 MB) and 16 x 4
ROWS = 8
SLOTS = 4


class ForkedFold:
    """The caller's end of a RunningMoments fold run in a forked child.

    One shared anonymous mmap holds the accumulator's total and comp,
    where the child folds in place, and a ring of SLOTS slots, each
    with room for ROWS weights (ROWS,) + lead and values (ROWS, dim) +
    lead. send() fills the next slot and writes its observation count,
    one byte, to the child as its token; the child folds the slots in
    token order and acks each on a second pipe. Closing the token pipe
    ends the input: the child folds what is queued and exits with
    status 0. The child runs only numpy ufuncs and copies on arrays
    allocated before the fork, and always leaves by os._exit, so it
    flushes no inherited stdio.
    """

    def __init__(self, acc):
        lead = acc.total.shape[1:]
        self.rows, self.slots = rows, slots = ROWS, SLOTS
        n_sums, n_w = acc.total.size, rows * math.prod(lead)
        floats = np.frombuffer(mmap.mmap(
            -1, 8 * (2 * n_sums + slots * n_w * (1 + acc.dim))))
        self.sums = floats[:2 * n_sums].reshape((2,) + acc.total.shape)
        slot_data = floats[2 * n_sums:].reshape(slots, -1)
        self.ws = slot_data[:, :n_w].reshape((slots, rows) + lead)
        self.xs = slot_data[:, n_w:].reshape((slots, rows, acc.dim) + lead)
        self.sums[0], self.sums[1] = acc.total, acc.comp
        self.sent = self.acked = 0
        terms = np.empty((rows, 1 + 2 * acc.dim) + lead)
        tokens, self._tokens = os.pipe()
        self._acks, acks = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (tokens, self._tokens, self._acks, acks):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                # each side closes the ends it does not use, so the child
                # sees the end of its input if the caller dies
                os.close(self._tokens)
                os.close(self._acks)
                acc.total, acc.comp = self.sums
                self._serve(acc, tokens, acks, terms)
                status = 0
            finally:
                # whatever was raised, even KeyboardInterrupt: no handler
                # or cleanup of the caller's runs here
                os._exit(status)
        os.close(tokens)
        os.close(acks)

    def _serve(self, acc, tokens, acks, terms):
        """The child: fold each slot as its token arrives, until EOF."""
        slot = 0
        while True:
            got = os.read(tokens, self.slots)
            if not got:
                return
            for k in got:
                acc._fold(self.ws[slot, :k], self.xs[slot, :k], terms[:k])
                os.write(acks, b"\0")
                slot = (slot + 1) % self.slots

    def send(self, w, x):
        """Queue one add's observations, rows at a time, in order."""
        w, x = np.broadcast_arrays(w[:, None], x)
        w = w[:, 0]
        for lo in range(0, w.shape[0], self.rows):
            if self.sent - self.acked == self.slots:
                got = os.read(self._acks, 4096)
                if not got:
                    raise RuntimeError(
                        "the moment fold's child process exited early")
                self.acked += len(got)
            slot = self.sent % self.slots
            k = min(self.rows, w.shape[0] - lo)
            np.copyto(self.ws[slot, :k], w[lo:lo + k])
            np.copyto(self.xs[slot, :k], x[lo:lo + k])
            try:
                os.write(self._tokens, bytes((k,)))
            except BrokenPipeError as err:
                raise RuntimeError(
                    "the moment fold's child process exited early") from err
            self.sent += 1

    def reap(self):
        """End the input, wait for the child and return its exit code."""
        os.close(self._tokens)
        try:
            # the child may be blocked on a full ack pipe
            while os.read(self._acks, 4096):
                pass
        finally:
            os.close(self._acks)
            _, status = os.waitpid(self.pid, 0)
        return os.waitstatus_to_exitcode(status)
