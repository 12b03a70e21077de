"""The forked child process behind RunningMoments.folded_in_child.

aggregate imports this module only when a fold moves to a child, so
the package's import and runs at parallelism 1 never compile it.
"""
from __future__ import annotations

import fcntl
import mmap
import os
from contextlib import suppress

import numpy as np

# the pipe's capacity, so the caller can run several sweep rounds ahead
# of the child; with the kernel's default 64 KiB the pinned sweep solved
# about 1.5 times slower
PIPE_BYTES = 1 << 20


class ForkedFold:
    """The caller's end of a RunningMoments fold run in a forked child.

    send() writes each observation to one pipe as a row, its weight then
    its values, (1 + dim) + lead floats in C order. The child reads the
    rows into a buffer of one batch (aggregate.SLOTS rows) allocated
    before the fork, and folds each read's complete rows in order, with
    the accumulator's own _fold, into total and comp, which sit in a
    small shared anonymous mmap. Closing the
    pipe ends the input: the child folds what is left and exits with
    status 0, or with 1 if the input ends inside a row. The child runs
    only pipe reads, numpy ufuncs and copies on arrays allocated before
    the fork, and always leaves by os._exit, so it flushes no inherited
    stdio.
    """

    def __init__(self, acc):
        lead = acc.total.shape[1:]
        self.sums = np.frombuffer(mmap.mmap(-1, 16 * acc.total.size)).reshape(
            (2,) + acc.total.shape)
        self.sums[0], self.sums[1] = acc.total, acc.comp
        self.row_shape = (1 + acc.dim,) + lead
        # the rows of one batch, as many as the accumulator folds at once
        rows = np.empty((len(acc._terms),) + self.row_shape)
        rfd, self.fd = os.pipe()
        try:
            # without F_SETPIPE_SZ, or above the system's limit, the
            # default pipe folds the same bits, more slowly
            with suppress(AttributeError, OSError):
                fcntl.fcntl(self.fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            self.pid = os.fork()
        except BaseException:
            os.close(rfd)
            os.close(self.fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                # the child closes the write end, so it sees the end of
                # its input once the caller closes its own or dies
                os.close(self.fd)
                acc.total, acc.comp = self.sums
                self._serve(acc, rfd, rows)
                status = 0
            finally:
                # whatever was raised, even KeyboardInterrupt: no handler
                # or cleanup of the caller's runs here
                os._exit(status)
        os.close(rfd)

    @staticmethod
    def _serve(acc, rfd, rows):
        """The child: fold each complete row as it arrives, until EOF."""
        buf, size = memoryview(rows.reshape(-1).view(np.uint8)), rows[0].nbytes
        have = 0
        while n := os.readv(rfd, [buf[have:]]):
            have += n
            k, rest = divmod(have, size)
            acc._fold(rows[:k, 0], rows[:k, 1:])
            buf[:rest] = buf[k * size:have]
            have = rest
        if have:
            raise EOFError("the fold's input ends inside a row")

    def send(self, w, x):
        """Write one add's observations to the child, in order."""
        w = w[:, None]
        rows = np.empty(np.broadcast_shapes(w.shape, x.shape)[:1]
                        + self.row_shape)
        rows[:, :1], rows[:, 1:] = w, x
        data = memoryview(rows.reshape(-1).view(np.uint8))
        try:
            # a signal can cut a write short
            while data:
                data = data[os.write(self.fd, data):]
        except BrokenPipeError as err:
            raise RuntimeError(
                "the moment fold's child process exited early") from err

    def reap(self):
        """End the input, wait for the child and return its exit code."""
        os.close(self.fd)
        _, status = os.waitpid(self.pid, 0)
        return os.waitstatus_to_exitcode(status)
