"""The forked worker behind every fan-out and train's label helper."""

import errno
import multiprocessing.context

import pytest

from abrbench import workers
from abrbench.workers import Worker


def test_a_failed_fork_keeps_no_pipe_end(monkeypatch):
    before = set(workers._PARENT_ENDS)
    registered = []  # the parent ends registered when the fork was tried

    def failing_start(process):
        registered.extend(workers._PARENT_ENDS - before)
        raise OSError(errno.EAGAIN, "fork failed")

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", failing_start)
    with pytest.raises(OSError, match="fork failed"):
        Worker(lambda: None)
    assert workers._PARENT_ENDS == before
    assert len(registered) == 1 and registered[0].closed
