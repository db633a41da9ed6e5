"""Forked worker processes: the one way abrbench runs work beside its main process."""

import os
import signal
from contextlib import contextmanager

# parent ends of live workers' pipes; a worker closes its copies, so it sees its own close
_PARENT_ENDS: set = set()
# (set, get) thread-count entry points of the BLAS builds numpy ships or links, tried in turn
_BLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)


def _loaded_blas():
    """The (set, get) thread-count functions of a BLAS this process has loaded, or None.

    It looks through the shared objects mapped into the process (``/proc/self/maps``,
    so Linux only), as threadpoolctl does; ``ctypes.CDLL`` of a loaded library returns
    the loaded copy."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:  # address, perms, offset, device, inode, path
            paths = {fields[5].rstrip("\n") for fields in (line.split(None, 5) for line in maps)
                     if len(fields) == 6}
    except OSError:
        return None
    for path in sorted(p for p in paths if any(k in os.path.basename(p) for k in ("blas", "mkl"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_THREADS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextmanager
def one_blas_thread():
    """Run the block with the loaded BLAS at one thread, and restore its count after.

    The matrices here are small enough that one thread loses nothing, and it leaves the
    other CPUs to the workers: beside OpenBLAS's default of a thread per CPU, ``train``'s
    label helper made training 2.5 times slower (2-vCPU VM). ``cli.main`` runs every
    command in this block, and ``learner.train`` runs in it too, whatever imported numpy
    first; a process forked in the block inherits the count. With no known BLAS entry
    point the block runs as it is."""
    blas = _loaded_blas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


class Worker:
    """A forked process that answers ``fn(*request)`` to each request, in order.

    ``send(*request)`` hands it a request; ``recv()`` returns the oldest unanswered
    request's result, or the exception ``fn`` raised, and raises ``RuntimeError`` if
    the worker died. It inherits ``fn`` and its inputs through fork, ignores Ctrl-C
    (which ends the parent) and exits after its current request once the parent is
    gone. ``close()`` ends it, and so does leaving the ``with`` block, however
    the block is left; ending it twice is harmless.
    """

    def __init__(self, fn):
        import multiprocessing  # here, not at the top: a command that forks nothing skips it

        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        _PARENT_ENDS.add(self._conn)
        self._process = context.Process(target=_serve, args=(fn, child_end))
        # SIGINT is blocked over the fork, so a Ctrl-C before the worker ignores it hits the parent
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self._process.start()
        except BaseException:  # no worker: a failed fork (EAGAIN, ENOMEM) keeps no pipe end
            _PARENT_ENDS.discard(self._conn)
            self._conn.close()
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_end.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        self._process.terminate()  # a no-op once the process has been joined
        self._process.join()
        _PARENT_ENDS.discard(self._conn)
        self._conn.close()

    def fileno(self) -> int:  # the pipe's, so multiprocessing.connection.wait can wait on it
        return self._conn.fileno()

    def send(self, *request) -> None:
        try:
            self._conn.send(request)
        except OSError:
            raise RuntimeError("a worker process died") from None

    def recv(self):
        try:
            return _polled_recv(self._conn)
        except (EOFError, OSError):
            raise RuntimeError("a worker process died") from None


def _serve(fn, conn) -> None:
    """The worker process: answer requests until the parent's end of the pipe closes."""
    for end in _PARENT_ENDS:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C ends the parent, which ends this
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    try:
        while True:
            request = _polled_recv(conn)
            try:
                reply = fn(*request)
            except Exception as exc:
                reply = exc
            conn.send(reply)
    except (EOFError, OSError):
        return


def _polled_recv(conn):
    """``conn.recv()``, waiting by polling. On a shared 2-vCPU VM a process blocked in
    ``recv`` often woke late: with blocking waits on either side, training runs that
    took 8-11 s with polling on both took 9-22 s, some slower than one process."""
    while not conn.poll(0):
        os.sched_yield()  # a process waiting for a CPU, such as the parent, takes this one
    return conn.recv()
