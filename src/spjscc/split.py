"""Independent runs of work split between the caller and forked worker processes.

`forked_map(run, count)` cuts `range(count)` into contiguous runs, one per
process, and yields `run(r)` for each run in order: the caller computes the
first run itself, and one `os.fork`ed worker computes each of the others and
sends its result back over a pipe. `metrics.evaluate` splits its (SNR, seed)
cells this way and `saliency.compute_weight_maps` its batches.

This module is the one home of the process-count rule (`_worker_count`): the
CPUs in the caller's affinity mask divided by the threads its BLAS runs, at
most one process per item and at least one. So at OpenBLAS's default of one
thread per CPU everything runs in the caller, and with one BLAS thread there
is one process per CPU. Processes that each run a BLAS thread per CPU would
oversubscribe the cores: a 200-image, 15-cell evaluation on 2 CPUs at 2
OpenBLAS threads took 24 s split in two and 3.9 s in one process. Without
`os.fork` (Windows) or `os.sched_getaffinity` (macOS), or where the loaded
BLAS cannot be asked its thread count, everything runs in the caller. A
program that runs such stages side by side should give each its own CPUs
(`os.sched_setaffinity`), or each forks workers of its own.

Where the count does not divide, the later runs take one item more, so a
short tail lands on a worker and not on the caller, which also forks and
joins. A worker shares the caller's pages until it writes them; what it
writes is memory that a measure of the largest single process does not see.
Every worker is joined, or killed and reaped, before `forked_map` returns or
raises, so none outlives the loop that consumes it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import traceback

# Thread-count getters of the BLAS builds numpy links: OpenBLAS (numpy's own
# scipy-openblas and the plain library, 64- and 32-bit integers), MKL, BLIS.
_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)


def _blas_function(symbols):
    """The first of `symbols` that a BLAS library this process has loaded exports, or None where none can be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(line.split()[-1] for line in fh)
    except OSError:
        return None
    for path in paths:
        name = os.path.basename(path).lower()
        if not path.startswith("/") or not any(k in name for k in ("blas", "mkl", "blis")):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(lib, symbol, None)
            if function is not None:
                return function
    return None


@functools.cache
def _blas_thread_query():
    """The thread-count getter of the BLAS library this process has loaded, or None where none can be found."""
    query = _blas_function(_BLAS_THREAD_QUERIES)
    if query is not None:
        query.restype, query.argtypes = ctypes.c_int, []
    return query


def _worker_count(items: int) -> int:
    """Processes `forked_map` splits `items` items between: the CPUs in this process's affinity mask over the BLAS's threads.

    At most one per item and at least one. One where `os.fork` or
    `os.sched_getaffinity` is missing (Windows has no fork, macOS no affinity
    mask), or where the loaded BLAS cannot be asked its thread count: it may
    run one thread per CPU, as OpenBLAS does by default.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    query = _blas_thread_query()
    if query is None:
        return 1
    return max(1, min(items, len(os.sched_getaffinity(0)) // max(1, query())))


def forked_map(run, count: int):
    """Yield `run(r)` for contiguous ranges `r` that cover `range(count)` in order, one range per process.

    The caller computes the first range while the workers compute the
    others, and each worker's result is read as it is joined, so a consumer
    can store one before the next arrives. A worker's exception comes back
    with its formatted traceback chained as its cause (`WorkerTraceback`).
    Consume the generator in one loop: its workers are killed and reaped as
    soon as it raises or is closed.
    """
    workers = _worker_count(count)
    edges = [k * (count // workers) + max(0, k - workers + count % workers) for k in range(workers + 1)]
    runs = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
    if len(runs) == 1:
        yield run(runs[0])
        return
    children = {}  # pid -> its result pipe, until the worker is reaped
    try:
        for held in runs[1:]:
            pid, pipe = _fork_worker(run, held)
            children[pid] = pipe
        yield run(runs[0])
        for pid, pipe in list(children.items()):
            with pipe:
                try:
                    payload = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the worker ended before it wrote a whole result
                    payload = None
            _, status = os.waitpid(pid, 0)
            del children[pid]
            yield _worker_result(f"{_stage(run)} worker {pid}", payload, status)
    finally:
        for pid, pipe in children.items():  # only on an error or early close: stop and reap the workers not joined
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _stage(run) -> str:
    """`module.function` that `run` calls, naming its workers in errors."""
    function = getattr(run, "func", run)
    return f"{function.__module__.rpartition('.')[2]}.{function.__qualname__}"


def _fork_worker(run, held: range):
    """Fork a worker that computes `run(held)`; return its pid and the pipe its pickled result comes back on.

    The worker sends `(result, None)`, or the exception it raised with its
    formatted traceback, and leaves through `os._exit` with status 0 once
    that is written, 1 otherwise.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            try:
                result = run(held), None
            except BaseException as exc:
                result = _picklable(exc, _stage(run)), traceback.format_exc()
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, os.fdopen(rfd, "rb")


def _picklable(exc: BaseException, stage: str) -> BaseException:
    """`exc`, or a RuntimeError naming its type and message if it does not survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{stage} worker raised {type(exc).__name__}: {exc}")
    return exc


class WorkerTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the exception it sent back."""

    def __str__(self) -> str:
        return f"in {self.args[0]}:\n{self.args[1]}"


def _worker_result(worker: str, payload, status: int):
    """The result a reaped worker sent back; raise the exception it sent, or an error naming how it ended."""
    if status != 0 or payload is None:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"ended with exit status {code}"
        raise RuntimeError(f"{worker} {how} without a result")
    result, worker_traceback = payload
    if worker_traceback is not None:
        raise result from WorkerTraceback(worker, worker_traceback)
    return result
