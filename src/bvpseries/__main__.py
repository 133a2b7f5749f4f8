"""Process entry of ``python -m bvpseries`` and the ``bvpseries`` script.

``main`` first has glibc keep the memory the process frees for reuse
(``mallopt``; nothing where the C library has none), before numpy or any
module of the package beyond its lazy ``__init__`` is imported, so the heap
is shaped by the policy from its first allocation, and blocks that free and
allocate the same sizes again do not fault their pages back in each time.
Then it runs ``cli.main`` and ends the process with its exit code through
``os._exit``, skipping the interpreter's teardown: ``cli.main`` has closed
its payload sink and writes each message unbuffered, so nothing is left
buffered. Importing the package or calling ``cli.main`` leaves the
allocator as it is, and ``cli.main`` returns the exit code to in-process
callers.
"""

import ctypes
import os

# glibc's mallopt parameters (malloc.h) and the values ``main`` gives them:
# M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3)
_HEAP_POLICY = ((-1, 1 << 30), (-3, 1 << 25))


def _keep_freed_heap() -> None:
    """Set glibc's ``_HEAP_POLICY`` for this process: freed memory stays in
    the heap for reuse, up to 1 GiB of it, instead of going back to the
    kernel and being faulted in again page by page, and blocks below
    32 MiB come from that heap instead of from mappings of their own. A C
    library without ``mallopt`` (macOS, Windows) is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # Windows: CDLL(None) is a TypeError
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_POLICY:
        mallopt(param, value)


def main() -> None:
    """Keep the process's freed heap for reuse (``_keep_freed_heap``): the
    digit kernel's per-block temporaries, the output runs and the sampling
    blocks are freed and allocated again block after block, and by default
    glibc hands that memory back to the kernel each time, so it is faulted
    in again. Then run ``cli.main`` and end the process with its exit code
    through ``os._exit``, skipping the interpreter's teardown (about 30 ms
    with numpy loaded), which has nothing left to do.
    """
    _keep_freed_heap()
    from . import cli

    os._exit(cli.main())


if __name__ == "__main__":
    main()
