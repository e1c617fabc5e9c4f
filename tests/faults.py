"""I/O faults for each step of ``keystore.advance_counter``.

Shared by the keystore tests, which call ``advance_counter`` directly, and the
CLI tests, which drive it through ``semecs sign``.
"""

import builtins
import errno
import fcntl
import itertools
import os
import tempfile


def fails_on_call(real, n):
    """A stand-in for ``real`` whose n-th call raises ENOSPC."""
    calls = itertools.count(1)

    def fake(*args, **kwargs):
        if next(calls) == n:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args, **kwargs)

    return fake


def short_write(fd, data, _write=os.write):
    """An ``os.write`` that stores at most 10 octets, as a nearly full disk can."""
    return _write(fd, data[:10])


# Each step of advance_counter fails in turn: (target, name, real callable,
# failing call, on-disk j afterwards).  Every step before os.replace leaves j
# at 0; the directory fsync fails after the new record is in place, so index 0
# is burned.
ADVANCE_FAULTS = {
    "dir_open": (os, "open", os.open, 1, 0),
    "flock": (fcntl, "flock", fcntl.flock, 1, 0),
    "load_open": (builtins, "open", open, 1, 0),
    "mkstemp": (tempfile, "mkstemp", tempfile.mkstemp, 1, 0),
    "write": (os, "write", os.write, 1, 0),
    "short_write_enospc": (os, "write", short_write, 2, 0),
    "fsync": (os, "fsync", os.fsync, 1, 0),
    "replace": (os, "replace", os.replace, 1, 0),
    "dir_fsync": (os, "fsync", os.fsync, 2, 1),
}
