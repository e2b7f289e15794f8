"""Deterministic text serialization helpers.

Every float is rendered with 17 significant digits so values round-trip
exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import os
import stat


def fmt17(x: float) -> str:
    """17-significant-digit decimal form of a finite float."""
    return format(float(x), ".17g")


def json_list(values) -> str:
    return "[" + ", ".join(fmt17(v) for v in values) + "]"


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, in place.

    The file is opened (or created) without truncation, overwritten from its
    start and then cut to the new length, so an existing file costs no
    truncate-to-zero, which some filesystems (ext4) follow with a flush.
    When a write fails, the file is cut to zero bytes before the error
    propagates: it never holds new bytes followed by stale ones.  A device
    or pipe (not a regular file) is written as a stream and never cut.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular:
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                # the original error is the one to report
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)
