"""Whole-file replacement: how the package writes every file it may overwrite.

:func:`replace_file` writes the new bytes under a fresh hidden name in the
target's directory and renames that file over the target with
``os.replace``, so a reader, or a crash of the process, finds the old file
or the new one whole, never an empty or cut-off one. The rename replaces
the directory entry: a symlink at the target is replaced, not written
through, and the new file's mode comes from the process umask, as a newly
created file's does.

``durable`` adds an fsync of the file before the rename and of its
directory after it, so the new file survives a power cut once the call
returns. Without it, a power cut may also leave the new name empty on a
file system that commits a rename before the data it names. A caller asks
for it only for a file that a rerun cannot rebuild; see the durability
notes in README.
"""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path


def replace_file(path: str | Path, data: str | bytes, *, durable: bool) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8) in one rename.

    On any failure the temporary file is removed and the target is left as
    it was.
    """
    directory, name = os.path.split(os.fspath(path))
    payload = data.encode("utf-8") if isinstance(data, str) else data
    # The pid and thread keep concurrent writers apart, and the random part
    # keeps a crashed writer's leftover (or a writer in another pid
    # namespace) from holding the name; ".tmp" keeps it from looking like a
    # report or a sidecar. The name stays a str: pathlib interns each part
    # of a path, and a new name per write would grow the interned table.
    temp = os.path.join(
        directory, f".{name}.{os.getpid()}.{threading.get_ident()}.{os.urandom(4).hex()}.tmp"
    )
    fh = open(temp, "xb")
    try:
        with fh:
            fh.write(payload)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    if durable:
        fsync_directory(directory or os.curdir)


def fsync_directory(path: str | Path) -> None:
    """Fsync directory ``path``, so that the names made or replaced in it survive a power cut."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
