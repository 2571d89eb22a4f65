"""Crash- and race-safe file publication."""

from __future__ import annotations

import os
import tempfile
from typing import Union


def atomic_write(path: Union[str, os.PathLike[str]],
                 data: Union[str, bytes]) -> None:
    """Publish ``data`` at ``path`` in one atomic rename.

    The bytes go to a uniquely named temp file in ``path``'s directory,
    which is then renamed over ``path``. Concurrent writers of one path
    never share a temp file, so every rename publishes one complete
    record and the last rename wins; readers see either the old file or
    a whole new one. ``str`` data is written as UTF-8. On any error the
    temp file is removed and the error propagates.
    """
    target = os.fspath(path)
    payload = data.encode("utf-8") if isinstance(data, str) else data
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target) or ".",
                               prefix="." + os.path.basename(target) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
