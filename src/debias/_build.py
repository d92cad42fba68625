"""Build the compiled delivery loop, ``debias._arena``, in place.

    python -m debias._build

compiles ``_arena.c`` next to this file into the extension module that
:mod:`debias.coin` imports, with the C compiler, flags and include path
that this interpreter was built with (``sysconfig``).  :mod:`debias.coin`
calls :func:`load` on its first import without a build of the current
source, and runs the pure-Python loop of :meth:`debias.coin.Arena.feed` if
the build fails for any reason (no compiler, no headers, an unwritable
package directory, a compile error): the kernel is optional, and installing
or importing the package never needs a compiler.

The module is written to a temporary file and moved into place, so a
concurrent import never sees half of it, and it takes the modification
time of the source it was compiled from: :mod:`debias.coin` serves a build
only while the two times are equal, so a changed source is never served by
an old build.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES

_BASE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_arena")
SOURCE = _BASE + ".c"
TARGET = _BASE + EXTENSION_SUFFIXES[0]
TIMEOUT_S = 120  # a compile takes under a second; a hung compiler must not hang the import


def build() -> None:
    """Compile ``SOURCE`` to ``TARGET``.  Raises ``OSError`` (no compiler
    configured or found, an unwritable directory) or
    ``subprocess.SubprocessError`` (a failed or timed-out compile, with the
    compiler's output)."""
    stat = os.stat(SOURCE)
    flags = [sysconfig.get_config_var(name) for name in ("LDSHARED", "CFLAGS", "CCSHARED")]
    if flags[0] is None:
        raise OSError("this interpreter names no C compiler to build extensions with")
    include = sysconfig.get_paths()["include"]
    with tempfile.TemporaryDirectory(prefix="._arena", dir=os.path.dirname(SOURCE)) as work:
        tmp = os.path.join(work, os.path.basename(TARGET))
        cmd = [arg for f in flags if f for arg in shlex.split(f)] + ["-I", include, SOURCE, "-o", tmp]
        subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                       timeout=TIMEOUT_S, check=True)
        os.utime(tmp, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        os.replace(tmp, TARGET)


def load():
    """Build and import the kernel; None if either fails."""
    try:
        build()
        from . import _arena
    except (OSError, subprocess.SubprocessError, ImportError):
        return None
    return _arena


def main() -> int:
    try:
        build()
    except subprocess.CalledProcessError as exc:
        print(f"{' '.join(exc.cmd)}\n{exc.stdout}{exc.stderr}", file=sys.stderr)
        return 1
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"cannot build {TARGET}: {exc}", file=sys.stderr)
        return 1
    print(TARGET)
    return 0


if __name__ == "__main__":
    sys.exit(main())
