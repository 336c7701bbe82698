"""The program's entry: ``python -m leibniz_kit`` and the ``leibniz-kit`` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run one command and return its exit code.

    The process ends right after, so its objects are frozen first: the
    interpreter's final collection then skips them.  ``sys.exit``, the flush
    of the standard streams and atexit handlers still run.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
