"""The process entry: ``python -m spectral_qpe`` and the ``spectral-qpe``
console script both call :func:`console_entry`."""

import logging
import os
import sys
from typing import NoReturn

from . import cli

EXIT_CLOSED_STDOUT = 1


def console_entry() -> NoReturn:
    """Run :func:`cli.main` on ``sys.argv`` and end the process with its code.

    A run that returns a code (0, 2, 3, 4 or 5) has written, closed and
    renamed every output file, so the process ends without interpreter
    teardown: logging's handlers are flushed and closed, the standard
    streams flushed, and ``os._exit`` skips the final garbage collection,
    the freeing of every module and any ``atexit`` callback.  An exception
    escaping ``main`` (a traceback, exit 1) and argparse's ``SystemExit``
    (``--help``, a usage error) take the normal exit.

    When standard output has no reader, the prints or the final flush raise
    ``BrokenPipeError``; standard output is then pointed at ``os.devnull``
    and the process exits 1 with no traceback, the outputs already in place.
    """
    try:
        code = cli.main()
        sys.stdout.flush()
    except BrokenPipeError:
        # As the Python docs advise for SIGPIPE: point stdout at devnull, so
        # what is left in its buffer cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    logging.shutdown()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_entry()
