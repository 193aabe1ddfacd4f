"""Run ``repro.cli`` or a script on a reference plane, as a subprocess.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python -m tests.reference.bootstrap PLANE repro.cli ARGS...
    python -m tests.reference.bootstrap PLANE SCRIPT.py ARGS...

``PLANE`` names the reference planes to install before the program
starts, joined by ``+``: ``scalar`` (:func:`scalar_plane`), ``nomemo``
(:func:`no_memo`), both (``scalar+nomemo``), or ``compiled`` for
neither.  ``repro.cli`` calls :func:`repro.cli.main` with ``ARGS``;
anything else runs as a script with ``ARGS`` as its ``sys.argv``.
The exit status is the program's.
"""

from __future__ import annotations

import runpy
import sys
from contextlib import ExitStack

from tests.reference.esa_scalar import scalar_plane
from tests.reference.nomemo import no_memo

_PLANES = {"scalar": scalar_plane, "nomemo": no_memo}


def main(argv: list[str]) -> int:
    plane, program, *args = argv
    names = [] if plane == "compiled" else plane.split("+")
    with ExitStack() as stack:
        for name in names:
            stack.enter_context(_PLANES[name]())
        if program == "repro.cli":
            from repro.cli import main as cli_main

            return cli_main(args)
        sys.argv = [program, *args]
        runpy.run_path(program, run_name="__main__")
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
