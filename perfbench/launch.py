"""Run ``ppchecker`` with the benchmark's layer tracer installed.

    python3 perfbench/launch.py --dump PATH -- serve [serve options]

Spans and counters go to ``PATH`` (NDJSON) when the command returns,
e.g. after ``serve`` drains on SIGTERM.  Shards spawned by
``serve --shards N`` are started through this launcher too, each
dumping to ``PATH`` with ``-<shard name>`` before the extension.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--dump" or argv[2] != "--":
        print("usage: launch.py --dump PATH -- COMMAND...",
              file=sys.stderr)
        return 2
    dump, command = argv[1], argv[3:]

    import repro.cli
    from repro.service.cluster import ShardProcess

    from layers import Tracer

    original = ShardProcess.command

    def command_via_launcher(shard: ShardProcess) -> list[str]:
        cmd = original(shard)
        if cmd[1:3] != ["-m", "repro.cli"]:
            raise RuntimeError(f"unexpected shard command {cmd[:3]}")
        stem, ext = os.path.splitext(dump)
        return [cmd[0], os.path.abspath(__file__), "--dump",
                f"{stem}-{shard.name}{ext}", "--"] + cmd[3:]

    ShardProcess.command = command_via_launcher
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return repro.cli.main(command)
    finally:
        tracer.active = False
        tracer.write_ndjson(dump)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
