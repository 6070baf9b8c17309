"""Run one ``nash`` command in a fresh interpreter while sampling the reference kernel.

    python3 perfbench/child.py REPORT [nash arguments ...]

With no nash arguments it only imports nash: the set-up every command pays.
The kernel cannot be sampled from the parent while a child works, because
the parent's samples would compete with the child for a core, so the child
samples itself and writes to REPORT, as JSON, its exit code, the kernel
samples taken inside and around the command, and the wall seconds the
kernel itself took (its set-up included), which the parent subtracts.
"""

from __future__ import annotations

import json
import sys
import time

from refkernel import ReferenceKernel, Sampler


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    kernel = ReferenceKernel()
    build_s = time.perf_counter() - started
    sampler = Sampler(kernel)

    def command() -> int:
        if not argv:
            import nash  # noqa: F401

            return 0
        import nash.cli

        return nash.cli.main(argv)

    bursts_started = time.perf_counter()
    code, interval = sampler.measure(command)
    bursts_s = time.perf_counter() - bursts_started - interval.wall
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({
            "code": code,
            "inside": interval.inside,
            "around": interval.around,
            "kernel_wall": build_s + bursts_s + interval.kernel_wall,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
