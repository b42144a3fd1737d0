"""Set-up probe: one fresh interpreter imports coopdelay and builds every job.

    python3 perfbench/setup_probe.py <workload> <seed> <spawn time>

Prints the reference seconds (see speed.py) from <spawn time>, a
time.monotonic() reading the parent took just before starting this
process, until every job is built.
"""

import sys
import time

import speed


def main() -> int:
    workload, seed, t_spawn = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    with speed.SpeedSampler() as sampler:
        start = sampler.mark()
        import workloads

        workloads.build_jobs(workload, seed)
        seconds = time.monotonic() - t_spawn
    # the slices taken from here on stand for the whole interval since spawn
    print(sampler.reference_seconds(seconds, start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
