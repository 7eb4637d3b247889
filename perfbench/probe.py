"""Child-process probes of the benchmark, started by run.py.

    python3 perfbench/probe.py setup <workload>
        import condmc and build the workload's inputs, then exit; run.py
        times the whole process as one set-up.
    python3 perfbench/probe.py rss <workload> <seed>
        run the workload's first call for that seed and print the process's
        peak resident memory in MB.
"""

import resource
import sys

import workloads


def main(argv: list[str]) -> None:
    kind, name = argv[0], argv[1]
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs()
    if kind == "rss":
        try:
            workload.call(inputs, workloads.call_seed(int(argv[2]), 0))
        except workloads.cm.CondMcError:
            pass  # the memory was still used; run.py counts failures on its own calls
        # ru_maxrss is in KiB on Linux
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


if __name__ == "__main__":
    main(sys.argv[1:])
