"""One set-up, as timed by run.py: import euciso and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this whole process, interpreter start included.
"""

import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import workloads

    w = workloads.WORKLOADS[sys.argv[1]]
    w.inputs(w.setup(int(sys.argv[2])))
