"""Set-up half of one workload, run in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <n_it> <instance file or name>...

Imports swarmpack, resolves every instance (a file is parsed, anything else
is looked up in the embedded corpus), validates them with the workload's
hyperparameters, builds the first instance's initial swarm, then prints
``time.monotonic()``. The parent subtracts its own clock reading taken just
before starting this process, so the figure covers interpreter start-up too.
"""

import os
import sys
import time

sys.path.insert(0, sys.argv[1])

from swarmpack import init, instance_io, model  # noqa: E402
from swarmpack.corpus import CORPUS  # noqa: E402

hp = model.Hyperparameters(n_it=int(sys.argv[2]))
instances = [instance_io.load_instance(t) if os.path.exists(t) else CORPUS.get(t) for t in sys.argv[3:]]
for instance in instances:
    problems = model.validate_instance(instance) + model.validate_hyperparameters(hp)
    if problems:
        raise SystemExit("; ".join(problems))
init.initial_state(instances[0], hp)
print(repr(time.monotonic()))
