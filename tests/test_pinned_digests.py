"""Result bytes pinned by sha256, so a change to any solver result shows in Tier-1.

The solves run in this process at numpy's default dispatch, through
``cli.main`` as ``swarmpack solve`` runs them. Their bytes do not depend on
the dispatch level. numpy's AVX-512 ``arccos`` rounds differently from
libm's, so the lens kernel takes its arccos from libm; the other array
operations of a solve (``+ - * /``, ``sqrt``, sums, maxima) round alike
with and without AVX-512. CI runs this file a second time with numpy's
AVX-512 loops switched off (``NPY_DISABLE_CPU_FEATURES``), against the same
pins.
A change that alters results by design replaces the pins below and says so.
"""

import hashlib
import platform

import numpy as np
import pytest

from swarmpack.cli import main

PINNED_NUMPY = "2.4"

# swarmpack solve NAME --iters ITERS at --seed {0,3}, with --out-json and
# --trace-csv, for the (NAME, ITERS) of each test's runs.
RUNS = (("I1", 2000), ("I3", 2000), ("II1", 1500))
# II2, with 150 circles of radii 10-50, holds the most layouts that fit but
# have a contact deep enough to settle the verdict before enclosing_radius.
II2_RUNS = (("II2", 2000),)
PINNED = {
    "I1-0.json": "fc7cba92bcfb2e53324d1a3dffc5913e96b8c8978360b01a9c66decaa6406f29",
    "I1-0.csv": "1d1043efa0f1944b72319a7ae7b16de2fbdb97f0f9f32d658a825feba1e55f63",
    "I1-3.json": "451adc4ae4724986f2b471e7b77f992a481e18c6cb1320eeb3415da9dc6f909d",
    "I1-3.csv": "6b867f6885f70df107a225dd3efcb72a499bc7754a22b5aa82d898875915740a",
    "I3-0.json": "d0272d14dccc1c324fc232d9a49ab926e7cb97f3f6ef5da7061ffa204f137310",
    "I3-0.csv": "409cde97e2c01d7ce918e5de7690066aca1992f0cceb910df613d0ed186c6380",
    "I3-3.json": "7fec18f7362a147c55876aba13ca79301a5ef450f2d0e851caafb2163aeac105",
    "I3-3.csv": "ab332605737bf3963dbabc3c9ee6f432a021b5c0e65506832e161aa87ee9ad8d",
    "II1-0.json": "b882dd95dc10d5b6c86b50fdf0d1d57b986ace2b3e385a60963f51d8451f690c",
    "II1-0.csv": "d0c2d71ad8cb427238d04892569f14b572fc4eb6a6300c311491da2ebaf75738",
    "II1-3.json": "7c367b3f569224eaf0e5047ca5278131b69d026d4353774efbbcad9f0b533fd0",
    "II1-3.csv": "4b12ce3fbc70f9ea207e45e53a9ff9879f0cbc1d8dca087ed65422c8e6ec885d",
    "II2-0.json": "bcbf5839595cac4a1ecb1165c02e53e5bce2ca98f5d5eb0c8ea2a93b80e14ba6",
    "II2-0.csv": "5b49e6159f47978e68f81eaa5b2d6e2a8bc42233b4220f02799275f43017ce28",
    "II2-3.json": "510429512cdf59c8df6f2a5c26ce05156007ebc1ad2da93c908e9afb5cabd5c7",
    "II2-3.csv": "d3970fc151d436bb672f86db52d7dd5879b5028853435242c54546a20631c1c9",
}

# c07's unit pair (tests/test_acceptance.py) as an instance file, solved at
# the default hyperparameters and budget, seed 0: the one pinned swarm below
# N = 10. At N = 2 an (N,) mass array would broadcast against the (2, 2)
# forces without an error; integrate_step's shape check rejects it
# (tests/test_dynamics.py), and this pin holds the rest of a 2-circle run.
# It is also the one pinned run whose target the schedule clamps at the
# floor max(sqrt(sum r^2), r_1 + r_2) = 2: the pair fits at 1.999917 in
# iteration 410.
UNIT_PAIR_FILE = "unitpair 2\n1 1\n1 1\n"
UNIT_PAIR_PINNED = {
    "unitpair.json": "98fb400c1fcbc9975cbff6853f7f3cca6269ad15e7d407d1208ce5e3b865df5b",
    "unitpair.csv": "7d3289932ad4b54b4f4ab205fddaf27b0a62b016f7340ad47ca0b39d5481a677",
}


pinned_host = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or ".".join(np.__version__.split(".")[:2]) != PINNED_NUMPY,
    reason=f"digests pinned on x86-64 under numpy {PINNED_NUMPY}",
)


def assert_runs_match_the_pins(tmp_path, runs):
    names = []
    for name, iters in runs:
        for seed in (0, 3):
            argv = ["solve", name, "--iters", str(iters), "--seed", str(seed)]
            stem = tmp_path / f"{name}-{seed}"
            code = main([*argv, "--out-json", f"{stem}.json", "--trace-csv", f"{stem}.csv"])
            assert code == 0, f"{' '.join(argv)} exited {code}"
            names += [f"{name}-{seed}.json", f"{name}-{seed}.csv"]
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    changed = sorted(name for name in names if digests[name] != PINNED[name])
    assert changed == [], f"numpy {np.__version__}, libc {platform.libc_ver()}: {changed} differ from the pins"


@pinned_host
def test_solve_outputs_match_the_pinned_digests(tmp_path):
    assert_runs_match_the_pins(tmp_path, RUNS)


@pinned_host
def test_ii2_outputs_match_the_pinned_digests(tmp_path):
    assert_runs_match_the_pins(tmp_path, II2_RUNS)


@pinned_host
def test_unit_pair_outputs_match_the_pinned_digests(tmp_path):
    source = tmp_path / "unitpair.txt"
    source.write_text(UNIT_PAIR_FILE)
    stem = tmp_path / "unitpair"
    code = main(["solve", str(source), "--seed", "0", "--out-json", f"{stem}.json", "--trace-csv", f"{stem}.csv"])
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in UNIT_PAIR_PINNED}
    assert digests == UNIT_PAIR_PINNED, f"numpy {np.__version__}, libc {platform.libc_ver()}"
