"""Result bytes pinned by sha256, so a change to any solver result shows in Tier-1.

The solves run in a subprocess with numpy's AVX-512 dispatch switched off:
on such hosts numpy's float64 ``arccos`` differs from libm's, which changes
the trace CSV's overlap column. The variable acts only on the subprocess.
A change that alters results by design replaces the pins below and says so.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmpack

DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
PINNED_NUMPY = "2.4"

# swarmpack solve {I1,I3} --iters 2000 and II1 --iters 1500, each at --seed {0,3},
# with --out-json and --trace-csv
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
}

SOLVES = """
import sys
from swarmpack.cli import main
for name, iters in (("I1", "2000"), ("I3", "2000"), ("II1", "1500")):
    for seed in ("0", "3"):
        stem = f"{sys.argv[1]}/{name}-{seed}"
        argv = ["solve", name, "--iters", iters, "--seed", seed]
        code = main([*argv, "--out-json", stem + ".json", "--trace-csv", stem + ".csv"])
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}")
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="digests pinned on x86-64")
@pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != PINNED_NUMPY, reason=f"digests pinned under numpy {PINNED_NUMPY}"
)
def test_solve_outputs_match_the_pinned_digests(tmp_path):
    src = str(Path(swarmpack.__file__).resolve().parents[1])
    env = {**os.environ, **DISPATCH, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", SOLVES, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED}
    changed = sorted(name for name in PINNED if digests[name] != PINNED[name])
    assert changed == [], f"numpy {np.__version__}, libc {platform.libc_ver()}: {changed} differ from the pins"
