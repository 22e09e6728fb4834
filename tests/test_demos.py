"""Every demo runs clean, with and without `python -O`."""

import os
import pathlib
import subprocess
import sys

import pytest

import hotring

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))

MATRIX_GROUPS_OUTPUT = """\
square-zero witness: (((1,), (0,)), ((1,), (1,)))
F3, a=1: ok
F3, a=2: not_qi (1 + 2 = 0)
GL_1(sq0_z2) order: 2 (the additive group of the ring)
GL_2(F_3) order: 48
KV1(sq0_z2) at (n=2, d=1): order 1, invariant factors []
KV1(sq0_z3) at (n=2, d=1): order 1, invariant factors []
KV1(z2_unital) at (n=2, d=1): order 1, invariant factors []
KV1(z3_unital) at (n=2, d=1): order 2, invariant factors [2]
determinant certificate: {'subgroup_determinants': [(1,)], \
'determinant_image_order': 2, 'subgroup_in_kernel': True, \
'lower_bound_matches': True}
dets of class reps: [(1,), (2,)]
sq0_z3 class counts at d=1,2: [1, 1]
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(demo, flags):
    src = os.path.dirname(os.path.dirname(hotring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, *flags, str(demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo.stem == "02_matrix_groups_kv1":
        assert done.stdout == MATRIX_GROUPS_OUTPUT
