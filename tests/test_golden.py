"""Golden outputs: sha256 digests of `numrad sweep` and `numrad search` stdout.

The digests pin the outputs from one commit to the next, so an output change
is caught whether or not it was meant. They were made under numpy 2.4.6 and
scipy-openblas 0.3.31 (DYNAMIC_ARCH, Haswell kernels). Another numpy or
OpenBLAS may move the last bits of a draw or an eigenvalue, and with them
every digest, so on another stack the test is skipped and says which
versions it found. A PR that changes an output on purpose updates the digest
here in the same commit and says in CHANGES.md which outputs moved and why.

Regenerate the table with `PYTHONPATH=src python tests/test_golden.py`.
"""

import ast
import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from numrad import cli

ROOT = Path(__file__).resolve().parent.parent
STACK = {"numpy": "2.4.6", "openblas": "0.3.31"}
# 65 trials span a full chunk of 64 and a partial one.
SWEEP_TRIALS = 65
SWEEP_SEED = 11
SEARCH_ITERS = 200
SEARCH_SEED = 5

# Made from the tree at commit dce304c, before the stacked sweep draw.
DIGESTS = {
    "sweep --ensemble=disk --n=2 --trials=65 --seed=11 --lambda=1,0.5 --r=0.4":
        "d3d75d0b44cd8d9776b24e22cd8a405311db6de741ad1c5fef026967bbb97c9b",
    "sweep --ensemble=disk --n=4 --trials=65 --seed=11 --lambda=1,0.5 --r=0.4":
        "2f0d20f3c60b245ec3b285689855910314874a9967e8458ab3d0b72e7271e1d2",
    "sweep --ensemble=segment --n=2 --trials=65 --seed=11 --m=1 --M=3":
        "06ab276927016090c570b0533f8b9b91c43c992fe7151b069d6abb13ba3ee88d",
    "sweep --ensemble=segment --n=4 --trials=65 --seed=11 --m=1 --M=3":
        "1f505556bbc4e265bf6cf2069e2e74d2fc72bc37847a0f803c66286939e49251",
    "sweep --ensemble=ginibre --n=2 --trials=65 --seed=11 --lambda=0.5,0 --r=1.2":
        "671f144f6c55f2928a9291891f35fb374f066d53bfce8979577e2ef64b83cc5d",
    "sweep --ensemble=ginibre --n=4 --trials=65 --seed=11 --lambda=0.5,0 --r=1.2":
        "d83636b619139f2a14788bb5076e4cdd95697de55b9570bc1bb550170c559da3",
    "sweep --ensemble=nilpotent --n=2 --trials=65 --seed=11 --lambda=0.5,0 --r=1.2":
        "7a5eb25665de90cb91d9939375a54625301cbb734391b5b372d6f4987128a795",
    "sweep --ensemble=nilpotent --n=4 --trials=65 --seed=11 --lambda=0.5,0 --r=1.2":
        "591912a4cae29d7e3b8d589a735c029b3fe868b992953b1d83c01575ff39400d",
    "search --equality --n=2 --iters=200 --seed=5":
        "256acf2d6bee3e87dd8ffce58ea9fe94d5bc61b0760870d780d6d2d8c1f1331d",
    "search --equality --n=3 --iters=200 --seed=5":
        "9c6736fc188117a2d94fe0f267eec7165cc809b3963e066c210762facc68d23f",
    "search --equality --n=4 --iters=200 --seed=5":
        "73a2f2431f933165b20bdb6bd52094940fa8c9739d940fd47fab1ac520adc2da",
    "search --problem --n=2 --iters=200 --seed=5":
        "a65f84ccf6a4ad102619535596b28797776f6aa65143f02edd108e40098aa86f",
    "search --problem --n=3 --iters=200 --seed=5":
        "206da3f1da89b18eb025d8ae7cb1041b8e027688e5886da92861106a2dbdbefc",
    "search --problem --n=4 --iters=200 --seed=5":
        "a8540f3d4171f8b893f4a7ad0dc6e1b1eed48c714e84265c8ae0e327d093f399",
}


def _sweep_flags() -> dict:
    """The benchmark's SWEEP_FLAGS, read from perfbench/workloads.py without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SWEEP_FLAGS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/workloads.py defines no SWEEP_FLAGS")


def golden_argvs() -> list:
    argvs = [
        ["sweep", f"--ensemble={ens}", f"--n={n}", f"--trials={SWEEP_TRIALS}",
         f"--seed={SWEEP_SEED}", *flags]
        for ens, flags in _sweep_flags().items()
        for n in (2, 4)
    ]
    argvs += [
        ["search", mode, f"--n={n}", f"--iters={SEARCH_ITERS}", f"--seed={SEARCH_SEED}"]
        for mode in ("--equality", "--problem")
        for n in (2, 3, 4)
    ]
    return argvs


def digest(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def stack() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": ".".join(blas["version"].split(".")[:3])}


def test_golden_table_covers_every_output():
    assert list(DIGESTS) == [" ".join(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_output_matches_its_golden_digest(argv):
    if stack() != STACK:
        pytest.skip(f"digests were made under {STACK}, this stack is {stack()}")
    assert digest(argv) == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    print(stack())
    for argv in golden_argvs():
        print(f'    "{" ".join(argv)}":\n        "{digest(argv)}",')
