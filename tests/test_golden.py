"""Golden outputs: sha256 digests of `numrad sweep`, `search`, `compute` and `verify`.

A digest covers the command's stdout, and for `compute` also the boundary
CSV it writes. `compute` and `verify` run on the benchmark's n = 32 dense
matrices (`perfbench.workloads.dense_matrix`) of one seed, written as matrix
files into the working directory.

The digests pin the outputs from one commit to the next, so an output change
is caught whether or not it was meant. They were made under numpy 2.4.6 and
scipy-openblas 0.3.31 (DYNAMIC_ARCH, Haswell kernels). Another numpy or
OpenBLAS may move the last bits of a draw or an eigenvalue, and with them
every digest, so on another stack the test is skipped and says which
versions it found. A PR that changes an output on purpose updates the digest
here in the same commit and says in CHANGES.md which outputs moved and why.

Regenerate the table with `PYTHONPATH=src python tests/test_golden.py`. It
marks with `# moved` each entry whose digest differs from `DIGESTS`, so the
outputs that a change moved can be named without diffing the table.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from numrad import cli, extremal

ROOT = Path(__file__).resolve().parent.parent
STACK = {"numpy": "2.4.6", "openblas": "0.3.31"}
# One chunk of extremal's trial pipeline holds 4096 trials at n = 2 and 1024
# at n = 4, so each sweep and search below is one chunk. Under a budget that
# cuts chunks of 64 trials, 65 trials and 200 iterations span several chunks,
# and they print the same bytes (see
# test_sweeps_and_searches_print_the_same_bytes_in_chunks_of_64).
SWEEP_TRIALS = 65
SWEEP_SEED = 11
SEARCH_ITERS = 200
SEARCH_SEED = 5
# The benchmark's dense workload cycles through 4 kinds; 8 inputs give two of each.
DENSE_SEED = 1301
DENSE_INPUTS = 8

# The sweep and search digests were made from the tree at commit dce304c,
# the compute and verify digests at commit 640a50d. The bound table moved one
# value: the C2_13 median_slack of the disk n = 2 sweep, by 8 ulp (its norm^2
# - w^2 now squares with x * x, not the C pow of a Python float). Evaluating
# the sector rows on the pair's equivalent disk moved the two segment sweeps
# (C4_6, R4_10 and R4_11 slacks) and the eight verify runs (C4_6, and on m7
# the disk's T3_2 and T4_2), each value by at most 4.5e-16. The radius's
# probe, which certifies Hermitian and square-zero matrices from f(0) and
# f(pi) alone, moved the segment n = 4 sweep and compute and verify of m2 and
# m6 (Hermitian) and m5 (square-zero): each w by at most 3.3e-16, the sweep's
# slacks by at most 1.8e-15 (see CHANGES.md).
DIGESTS = {
    "sweep --ensemble=disk --n=2 --trials=65 --seed=11 --lambda=1,0.5 --r=0.4":
        "c1adb090f3e1dbeff0c36da45a85fb2227cb67be8ef0774a4744d0b2faf6c07c",
    "sweep --ensemble=disk --n=4 --trials=65 --seed=11 --lambda=1,0.5 --r=0.4":
        "2f0d20f3c60b245ec3b285689855910314874a9967e8458ab3d0b72e7271e1d2",
    "sweep --ensemble=segment --n=2 --trials=65 --seed=11 --m=1 --M=3":
        "c94751ca6bd6bb41b1d5679ec8f674b21f0d2287a51a1381c375600af9ba6951",
    "sweep --ensemble=segment --n=4 --trials=65 --seed=11 --m=1 --M=3":
        "bb6086217754130f5a39b583a6c8f750fbcfefc7faa48ab2ca5204fa66cf5f80",
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
    "compute m0.json --out=m0.csv":
        "12b6e1a754335e73b8f4e34770852cc4fc0e3136e53995bb3dfe3f1a38bf45a9",
    "verify m0.json --auto --phi=1.0,0.5 --varphi=0.5,-0.25":
        "07a2b76470c37535086195449013dcd8500f5065e115ace968e08d117353ece4",
    "compute m1.json --out=m1.csv":
        "420ab1aaf0ba1c916ab7c2bab13ee645c7089ef94c2440c23bd85e70e90ab3a5",
    "verify m1.json --auto --phi=1.0,0.5 --varphi=0.5,-0.25":
        "62cad7ee1481f38d7ad70ecc7ba085c6d286b6fc8a2f06a3ba71b153bb453ca3",
    "compute m2.json --out=m2.csv":
        "be9afb6da6f79f6a0af4c0f973c428c9053f178bb27c28b7fdc2362c61e2f339",
    "verify m2.json --auto --phi=1.0,0.5 --varphi=0.5,-0.25":
        "2ee2739ff6d4ac62a9a15ae24ac34c316321e16746860ebbf735b7f8f0e30bfd",
    "compute m3.json --out=m3.csv":
        "340951a0a7be66402524e1f97eaa8c13e0d873390fdf385dcdcba1b513415552",
    "verify m3.json --auto --phi=0.08384354252077744,-1.625013338905604 --varphi=-0.3364543909257569,-1.0689095244766018":
        "043a8efc13838d5ad37ae4f2c574acc09a8ee8fd6bd192d87f04203d9749c929",
    "compute m4.json --out=m4.csv":
        "d7a06af9f8ce4d300475bfd78d26309a27a814fd826e99c0cade52853e5673b1",
    "verify m4.json --auto --phi=1.0,0.5 --varphi=0.5,-0.25":
        "f36eb8300e7a59566a73e52672b503b80f033841127313bda58700afaa58db08",
    "compute m5.json --out=m5.csv":
        "7b504e1b8387f81ee47875e6bbe3690d5d8e42a255ed0deb717fb6e019a1c9fd",
    "verify m5.json --auto --phi=1.0,0.5 --varphi=0.5,-0.25":
        "baaaa25cb8f0f63b5df96d2aba902ae596a5fc7a4f3f7f157d302633f4d884f8",
    "compute m6.json --out=m6.csv":
        "699f6ca59593492f1e20beff087f6bc74d79978a8147a9d5eb6a3530223fcc4f",
    "verify m6.json --auto --phi=1.0,0.5 --varphi=0.5,-0.25":
        "053fd455a865903f05651d65dd244488ac63eaf84ccbbecd942c598fbfc220bf",
    "compute m7.json --out=m7.csv":
        "3d271582380e815bab5d2b647d75531a61edce2d36af4197c8a0c14ef4718547",
    "verify m7.json --auto --phi=1.458915616945347,0.9909825649257914 --varphi=1.9143181327538223,0.8003938304268118":
        "28de09c7cf28c80f62fd5872a5899b6d631d58d5fd6c2dda379a7e40f8b35126",
}


@functools.cache
def _workloads():
    """perfbench/workloads.py, loaded from its file (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def write_dense_inputs(directory: Path) -> None:
    """The dense matrix files m0.json ... m7.json that the compute and verify argvs read."""
    wl = _workloads()
    for i in range(DENSE_INPUTS):
        wl.write_matrix(directory / f"m{i}.json", wl.dense_matrix(DENSE_SEED, i)[0])


def golden_argvs() -> list:
    wl = _workloads()
    argvs = [
        ["sweep", f"--ensemble={ens}", f"--n={n}", f"--trials={SWEEP_TRIALS}",
         f"--seed={SWEEP_SEED}", *flags]
        for ens, flags in wl.SWEEP_FLAGS.items()
        for n in (2, 4)
    ]
    argvs += [
        ["search", mode, f"--n={n}", f"--iters={SEARCH_ITERS}", f"--seed={SEARCH_SEED}"]
        for mode in ("--equality", "--problem")
        for n in (2, 3, 4)
    ]
    for i in range(DENSE_INPUTS):
        _, _, phi, varphi = wl.dense_matrix(DENSE_SEED, i)
        argvs += [
            ["compute", f"m{i}.json", f"--out=m{i}.csv"],
            ["verify", f"m{i}.json", "--auto", f"--phi={wl._cplx(phi)}", f"--varphi={wl._cplx(varphi)}"],
        ]
    return argvs


def digest(argv: list) -> str:
    """sha256 of the command's stdout, then of any --out file; run in the inputs' directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, argv
    h = hashlib.sha256(out.getvalue().encode())
    for arg in argv:
        if arg.startswith("--out="):
            h.update(Path(arg[len("--out="):]).read_bytes())
    return h.hexdigest()


def stack() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": ".".join(blas["version"].split(".")[:3])}


def test_golden_table_covers_every_output():
    assert list(DIGESTS) == [" ".join(argv) for argv in golden_argvs()]


@pytest.fixture(scope="module")
def dense_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("dense")
    write_dense_inputs(directory)
    return directory


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_output_matches_its_golden_digest(argv, dense_dir, monkeypatch):
    if stack() != STACK:
        pytest.skip(f"digests were made under {STACK}, this stack is {stack()}")
    monkeypatch.chdir(dense_dir)
    assert digest(argv) == DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("argv", [a for a in golden_argvs() if a[0] in ("sweep", "search")], ids=" ".join)
def test_sweeps_and_searches_print_the_same_bytes_in_chunks_of_64(argv, monkeypatch):
    # A budget of no matrix entries leaves every chunk at its floor of
    # _CHUNK = 64 trials, so the digests also cover runs of several chunks.
    if stack() != STACK:
        pytest.skip(f"digests were made under {STACK}, this stack is {stack()}")
    monkeypatch.setattr(extremal, "_CHUNK_ENTRIES", 0)
    assert digest(argv) == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    print(stack())
    with tempfile.TemporaryDirectory() as directory:
        write_dense_inputs(Path(directory))
        os.chdir(directory)
        for argv in golden_argvs():
            key, value = " ".join(argv), digest(argv)
            moved = "  # moved" if DIGESTS.get(key) != value else ""
            print(f'    "{key}":\n        "{value}",{moved}')
