"""tools/run_digests.py, the bit-identity check between two checkouts, run on
this checkout: it must finish, print the same digests twice, and print the
pinned digests of the `feaslearn verify all --report` file, of three P8
training runs (AdamW without and with weight decay) and of one two-moons fl
run (the MLP and cross-entropy path) at two epochs. MLP bytes depend on the
BLAS thread count, so the tool runs with OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1, whatever the test's own
environment holds."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERIFY_ALL = "2ae42d2ec4d4ebf7014c67b9cfceb676f6bd3686e80427a532a9cc1acba2726a  verify_all/report.json"
# Polynomial runs, whose bytes do not depend on the BLAS thread count.
P8_RUNS = [
    "4a1e351ce47f7dce6925f08840a67e93ea24c61217cf22da871a66927bba1caa  outlier_regression_erm-as_given/trajectory.csv",
    "3e21940c212cc2a648055c04e5757464e13adc426c090b02a34bd5366a466ad0  outlier_regression_erm-as_given/checkpoint.bin",
    "680af28b4c8aa3fdde086e1db81b74463b5d69e6aa43e69e090e13bd25c03c6d  outlier_regression_rfl-as_given/trajectory.csv",
    "eaf78e435576422df595dfb50b2c9ca5a54b5103131d9530bdc7cfed9387581c  outlier_regression_rfl-as_given/checkpoint.bin",
    "f8c8ad20df4f28216b734222a48f0dda58daf526300e58f535962a33b08bbe26  "
    "outlier_regression_rfl-adamw_wd_cosine/trajectory.csv",
    "4b0c7c6313382fd2f244aef6fcd74f8b1eeee9ab0cb2f8d05c69a2d460229a08  "
    "outlier_regression_rfl-adamw_wd_cosine/checkpoint.bin",
]
# An MLP run, pinned at one BLAS thread.
MLP_RUNS = [
    "4f6ba4af662868f3bc32cd33d12aba655999a9a93187ab77b938eca0f15e09c1  two_moons_fl-as_given/trajectory.csv",
    "a7abc79baa9c261aeb16b8c68df5fe963b4088158de1fdf27a7690c410643b41  two_moons_fl-as_given/checkpoint.bin",
]
ONE_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _digests() -> list[str]:
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "run_digests.py"), str(ROOT),
                          "--epochs", "2"], capture_output=True, text=True, timeout=120,
                         env={**os.environ, **ONE_THREAD})
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_two_runs_print_the_same_digests_and_the_pinned_ones():
    first = _digests()
    assert first == _digests()
    assert VERIFY_ALL in first
    assert [line for line in P8_RUNS + MLP_RUNS if line not in first] == []
