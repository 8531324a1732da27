"""tools/run_digests.py, the bit-identity check between two checkouts, run on
this checkout: it must finish, print the same digests twice, and print the
pinned digest of the `feaslearn verify all --report` file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERIFY_ALL = "2ae42d2ec4d4ebf7014c67b9cfceb676f6bd3686e80427a532a9cc1acba2726a  verify_all/report.json"


def _digests() -> list[str]:
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "run_digests.py"), str(ROOT),
                          "--epochs", "2"], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_two_runs_print_the_same_digests_and_the_pinned_verify_report():
    first = _digests()
    assert first == _digests()
    assert VERIFY_ALL in first
