"""Run the test suite against each mutant of `mutants.MUTANTS` and report the survivors.

    python tests/run_mutants.py

For each row it copies ``src/`` to a temporary directory, applies the row,
and runs the suite with ``-x`` against the copy. A mutant survives when the
suite passes. The unmutated copy runs first and must pass. Prints one line
per mutant with the test that killed it, then the survivors and the wall
time; exits 1 if any survives.
"""
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
# far above a suite run, so only a mutant that hangs meets it
TIMEOUT_S = 900


def first_failure(path=None, old_text="", new_text=""):
    """The suite's first failure on a copy of ``src/`` with ``old_text`` in ``path``
    replaced, or None if it passes."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if path is not None:
            target = Path(tmp) / path
            text = target.read_text()
            if text.count(old_text) != 1:
                raise SystemExit(f"{path}: the mutant's text does not occur exactly once")
            target.write_text(text.replace(old_text, new_text))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-o", f"pythonpath={Path(tmp) / 'src'}", str(ROOT / "tests")]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
        if proc.returncode == 0:
            return None
        failed = [line for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return failed[0] if failed else f"pytest exit code {proc.returncode}"


def main() -> int:
    start = time.perf_counter()
    failure = first_failure()
    if failure is not None:
        print(f"the suite fails on the unmutated source ({failure}); no mutant was run")
        return 2
    survivors = []
    for path, old_text, new_text, why in MUTANTS:
        t0 = time.perf_counter()
        failure = first_failure(path, old_text, new_text)
        print(f"{'SURVIVED' if failure is None else 'killed  '} "
              f"{time.perf_counter() - t0:6.1f} s  {why}", flush=True)
        if failure is None:
            survivors.append(why)
        else:
            print(f"         by {failure}", flush=True)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived "
          f"in {time.perf_counter() - start:.0f} s")
    for why in survivors:
        print(f"  survivor: {why}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
