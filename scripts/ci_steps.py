"""Run the CI workflow's shell steps locally: python scripts/ci_steps.py [STEP ...].

Each `run:` block of .github/workflows/tests.yml runs under bash -eo pipefail from
the repo root, RUNNER_TEMP set to a fresh temporary directory, as the CI runs it
(the CI first installs pytest and hypothesis).  One line per step: its number,
pass or FAIL, and its first line; a failing step's output follows.  Steps count
the run: blocks from 1; given numbers, only those steps run.  Exits 1 if any fails,
and 2, running none, if a number names no step or the workflow has none.
"""

import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def steps(lines: list[str]):
    """The script of each run: block, in order: its one line, or its `|` block dedented."""
    for i, line in enumerate(lines):
        if match := re.fullmatch(r"( *)(?:- )?run: (.*)", line):
            body = []
            for text in lines[i + 1:] if match[2] == "|" else []:
                if text.strip() and len(text) - len(text.lstrip()) <= len(match[1]):
                    break
                body.append(text)
            yield textwrap.dedent("\n".join(body)) if body else match[2]


def main(argv: list[str]) -> int:
    failed = 0
    workflow = (ROOT / ".github/workflows/tests.yml").read_text().splitlines()
    scripts = list(steps(workflow))
    numbers = [str(number) for number in range(1, len(scripts) + 1)]
    unknown = [arg for arg in argv if arg not in numbers]
    if unknown or not scripts:
        why = f"no step {' '.join(unknown)}; steps are 1..{len(scripts)}" if scripts else "no run: step"
        print(f"error: {why}", file=sys.stderr)
        return 2
    for number, script in enumerate(scripts, 1):
        if argv and str(number) not in argv:
            continue
        with tempfile.TemporaryDirectory() as temp:
            run = subprocess.run(["bash", "-eo", "pipefail", "-c", script], cwd=ROOT, text=True,
                                 capture_output=True, env={**os.environ, "RUNNER_TEMP": temp})
        failed += run.returncode != 0
        print(f"{number:3} {'FAIL' if run.returncode else 'pass'}  {script.splitlines()[0]}")
        print(run.stdout + run.stderr if run.returncode else "", end="", flush=True)
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
