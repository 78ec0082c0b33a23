"""Run the complete benchmark pipeline through the command-line interface.

By default this uses a reduced problem size so it finishes in about a
second; pass --full for the reference configuration (n=500, 5000 steps,
r in {10, 20}), which takes about 5 s on a 2-core x86 machine and
reproduces the summary table of the benchmark.
"""

import sys
import tempfile

from hamrom.cli import main

full = "--full" in sys.argv[1:]
out = tempfile.mkdtemp(prefix="hamrom-demo-")

argv = ["reproduce", "--out", out]
if not full:
    argv += ["--n", "100", "--t-final", "10", "--stride", "20", "--r", "5,8"]

print(f"writing artifacts to {out}\n")
code = main(argv)
print(f"\nexit code: {code}")
print(f"inspect {out}/reproduce.json and {out}/table.txt for the consolidated report")
