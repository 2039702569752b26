"""Re-run the built-in worked examples and print one canonical report.

Covers the closed-form limit family, the twisted Whitehead links at odd p
and p = 2 (closed form vs empirical cross-check), the growth-invariant
extraction, and the trefoil covers.  `make reproduce-paper` diffs this
output against expected/reproduce_paper.txt; any drift is a regression.
"""

import io
import sys
from contextlib import redirect_stdout

sys.path.insert(0, "src")

from padicres.cli import main  # noqa: E402

COMMANDS = [
    ["res", "-p", "2", "-n", "1,1", "t1*t2-2"],
    ["res", "-p", "3", "-n", "1", "t1-2"],
    ["res", "-p", "3", "-n", "1,1", "--mask", "rprime", "--verify", "1+t1*t2"],
    ["res", "-p", "2", "-n", "3", "--mask", "custom", "--mask-sets", "2,3", "1-t1"],
    ["climit", "2-t1", "--vars", "2", "-p", "7", "-K", "2", "--format", "json"],
    ["climit", "2-t1", "--vars", "1", "-p", "7", "-K", "2", "--format", "json"],
    ["climit", "1+t1*t2", "--vars", "2", "-p", "3", "-K", "2", "--mask", "rprime", "--format", "json"],
    ["climit", "t1+t2-2", "--vars", "2", "-p", "5", "-K", "2", "--format", "json"],
    ["iwasawa", "t-6", "-p", "5", "--format", "json"],
    ["iwasawa", "3*t-6", "-p", "3", "--format", "json"],
    ["linkh1", "-p", "2", "-n", "1", "--verify", "--format", "json"],
    ["linkh1", "-p", "5", "-n", "2", "--format", "json"],
    ["linkh1", "--whitehead", "2", "-p", "2", "-n", "1,1", "--verify", "--format", "json"],
    ["linkh1", "--whitehead", "1", "-p", "3", "-n", "1,1", "--verify", "--format", "json"],
    ["linkh1", "--whitehead", "1", "-p", "2", "-n", "2,2", "--format", "json"],
    ["linkh1", "--whitehead", "3", "-p", "3", "-n", "2,2", "--format", "json"],
    ["whitehead", "-k", "4", "-p", "3", "-K", "2", "--format", "json"],
    ["whitehead", "-k", "3", "-p", "5", "-K", "2", "--format", "json"],
    ["whitehead", "-k", "6", "-p", "5", "-K", "3", "--format", "json"],
    ["whitehead", "-k", "3", "-p", "2", "-K", "4", "--format", "json"],
    ["whitehead", "-k", "5", "-p", "2", "-K", "4", "--format", "json"],
    ["whitehead", "-k", "1", "-p", "2", "--format", "json"],
    ["twopart", "-k", "3", "--n-max", "3", "--format", "json"],
    ["twopart", "-k", "5", "--n-max", "3", "--format", "json"],
]


def run() -> int:
    for argv in COMMANDS:
        print("$ padicres " + " ".join(argv))
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(list(argv))
        sys.stdout.write(buffer.getvalue())
        if code != 0:
            print(f"exit code: {code}")
            return code
        print()
    return 0


if __name__ == "__main__":
    sys.exit(run())
