import sys
from pathlib import Path

# The tests share the benchmark's package-independent oracles
# (perfbench/reference.py): one implementation of each.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-gate verdict lines after the test run."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None)
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in lines:
            terminalreporter.write_line(line)
