"""The verdict census tool: tools/census.py runs a pytest selection in its
own process and reports each CheckResult site it reaches, with statuses."""

import json
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CENSUS = TESTS.parent / "tools" / "census.py"


def test_census_reports_the_xval15_fail_exit(interpreter):
    selection = "%s::test_xval15_fails_on_perturbed_kernel" % (TESTS / "test_verify.py")
    done = interpreter(str(CENSUS), "-q", "-p", "no:cacheprovider", selection)
    assert done.returncode == 0, done.stderr.decode()
    report = json.loads(done.stdout)
    xval = {
        site: statuses
        for site, statuses in report["sites"].items()
        if site.startswith("displays.py:") and site.endswith(" check_xval15")
    }
    assert list(xval.values()) == [["FAIL"]]
    line = int(next(iter(xval)).split()[0].split(":")[1])
    assert line not in report["unexecuted"]["displays.py"]
    assert report["unexecuted"]["cli.py"]  # the selection never runs the cli
