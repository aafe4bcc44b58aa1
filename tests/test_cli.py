"""Command line surface: formats, determinism, exit codes."""

import argparse
import csv
import io
import json

import pytest

from congrkit import FAIL, CheckResult, registry, sequences
from congrkit import cli as cli_module
from congrkit.exactnum import DenominatorNotInvertible
from congrkit.sequences import t_seq


def test_list_contains_required_families(cli):
    run = cli("list")
    assert run.returncode == 0
    text = run.stdout.decode()
    names = [line.split("->")[0].strip() for line in text.splitlines() if "->" in line]
    assert "thm12" in names
    assert "conj57" in names
    assert len(names) >= 25
    assert len(names) == len(set(names))


def test_seq_csv_matches_reference_values(cli):
    run = cli("seq", "R", "--max", "16", "--format", "csv")
    assert run.returncode == 0
    rows = run.stdout.decode().strip().splitlines()
    assert rows[0] == "n,value"
    assert rows[1] == "0,-1"
    assert rows[-1] == "16,11996748255"
    run = cli("seq", "S", "--max", "12", "--format", "csv")
    assert run.stdout.decode().strip().splitlines()[-1] == "12,162071863425"


def test_seq_text_and_json(cli):
    run = cli("seq", "t", "--max", "2")
    want = ["t(%d) = %d" % (n, t_seq(n)) for n in range(3)]
    assert run.stdout.decode().splitlines() == want
    run = cli("seq", "R", "--max", "4", "--format", "json")
    obj = json.loads(run.stdout)
    assert obj["values"] == ["-1", "1", "7", "25", "87"]
    assert obj["timestamp"] is None
    assert obj["config"]["command"] == "seq"


# seq's names and the defining sums they stand for, in the order seq lists them
SEQ_SUMS = {
    "R": sequences.R,
    "S": sequences.S,
    "schroder": sequences.schroder,
    "t": sequences.t_seq,
    "T": sequences.T_seq,
    "Tplus": sequences.T_plus,
    "Tminus": sequences.T_minus,
    "s": sequences.s_small,
    "Splus": sequences.S_cplus,
    "Sminus": sequences.S_cminus,
}


def test_seq_dumps_every_table_name_from_its_defining_sum(capsysbinary):
    parser = cli_module.build_parser()
    sub = argparse._SubParsersAction
    commands = next(a for a in parser._actions if isinstance(a, sub))
    name_arg = next(a for a in commands.choices["seq"]._actions if a.dest == "name")
    assert name_arg.choices == tuple(sequences.SEQUENCES) == tuple(SEQ_SUMS)
    for name, fn in SEQ_SUMS.items():
        assert cli_module.main(["seq", name, "--max", "40", "--format", "csv"]) == 0
        rows = capsysbinary.readouterr().out.decode().splitlines()
        assert rows == ["n,value"] + ["%d,%d" % (n, fn(n)) for n in range(41)]


def test_poly_outputs(cli):
    run = cli("poly", "R", "--n", "5", "--format", "json")
    assert json.loads(run.stdout)["coeffs"] == ["-1", "30", "70", "112", "90", "28"]
    run = cli("poly", "R", "--n", "2", "--format", "csv")
    assert run.stdout.decode().strip().splitlines() == [
        "power,coefficient",
        "0,-1",
        "1,6",
        "2,2",
    ]
    sm = cli("poly", "Sm", "--n", "3", "--m", "2", "--format", "json")
    plain = cli("poly", "S", "--n", "3", "--format", "json")
    assert json.loads(sm.stdout)["coeffs"] == json.loads(plain.stdout)["coeffs"]


def test_poly_flag_validation(cli):
    assert cli("poly", "Sm", "--n", "3").returncode == 2
    assert cli("poly", "R", "--n", "3", "--m", "2").returncode == 2


def test_verify_single_instance(cli):
    run = cli("verify", "thm13", "--p", "3")
    assert run.returncode == 0
    out = run.stdout.decode()
    assert "PASS" in out
    assert "summary pass=1 fail=0" in out


def test_verify_csv_row(cli):
    run = cli("verify", "thm13", "--p", "3", "--format", "csv")
    rows = run.stdout.decode().strip().splitlines()
    assert rows[0] == "family,params,status,lhs,rhs,modulus,witness,note"
    assert rows[1].startswith('thm13,"{""p"":3}",PASS')


def test_verify_rejects_bad_input(cli):
    assert cli("verify", "thm11", "--p", "9").returncode == 2
    assert cli("verify", "nosuch", "--p", "3").returncode == 2
    assert cli("verify", "thm15ii", "--n", "3").returncode == 2
    assert cli("verify").returncode == 2


@pytest.mark.parametrize(
    "args, target",
    (
        (("list",), "missing/list.txt"),
        (("seq", "R", "--max", "3"), ""),  # the directory itself
        (("verify", "thm13", "--p", "3", "--format", "json"), "missing/x.json"),
    ),
)
def test_unwritable_out_is_a_usage_error(cli, tmp_path, args, target):
    path = str(tmp_path / target) if target else str(tmp_path)
    run = cli(*args, "--out", path)
    assert run.returncode == 2
    assert run.stdout == b""
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("congrkit: error: cannot write %s: " % path)


def test_scan_bound_narrowing(cli):
    run = cli("scan", "conj54", "--max-n", "50", "--format", "json")
    obj = json.loads(run.stdout)
    assert len(obj["results"]) == 50
    assert obj["summary"] == {"pass": 50, "fail": 0, "ill_posed": 0, "inconclusive": 0}
    run = cli("scan", "conj54", "--max-p", "20", "--format", "json")
    rs = json.loads(run.stdout)["results"]
    assert [r["params"]["p"] for r in rs] == [3, 5, 7, 11, 13, 17, 19]


def test_scan_empty_result_list_gives_zero_summary(cli):
    run = cli("scan", "conj51", "--max-p", "2", "--format", "json")
    assert run.returncode == 0
    obj = json.loads(run.stdout)
    assert obj["results"] == []
    assert obj["summary"] == {"pass": 0, "fail": 0, "ill_posed": 0, "inconclusive": 0}


def test_qverify_aliases(cli):
    run = cli("qverify", "thm31", "--n", "7", "--k", "2", "--format", "json")
    first = json.loads(run.stdout)["results"][0]
    assert first["family"] == "thm31q"
    assert first["status"] == "PASS"
    assert cli("qverify", "conj58", "--m", "1", "--n", "3").returncode == 0


def test_out_file_and_stamp(cli, tmp_path):
    target = tmp_path / "report.json"
    run = cli("verify", "thm13", "--p", "3", "--format", "json", "--out", str(target))
    assert run.returncode == 0
    obj = json.loads(target.read_text())
    assert obj["timestamp"] is None
    stamped = cli("verify", "thm13", "--p", "3", "--format", "json", "--stamp")
    assert json.loads(stamped.stdout)["timestamp"] is not None


def test_worker_count_never_changes_bytes(cli):
    one = cli("verify", "thm14i", "--max-n", "40", "--jobs", "1", "--format", "json")
    three = cli("verify", "thm14i", "--max-n", "40", "--jobs", "3", "--format", "json")
    assert one.stdout == three.stdout
    assert one.returncode == three.returncode == 0
    obj = json.loads(one.stdout)
    assert "jobs" not in obj["config"]


def test_json_result_key_order(cli):
    run = cli("verify", "thm13", "--p", "3", "--format", "json")
    first = json.loads(run.stdout)["results"][0]
    assert list(first)[:3] == ["family", "params", "status"]


def test_version_flag(cli):
    run = cli("--version")
    assert run.returncode == 0
    assert b"0.1.0" in run.stdout


def _crash_thm13_at_7(monkeypatch, error):
    """Make the registered thm13 checker raise error at p = 7 (fork copies it)."""
    fam = registry.FAMILIES["thm13"]

    def check(p):
        if p == 7:
            raise error("checker broke")
        return fam.check(p)

    monkeypatch.setitem(
        registry.FAMILIES, "thm13", fam._replace(check=check)
    )


@pytest.mark.parametrize("jobs", ("1", "2"))
# DenominatorNotInvertible is what a residue of a non-invertible denominator
# raises: a crash that names the instance, never an ILL_POSED row
@pytest.mark.parametrize(
    "error", (ValueError, ZeroDivisionError, DenominatorNotInvertible)
)
def test_checker_crash_on_grid_instance_exits_3(
    monkeypatch, capsys, tmp_path, jobs, error
):
    _crash_thm13_at_7(monkeypatch, error)
    argv = ["verify", "thm13", "--max-p", "13", "--jobs", jobs, "--format", "json"]
    target = tmp_path / "report.json"
    for out_flags in ([], ["--out", str(target)]):
        assert cli_module.main(argv + out_flags) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert 'crashed on thm13 {"p":7}' in err
        assert "%s: checker broke" % error.__name__ in err
    assert not target.exists()


_WITNESS = {"claim": "prefix sum", "at": {"p": 7, "terms": [1, [2, 3]], "none": {}}}
_NOTE = 'a "quoted" note\nover two lines, caf\u00e9'


def _fail_thm13_at_7(monkeypatch):
    """Make the registered thm13 checker FAIL at p = 7 with a nested witness
    and a note that JSON and CSV must escape."""
    fam = registry.FAMILIES["thm13"]

    def check(p):
        if p == 7:
            return CheckResult(
                FAIL, lhs="1", rhs="2", modulus="49", witness=_WITNESS, note=_NOTE
            )
        return fam.check(p)

    monkeypatch.setitem(
        registry.FAMILIES, "thm13", fam._replace(check=check)
    )


@pytest.mark.parametrize("fmt", ("json", "csv", "text"))
@pytest.mark.parametrize(
    "argv, code, rows",
    (
        ("verify thm13 --max-p 13", 1, 5),  # a FAIL row among PASS rows
        ("verify thm13 --p 7", 1, 1),  # one pinned instance
        ("verify thm13 --max-p 2", 0, 0),  # no results
    ),
)
def test_report_shapes_are_identical_at_one_and_two_jobs(
    monkeypatch, tmp_path, fmt, argv, code, rows
):
    _fail_thm13_at_7(monkeypatch)
    payloads = []
    for jobs in ("1", "2"):
        target = tmp_path / ("jobs%s" % jobs)
        args = [*argv.split(), "--jobs", jobs, "--format", fmt, "--out", str(target)]
        assert cli_module.main(args) == code
        payloads.append(target.read_bytes())
    payload = payloads[0]
    assert payloads[1] == payload
    if fmt == "json":
        obj = json.loads(payload)
        assert payload == (json.dumps(obj, indent=2) + "\n").encode()
        assert len(obj["results"]) == rows
        failed = [r for r in obj["results"] if r["status"] == FAIL]
        assert [(r["witness"], r["note"]) for r in failed] == [(_WITNESS, _NOTE)] * code
    elif fmt == "csv":
        table = list(csv.reader(io.StringIO(payload.decode())))
        assert len(table) == rows + 1
        failed = [row[6:] for row in table if row[2] == FAIL]
        assert failed == [[cli_module._compact(_WITNESS), _NOTE]] * code
    else:
        text = payload.decode()
        assert text.count("witness=%s" % cli_module._compact(_WITNESS)) == code
        assert text.count("-- %s" % _NOTE) == code
        assert "summary pass=%d fail=%d" % (rows - code, code) in text


def test_pool_has_no_more_workers_than_chunks(monkeypatch, capsys):
    # a stand-in Pool records its size and maps in this process, so no
    # worker starts, whatever --jobs asks for
    import multiprocessing

    opened = []

    class InlinePool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            opened.append(len(tasks))
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    argv = ["verify", "thm11", "--max-p", "20", "--format", "json", "--jobs"]
    reports = []
    for jobs in ("1", "2", "400"):
        assert cli_module.main(argv + [jobs]) == 0
        reports.append(capsys.readouterr().out)
    # seven primes, one chunk each at both job counts: 2 workers, then 7
    assert opened == [2, 7, 7, 7]
    assert reports[1] == reports[2] == reports[0]


# Modules that a command loads only when it runs a family that needs them:
# the checker modules, the layers below them that not every checker reads,
# and the verify facade, which no command loads.
_LAZY = (
    "congrkit.displays",
    "congrkit.framework",
    "congrkit.identities",
    "congrkit.prefixes",
    "congrkit.residues",
    "congrkit.scans",
    "congrkit.kernels",
    "congrkit.polynomials",
    "congrkit.qalgebra",
    "congrkit.sequences",
    "congrkit.verify",
)
_START_UP = """
import json, os, sys
from congrkit import cli, registry

def loaded():
    watched = %r + ("dataclasses", "inspect")
    return [name for name in watched if name in sys.modules]

def run(*argv):
    stdout = sys.stdout
    with open(os.devnull, "w") as sys.stdout:
        assert cli.main(list(argv)) in (0, 1)
    sys.stdout = stdout
""" % (_LAZY,)


def test_start_up_imports_no_checker_module_or_dataclasses(python):
    # each case in a fresh interpreter: its sys.modules is the command's own
    probes = {
        "enumerate": "cli.build_parser(); registry.all_jobs()",
        "qverify": 'run("qverify", "thm31q", "--max-n", "6")',
        "thm11": 'run("verify", "thm11", "--p", "3")',
        "thm12": 'run("verify", "thm12", "--p", "3")',
        "conj51": 'run("scan", "conj51", "--max-p", "20")',
        "thm13": 'run("verify", "thm13", "--p", "3")',
        "thm14ii": 'run("verify", "thm14ii", "--p", "5")',
        # the package's sequence exports, served on first access
        "exports": "from congrkit import *\n"
        "from congrkit import sequences\n"
        "assert (R, R_poly, S, S_poly, S_m_poly) == (sequences.R, "
        "sequences.R_poly, sequences.S, sequences.S_poly, sequences.S_m_poly)",
    }
    seen = {
        case: json.loads(python(_START_UP + code + "\nprint(json.dumps(loaded()))"))
        for case, code in probes.items()
    }
    assert seen == {
        # the thm41-thm44 grids build their kernels
        "enumerate": ["congrkit.kernels"],
        "qverify": ["congrkit.polynomials", "congrkit.qalgebra"],
        "thm11": ["congrkit.residues"],
        "thm12": ["congrkit.residues"],
        "conj51": ["congrkit.residues"],
        "thm13": ["congrkit.prefixes", "congrkit.sequences"],
        "thm14ii": ["congrkit.prefixes", "congrkit.sequences"],
        "exports": ["congrkit.sequences"],
    }


def test_checker_crash_on_pinned_instance(monkeypatch, capsys):
    _crash_thm13_at_7(monkeypatch, ValueError)
    with pytest.raises(SystemExit) as stop:
        cli_module.main(["verify", "thm13", "--p", "7"])
    assert stop.value.code == 2
    assert "checker broke" in capsys.readouterr().err
    _crash_thm13_at_7(monkeypatch, ZeroDivisionError)
    assert cli_module.main(["verify", "thm13", "--p", "7"]) == 3
    assert 'crashed on thm13 {"p":7}' in capsys.readouterr().err


@pytest.mark.parametrize(
    "pins",
    (
        "conj54 --n 0",
        "conj55 --n 0",
        "conj56 --n 0",
        "remark53 --n 0",
        "conj58i --n 0 --m 2",
    ),
)
def test_scan_rejects_pinned_n_zero(capsys, pins):
    with pytest.raises(SystemExit) as stop:
        cli_module.main(["verify", *pins.split()])
    assert stop.value.code == 2
    assert "need n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("family", ("conj54", "conj55"))
def test_kind_families_reject_both_n_and_p(capsys, family):
    with pytest.raises(SystemExit) as stop:
        cli_module.main(["verify", family, "--n", "5", "--p", "13"])
    assert stop.value.code == 2
    assert "give --n or --p, not both" in capsys.readouterr().err


def test_thm15i_rejects_pinned_n_zero(capsys):
    argv = ["verify", "thm15i", "--m", "1", "--n", "0", "--variant", "odd_plain"]
    with pytest.raises(SystemExit) as stop:
        cli_module.main(argv)
    assert stop.value.code == 2
    assert "need m, n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("family", ("rec_r", "rec_r_poly", "rec_s"))
def test_recurrence_families_have_no_instance_below_the_first_window(
    capsys, family
):
    for max_n in ("0", "2"):
        assert registry.instances_for(family, {"max_n": int(max_n)}) == []
        assert cli_module.main(["verify", family, "--max-n", max_n]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "summary pass=0 fail=0 ill_posed=0 inconclusive=0"
        ]
    assert registry.instances_for(family, {"max_n": 3}) == [{"n_max": 3}]
