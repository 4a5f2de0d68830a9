import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rsmoment import cli
from rsmoment import moments as mo
from rsmoment.cli import main


@pytest.fixture(scope="module")
def delta_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("nf") / "delta.nf"
    assert main(["make-newform", "--k", "12", "--count", "20000",
                 "--out", str(path)]) == 0
    return str(path)


def test_cli_import_loads_no_scipy():
    # scipy's special, fft and interpolate packages once took about half a
    # second of every cold start; the checker needs none of scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import rsmoment.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy_anywhere():
    # a lazy import inside a function would pass the cold-start test above
    # and move its cost into the first call
    pkg = Path(__file__).resolve().parents[1] / "src" / "rsmoment"
    found = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno) for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_kloosterman_command(capsys, tmp_path):
    rc = main(["kloosterman", "--field", "Q", "--m", "1", "--n", "1", "--c", "3",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "-1"
    csv = (tmp_path / "kloosterman.csv").read_text().splitlines()
    assert csv[0] == "field,m,n,c,value"
    assert csv[1] == "Q,1,1,3,-1"
    manifest = json.loads((tmp_path / "kloosterman.manifest.json").read_text())
    assert manifest["command"] == "kloosterman"
    assert "rsmoment" in manifest["versions"]


def test_kloosterman_c2_over_q_exit(capsys, tmp_path):
    # Q has no omega-coordinate: a nonzero --c2 must not be dropped silently
    rc = main(["kloosterman", "--field", "Q", "--m", "2", "--n", "3", "--c", "7",
               "--c2", "5", "--outdir", str(tmp_path)])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: --c2" in out.err
    assert not (tmp_path / "kloosterman.csv").exists()


def test_moment_weight_constraint_exit(capsys, tmp_path, delta_file):
    rc = main(["moment", "--g", delta_file, "--k", "12", "--outdir", str(tmp_path)])
    assert rc != 0
    assert "weight constraint k_j > l_j violated" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["0", "-2", "4"])
def test_moment_bad_twist_exit(capsys, tmp_path, delta_file, p):
    rc = main(["moment", "--g", delta_file, "--k", "16", "--p", p,
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert "error: p must be 1 or prime" in capsys.readouterr().err


def test_moment_command(capsys, tmp_path, delta_file):
    rc = main(["moment", "--g", delta_file, "--k", "16", "--p", "2",
               "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("k,p,M_direct")
    row = out[1].split(",")
    assert row[0] == "16" and row[1] == "2"


def test_scan_row_count_and_determinism(capsys, tmp_path, delta_file):
    args = ["scan", "--g", delta_file, "--k", "16:22:2", "--p", "1",
            "--outdir", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "scan_p1.csv").read_bytes()
    assert main(args) == 0
    second = (tmp_path / "scan_p1.csv").read_bytes()
    assert first == second
    lines = first.decode().strip().split("\n")
    assert len(lines) == 1 + 4  # header + k in {16,18,20,22}


def test_units_command(capsys, tmp_path):
    rc = main(["units", "--field", "Q_sqrt5", "--lam", "1.0", "--tmax", "8",
               "--outdir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "units.csv").read_text().splitlines()
    assert rows[0].startswith("field,lambda0")
    assert len(rows) == 5


def test_rhs_nf_command(capsys, tmp_path):
    rc = main(["rhs-nf", "--field", "Q_sqrt5", "--k", "20,20", "--cmax", "80",
               "--B", "30", "--tol", "1e-4", "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "certificate" in out


def test_rhs_nf_not_totally_positive_exit(capsys, tmp_path):
    rc = main(["rhs-nf", "--field", "Q_sqrt5", "--k", "20,20", "--nu", "-1",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: nu and xi must be totally positive")


def test_trace_check_command(capsys, tmp_path):
    rc = main(["trace-check", "--k", "12,16", "--outdir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "trace_check.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 4


def test_recover_command(capsys, tmp_path, delta_file):
    rc = main(["recover", "--g", delta_file, "--k", "18", "--p", "2",
               "--outdir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "recover.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "18"


@pytest.mark.parametrize("command", ["scan", "recover", "trace-check", "afe"])
def test_k_spec_naming_no_weight_exit(capsys, tmp_path, delta_file, command):
    # an empty range and a step <= 0 are refused before any weight is run
    g = [] if command == "trace-check" else ["--g", delta_file]
    for spec in ("60:14", "16:20:0", "20:16:-2"):
        assert main([command, *g, "--k", spec, "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and spec in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_command_usage(capsys):
    assert main([]) == 2


def test_config_file_roundtrip(tmp_path, capsys):
    # an @file holds one argument per line, and later flags override it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"--field=Q_sqrt5\n--outdir={tmp_path}\n")
    assert main(["kloosterman", f"@{cfg}", "--field", "Q", "--m", "2", "--n", "3",
                 "--c", "5"]) == 0
    manifest = json.loads((tmp_path / "kloosterman.manifest.json").read_text())
    assert manifest["options"]["field"] == "Q"
    # an option the command does not read is refused, even at its default
    cfg.write_text(f"--afe-tol=1e-8\n--outdir={tmp_path / 'unread'}\n")
    assert main(["kloosterman", f"@{cfg}", "--m", "2", "--n", "3", "--c", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: --afe-tol=1e-8")
    assert not (tmp_path / "unread").exists()


def test_config_file_skips_blank_and_comment_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a Q_sqrt5 sum\n\n--field=Q_sqrt5\n   \n  # outdir below\n"
                   f"--outdir={tmp_path}\n\n")
    assert main(["kloosterman", f"@{cfg}", "--m", "2", "--n", "3", "--c", "5"]) == 0, \
        capsys.readouterr().err
    manifest = json.loads((tmp_path / "kloosterman.manifest.json").read_text())
    assert manifest["options"]["field"] == "Q_sqrt5"


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("--not-a-key=1\n")
    assert main(["units", f"@{cfg}", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --not-a-key=1\n"
    assert not (tmp_path / "units.csv").exists()


@pytest.mark.parametrize("flags,config", [
    (["--contour", "-1"], None),
    ([], "--afe-tol=abc\n"),
    ([], "--g-scale=0\n"),
])
def test_bad_config_value_exit(capsys, tmp_path, flags, config):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        flags = flags + [f"@{cfg}"]
    rc = main(["afe", "--g", "x.nf"] + flags + ["--outdir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: argument --")
    assert not (tmp_path / "afe.csv").exists()


@pytest.mark.parametrize("command,key,value,via_config", [
    ("moment", "contour", "2.0", False),
    ("scan", "contour", "1.0", True),
    ("recover", "contour", "2.0", False),
    ("recover", "afe_tol", "1e-6", False),
    ("recover", "e_tol", "1e-4", True),
    ("moment", "field", "Q_sqrt5", False),
    ("scan", "field", "Q_sqrt2", True),
    ("make-newform", "field", "Q_sqrt5", False),
    ("make-newform", "outdir", "out", False),
    ("trace-check", "field", "Q_sqrt5", False),
    ("kloosterman", "g_scale", "3", False),
    ("kloosterman", "afe_tol", "1e-3", True),
    ("units", "contour", "2.0", False),
    ("rhs-nf", "e_tol", "1e-4", True),
    ("rhs", "g_scale", "0.5", False),
    ("trace-check", "afe_tol", "1e-3", False),
    ("make-newform", "e_tol", "1e-3", True),
    ("afe", "e_tol", "1e-4", False),
])
def test_unread_config_value_exit(capsys, tmp_path, monkeypatch, command, key, value,
                                  via_config):
    # an option the command does not read is refused, as a flag or from an @file
    monkeypatch.chdir(tmp_path)
    option = "--" + key.replace("_", "-")
    if via_config:
        (tmp_path / "unread.cfg").write_text(f"{option}={value}\n")
        flag = ["@unread.cfg"]
    else:
        flag = [option, value]
    args = {"moment": ["--g", "x.nf", "--k", "16"], "scan": ["--g", "x.nf"],
            "recover": ["--g", "x.nf"], "trace-check": [], "afe": ["--g", "x.nf"],
            "kloosterman": ["--m", "1", "--n", "1", "--c", "3"], "units": [],
            "rhs-nf": ["--k", "20,20"], "rhs": ["--k", "20,20"],
            "make-newform": ["--k", "12", "--out", "x.nf"]}[command]
    assert main([command] + args + flag) == 2
    err = capsys.readouterr().err
    # rhs is not a command (rhs-nf is): argparse refuses the name itself
    refused = ("argument command: invalid choice: 'rhs'" if command == "rhs"
               else f"unrecognized arguments: {option}")
    assert err.startswith(f"error: {refused}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == (["unread.cfg"] if via_config else [])


def test_read_config_values_pass_the_check():
    # the options a command reads parse; one it does not read is refused
    # even at its default value
    args = cli.build_parser().parse_args(["scan", "--g", "x.nf", "--afe-tol", "1e-7",
                                          "--e-tol", "1e-5", "--g-scale", "0.5"])
    assert (args.afe_tol, args.e_tol, args.g_scale) == (1e-7, 1e-5, 0.5)
    for option, default in (("--contour", "1.0"), ("--field", "Q")):
        with pytest.raises(ValueError, match=f"unrecognized arguments: {option}"):
            cli.build_parser().parse_args(["scan", "--g", "x.nf", option, default])


def test_each_command_reads_exactly_the_options_it_declares():
    # every option is declared on the one subparser of each command that
    # reads it, so argparse refuses all others; follows ``args`` into helpers
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def reads(name):
        out = set()
        for node in ast.walk(defs[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                out.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in defs
                  and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                out |= reads(node.func.id)
        return out

    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli._COMMANDS)
    for command, parser in subparsers.choices.items():
        declared = {a.dest for a in parser._actions if a.dest != "help"}
        assert reads(cli._COMMANDS[command].__name__) == declared, command


@pytest.mark.parametrize("argv,stem", [
    (["scan", "--k", "16:20:2", "--p", "2", "--e-tol", "1e-5"], "scan_p2"),
    (["kloosterman", "--field", "Q_sqrt5", "--m", "2", "--n", "3", "--c", "7",
      "--c2", "1"], "kloosterman"),
])
def test_manifest_replays_the_run(capsys, tmp_path, delta_file, argv, stem):
    # the manifest's options alone rebuild the run, byte for byte
    if argv[0] == "scan":
        argv = argv + ["--g", delta_file]
    assert main(argv + ["--outdir", str(tmp_path / "first")]) == 0
    manifest = json.loads((tmp_path / "first" / f"{stem}.manifest.json").read_text())
    replay = [manifest["command"]] + [f"--{dest.replace('_', '-')}={value}"
                                      for dest, value in manifest["options"].items()]
    assert main(replay + ["--outdir", str(tmp_path / "second")]) == 0
    assert ((tmp_path / "second" / f"{stem}.csv").read_bytes()
            == (tmp_path / "first" / f"{stem}.csv").read_bytes())


@pytest.mark.parametrize("args", [
    ["units", "--field", "Q_sqrt5", "@/nonexistent/x.cfg"],
    ["moment", "--g", "/nonexistent.nf", "--k", "16"],
    ["make-newform", "--k", "12", "--count", "50", "--out", "/nonexistent/dir/x.nf"],
])
def test_missing_or_unwritable_file_exit(capsys, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "/nonexistent" in err
    assert list(tmp_path.iterdir()) == []


def test_afe_command(capsys, tmp_path, delta_file):
    rc = main(["afe", "--g", delta_file, "--k", "16", "--outdir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "afe.csv").read_text()
    assert "max spread" in text


def test_afe_checks_g_length_before_building_forms(capsys, tmp_path, monkeypatch):
    short = tmp_path / "short.nf"
    assert main(["make-newform", "--k", "12", "--count", "300", "--out", str(short)]) == 0
    requests = []
    build = cli.eigenforms
    monkeypatch.setattr(cli, "eigenforms",
                        lambda k, n: requests.append(n) or build(k, n))
    rc = main(["afe", "--g", str(short), "--k", "40", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "insufficient coefficients" in capsys.readouterr().err
    assert max(requests, default=0) <= 8


def test_moment_at_six_forms(capsys, tmp_path, delta_file):
    # dim S_76 = 6: the harmonic-weight solve probes m = 1..6
    rc = main(["moment", "--g", delta_file, "--k", "76", "--p", "2",
               "--outdir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    header, row = (tmp_path / "moment.csv").read_text().splitlines()
    rep = dict(zip(header.split(","), row.split(",")))
    assert abs(float(rep["residual"])) <= float(rep["cert_total"])


def test_make_newform_past_the_hecke_word_table_exit(capsys, tmp_path):
    rc = main(["make-newform", "--k", "72", "--count", "16385",
               "--out", str(tmp_path / "x.nf")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "S_72 has dimension 6" in err and "16384 coefficients" in err
    assert not (tmp_path / "x.nf").exists()


def test_scan_exits_3_when_a_residual_exceeds_its_certificate(capsys, tmp_path,
                                                             delta_file, monkeypatch):
    def report(g, p, k, **kw):
        return mo.MomentReport(weight=k, p=p, m_direct=0.0, m_residue=0.0, e_value=0.0,
                               lhs=float(k), identity_residual=2e-6 if k == 18 else 1e-7,
                               recovered_c=0.0, cert_total=1e-6)
    monkeypatch.setattr(mo, "moment_report", report)
    rc = main(["scan", "--g", delta_file, "--k", "16:20:2", "--outdir", str(tmp_path)])
    assert rc == 3
    assert "k = 18: identity residual 2e-06 exceeds certificate 1e-06" in \
        capsys.readouterr().err
    assert len((tmp_path / "scan_p1.csv").read_text().splitlines()) == 4


def test_afe_command_at_tight_tolerance(capsys, tmp_path, delta_file):
    # the forms are sized by the same afe_tol / 2 tail as the central values
    rc = main(["afe", "--g", delta_file, "--k", "16", "--afe-tol", "1e-10",
               "--outdir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    rows = [r.split(",") for r in (tmp_path / "afe.csv").read_text().splitlines()[1:]
            if not r.startswith("#")]
    assert len(rows) == 3
    assert all(float(r[5]) < 1e-10 for r in rows)
