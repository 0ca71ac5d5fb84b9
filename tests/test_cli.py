import os
import subprocess
import sys
from pathlib import Path

import pytest

from walkcover import cli, tours
from walkcover.cli import CHECKS, VERIFY_CHECKS, build_parser, main
from walkcover.closedform import cover_bounds
from walkcover.estimate import CSV_HEADER, estimate, format_number, render_csv, verify
from walkcover.generators import from_spec
from walkcover.netmodel import Orientation, parse_network_text, serialize_network
from walkcover.walker import DirectedCoverReturn, TimingModel

from support import unsamplable_networks


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resist_text(capsys):
    code, out, _ = run_cli(capsys, ["resist", "--gen", "triangle", "--pair", "0", "1", "--format", "text"])
    assert code == 0
    assert out == "0.666667\n"


def test_resist_csv(capsys):
    code, out, _ = run_cli(capsys, ["resist", "--gen", "triangle", "--pair", "0", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("resist(x=0;y=1),")
    assert ",0.666667," in lines[1]


def test_gen_then_load_round_trip(tmp_path, capsys):
    netfile = tmp_path / "tri.net"
    code, out, _ = run_cli(capsys, ["gen", "--gen", "triangle", "--out", str(netfile)])
    assert code == 0
    assert netfile.read_text().startswith("vertices 3\n")
    code, out, _ = run_cli(
        capsys, ["resist", "--network", str(netfile), "--pair", "0", "1", "--format", "text"]
    )
    assert code == 0 and out == "0.666667\n"


def test_commute_row_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["commute", "--gen", "parallel_pair", "--pair", "0", "1",
         "--trials", "4000", "--seed", "2", "--workers", "1"],
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "commute(x=0;y=1)"
    assert row[8] == "4" and row[9] == "equality" and row[10] == "true"


def test_cover_loop_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cover", "--gen", "loop:1", "--mode", "arc",
         "--trials", "5000", "--seed", "7", "--workers", "1"],
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "cover(arc;root=0)"
    assert row[9] == "upper_bound" and row[10] == "true"
    assert abs(float(row[4]) - 3.0) < 0.1


def test_bound_targets_are_the_closed_form_bounds(capsys):
    spec = "random:n=5,m=7,seed=2"
    edge_bound, arc_bound = cover_bounds(from_spec(spec))
    common = ["--gen", spec, "--trials", "4", "--seed", "1", "--workers", "1"]
    code, out, _ = run_cli(capsys, ["verify", "--check", "cre-bound,cra-bound"] + common)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[8] for row in rows] == [format_number(edge_bound), format_number(arc_bound)]
    code, out, _ = run_cli(capsys, ["cover", "--mode", "arc"] + common)
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[8] == format_number(arc_bound)


def test_epochs_directed_row(capsys):
    code, out, _ = run_cli(
        capsys,
        ["epochs", "--gen", "path:1,1,1", "--mode", "directed",
         "--trials", "4000", "--seed", "3", "--workers", "1"],
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "epochs(directed;root=0)"
    assert row[8] == "18" and row[10] == "true"


def test_epochs_arc_has_no_target(capsys):
    code, out, _ = run_cli(
        capsys,
        ["epochs", "--gen", "triangle", "--mode", "arc",
         "--trials", "2000", "--seed", "3", "--workers", "1"],
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[8] == "" and row[10] == ""


def test_refined_row(capsys):
    code, out, _ = run_cli(
        capsys,
        ["refined", "--gen", "triangle", "--pair", "0", "1", "--a-edges", "0",
         "--kind", "either", "--trials", "8000", "--seed", "5", "--workers", "1"],
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[9] == "equality" and row[10] == "true"
    assert row[8] == "4.5"


def test_vcover_row(capsys):
    code, out, _ = run_cli(
        capsys,
        ["vcover", "--gen", "path:1,1,1,1,1,1", "--root", "3",
         "--trials", "3000", "--seed", "2", "--workers", "1"],
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "vcover(root=3;return=false)"
    assert abs(float(row[4]) - 45.0) < 2.0


def test_verify_multiple_checks_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--gen", "parallel_pair", "--check", "cre,cra-bound,commute",
         "--pair", "0", "1", "--trials", "6000", "--seed", "1", "--workers", "1"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_estimates_each_start_and_rule_once(capsys, monkeypatch):
    """Checks of equal start and rule share one estimate, and every row is
    the row that check makes on its own, in the order asked."""
    calls = []
    estimate = cli.run_estimate
    monkeypatch.setattr(cli, "run_estimate", lambda *a, **k: calls.append(a) or estimate(*a, **k))
    shared = ["--gen", "random:n=6,m=7,seed=2", "--trials", "600", "--seed", "5",
              "--workers", "2"]
    names = ["cre", "cre-bound", "cra-bound", "cra"]
    _, out, _ = run_cli(capsys, ["verify", "--check", ",".join(names), *shared])
    assert len(calls) == 2
    alone = [run_cli(capsys, ["verify", "--check", name, *shared])[1].split("\n")[1]
             for name in names]
    assert out.split("\n")[1:-1] == alone
    assert len(calls) == 6


def test_verify_failing_check_exits_one(capsys):
    # A near-zero slack turns sampling noise into a failure.
    code, out, _ = run_cli(
        capsys,
        ["verify", "--gen", "parallel_pair", "--check", "cre",
         "--trials", "2000", "--seed", "3", "--slack", "1e-9", "--workers", "1"],
    )
    assert code == 1
    assert out.strip().split("\n")[1].endswith(",false")


def test_verify_dcover_and_epochs_checks(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--gen", "triangle", "--check", "dcover-bound,epochs-directed",
         "--trials", "4000", "--seed", "6", "--orientation", "random", "--workers", "1"],
    )
    assert code == 0


def test_file_orientation_reaches_directed_checks(tmp_path, capsys):
    """A network file's ``fwd``/``bwd`` tokens orient the directed checks:
    ``verify --check dcover-bound``, ``cover --mode directed`` and ``epochs
    --mode directed`` each report the API's estimate under the file's
    orientation, and ``--orientation random`` does not override it."""
    path = tmp_path / "oriented.net"
    path.write_text("vertices 3\nedge 0 1 1.0 fwd\nedge 1 2 2.0 bwd\nedge 2 0 1.0 bwd\n")
    net, orientation = parse_network_text(path.read_text())
    assert orientation == Orientation((0, 1, 1))
    walk = tours.construct_double_cover_walk(net, 0)
    bound = cover_bounds(net)[0]
    model = TimingModel.L_SQUARED
    common = ["--network", str(path), "--trials", "600", "--seed", "3", "--workers", "1"]
    for argv, rule, kind in (
        (["verify", "--check", "dcover-bound"], DirectedCoverReturn(0, orientation),
         "upper_bound"),
        (["cover", "--mode", "directed"], DirectedCoverReturn(0, orientation), "upper_bound"),
        (["epochs", "--mode", "directed"], tours.EpochSequence(walk, "directed", orientation),
         "equality"),
    ):
        report = estimate(net, 0, rule, model, 600, 3)
        expected = render_csv([(report, verify(report, bound, kind, 3.0))])
        assert run_cli(capsys, argv + common) == (0, expected, ""), argv
        assert run_cli(capsys, argv + common + ["--orientation", "random"])[1] == expected


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        ["verify", "--gen", "triangle", "--check", "nonsense",
         "--trials", "10", "--seed", "1"],
    )
    assert code == 2 and "unknown check" in err

    code, _, err = run_cli(
        capsys,
        ["resist", "--gen", "triangle", "--network", "also.net", "--pair", "0", "1"],
    )
    assert code == 2 and "exactly one" in err

    code, _, err = run_cli(capsys, ["resist", "--pair", "0", "1"])
    assert code == 2

    code, _, err = run_cli(
        capsys, ["commute", "--gen", "triangle", "--pair", "0", "1",
                 "--trials", "10", "--seed", "-4"]
    )
    assert code == 2 and "nonnegative" in err

    for argv in (
        ["commute", "--gen", "triangle", "--pair", "0", "1"],
        ["verify", "--gen", "triangle", "--check", "commute", "--pair", "0", "1"],
    ):
        code, _, err = run_cli(capsys, argv + ["--trials", "1", "--seed", "1"])
        assert code == 2 and "--trials must be at least 2" in err

    for argv in (
        ["commute", "--gen", "triangle", "--pair", "0", "1"],
        ["verify", "--gen", "triangle", "--check", "commute", "--pair", "0", "1"],
    ):
        for budget in ("0", "-5"):
            code, out, err = run_cli(
                capsys, argv + ["--trials", "10", "--seed", "1", "--budget", budget]
            )
            assert code == 2 and out == "" and "--budget must be at least 1" in err

    for argv in (
        ["commute", "--gen", "triangle", "--pair", "0", "1"],
        ["verify", "--gen", "triangle", "--check", "commute", "--pair", "0", "1"],
    ):
        for workers in ("0", "-3"):
            code, out, err = run_cli(
                capsys, argv + ["--trials", "10", "--seed", "1", "--workers", workers]
            )
            assert code == 2 and out == "" and "--workers must be at least 1" in err

    for argv in (
        ["commute", "--gen", "triangle", "--pair", "0", "1"],
        ["verify", "--gen", "triangle", "--check", "commute", "--pair", "0", "1"],
    ):
        for slack in ("-1", "nan", "inf"):
            code, out, err = run_cli(
                capsys, argv + ["--trials", "10", "--seed", "1", "--slack", slack]
            )
            assert code == 2 and out == ""
            assert "--slack must be a finite number of at least 0" in err

    with pytest.raises(SystemExit) as exc:
        main(["commute", "--gen", "triangle", "--pair", "0", "1"])  # missing trials/seed
    assert exc.value.code == 2
    capsys.readouterr()

    for argv, message in (
        (["refined", "--pair", "0", "1", "--a-edges", "0,x", "--kind", "both"],
         "bad edge id list '0,x'"),
        (["verify", "--check", "commute"], "check 'commute' needs --pair"),
        (["verify", "--check", "refined", "--pair", "0", "1"],
         "check 'refined' needs --pair and --a-edges"),
        (["verify", "--check", ","], "--check got an empty list"),
    ):
        code, out, err = run_cli(
            capsys, argv + ["--gen", "triangle", "--trials", "10", "--seed", "1"]
        )
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_pair_outside_the_network_exits_two(capsys):
    # Exits at once: the walk toward an absent vertex is never started.
    code, out, err = run_cli(
        capsys, ["commute", "--gen", "triangle", "--pair", "0", "9",
                 "--trials", "10", "--seed", "1"]
    )
    assert code == 2 and out == "" and "vertex 9 not in 0..2" in err


@pytest.mark.parametrize("name", sorted(unsamplable_networks()))
def test_unsamplable_network_exits_two(tmp_path, capsys, name):
    net, edge = unsamplable_networks()[name]
    path = tmp_path / "net.txt"
    path.write_text(serialize_network(net))
    for argv in (["commute", "--pair", "0", "1"], ["verify", "--check", "cre"]):
        code, out, err = run_cli(capsys, argv + ["--network", str(path), "--trials", "10",
                                                 "--seed", "1", "--workers", "1"])
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {edge} out of vertex 0") and "Traceback" not in err


def test_overflowing_charge_exits_two(capsys):
    code, out, err = run_cli(capsys, ["commute", "--gen", "path:1e200", "--pair", "0", "1",
                                      "--trials", "4", "--seed", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: edge 0 out of vertex 0") and "Traceback" not in err


def test_input_file_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("edge 0 1 frog\n")
    code, _, err = run_cli(capsys, ["resist", "--network", str(bad), "--pair", "0", "1"])
    assert code == 2 and "line 1" in err
    code, _, err = run_cli(
        capsys, ["resist", "--network", str(tmp_path / "missing.net"), "--pair", "0", "1"]
    )
    assert code == 2


def test_gen_requires_spec(capsys):
    code, _, err = run_cli(capsys, ["gen"])
    assert code == 2


def test_module_entry_point():
    # The child imports the package these tests import, whether or not
    # PYTHONPATH names its source directory.
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "walkcover", "resist", "--gen", "triangle",
         "--pair", "0", "1", "--format", "text"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.666667\n"


def test_out_file_and_worker_invariance(tmp_path, capsys):
    outs = []
    for w in ("1", "3"):
        target = tmp_path / f"w{w}.csv"
        code, _, _ = run_cli(
            capsys,
            ["cover", "--gen", "parallel_pair", "--mode", "edge", "--trials", "3000",
             "--seed", "4", "--workers", w, "--out", str(target)],
        )
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, check, shared",
    [
        (["commute"], "commute", ["--pair", "0", "3"]),
        (["refined"], "refined", ["--pair", "0", "1", "--a-edges", "0", "--kind", "both"]),
        (["cover", "--mode", "edge"], "cre-bound", ["--root", "2"]),
        (["cover", "--mode", "arc"], "cra-bound", []),
        (["cover", "--mode", "directed"], "dcover-bound", ["--orientation", "random"]),
        (["epochs", "--mode", "directed"], "epochs-directed", ["--orientation", "random"]),
    ],
)
def test_command_rows_equal_their_verify_rows(capsys, command, check, shared):
    spec = "triangle" if check == "refined" else "random:n=5,m=7,seed=2"
    common = ["--gen", spec, "--trials", "300", "--seed", "4", "--workers", "1"] + shared
    _, out, _ = run_cli(capsys, command + common)
    _, verified, _ = run_cli(capsys, ["verify", "--check", check] + common)
    assert out.count("\n") == 2 and out == verified


def test_verify_lists_exactly_the_check_table(capsys, monkeypatch):
    assert VERIFY_CHECKS == tuple(CHECKS) == (
        "commute", "refined", "cre", "cra", "vcover",
        "cre-bound", "cra-bound", "dcover-bound", "epochs-directed",
    )
    monkeypatch.setenv("COLUMNS", "250")  # keep argparse from wrapping the list
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "checks: " + ", ".join(CHECKS) in " ".join(capsys.readouterr().out.split())
    code, _, err = run_cli(
        capsys, ["verify", "--gen", "triangle", "--check", "cre,nonsense",
                 "--trials", "10", "--seed", "1"],
    )
    assert code == 2 and err.endswith(f"(known: {', '.join(CHECKS)})\n")


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    """``main`` shares one parser per process; a flag or option given to one
    call does not carry over to the next."""
    assert build_parser() is build_parser()
    base = ["vcover", "--gen", "path:1,1", "--trials", "20", "--seed", "4"]
    plain = run_cli(capsys, base)
    with_return = run_cli(capsys, [*base, "--return", "--root", "1", "--format", "text"])
    assert with_return[0] == 0 and "return=true" in with_return[1]
    assert run_cli(capsys, base) == plain
    assert "return=false" in plain[1] and "root=0" in plain[1]
