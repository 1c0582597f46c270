import json
import math
import time

import pytest

from eqfid.cli import main
from eqfid.povm import BASIS_CAP, mean_fidelity_closed
from eqfid.strategies import p_measurement, p_unified_pair


def run(args):
    return main(args)


# --- curves ---------------------------------------------------------------

def test_curves_single_row(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--n-min", "1", "--n-max", "1", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header.startswith("N,f_bar,f_eqcm,f_cnot,f_gcnot,p_measurement")
    fields = row.split(",")
    assert fields[0] == "1"
    assert float(fields[1]) == 0.75
    assert float(fields[5]) == 0.5625
    assert abs(float(fields[7]) - 0.6401650429449552) < 1e-15


def test_curves_row_count_and_line_endings(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--n-min", "1", "--n-max", "10", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().count("\n") == 11  # header + 10 rows, trailing newline
    assert len(raw.decode().splitlines()) == 11


def test_curves_csv_roundtrip_exact(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--n-min", "1", "--n-max", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    for line in lines:
        fields = line.split(",")
        n = int(fields[0])
        assert float(fields[1]) == mean_fidelity_closed(n)
        assert float(fields[5]) == p_measurement(n)
        assert float(fields[7]) == p_unified_pair(n)


def test_curves_json(tmp_path):
    out = tmp_path / "curves.json"
    assert run(
        ["curves", "--n-min", "1", "--n-max", "10", "--format", "json", "--out", str(out)]
    ) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 10
    assert rows[0]["n"] == 1
    assert rows[0]["p_measurement"] == 0.5625


def test_curves_invalid_range_exits_2(capsys):
    assert run(["curves", "--n-min", "5", "--n-max", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_curves_unwritable_path_exits_3():
    assert run(
        ["curves", "--n-min", "1", "--n-max", "2", "--out", "/nonexistent/dir/x.csv"]
    ) == 3


def test_curves_gnuplot_script(tmp_path):
    out = tmp_path / "fig.csv"
    assert run(
        ["curves", "--n-min", "1", "--n-max", "5", "--out", str(out), "--gnuplot"]
    ) == 0
    script = (tmp_path / "fig.gp").read_text()
    assert "fig.csv" in script
    assert "plot" in script


def test_curves_gnuplot_requires_out():
    assert run(["curves", "--n-min", "1", "--n-max", "2", "--gnuplot"]) == 2


def test_env_out_dir_prefixes_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("EQFID_OUT_DIR", str(tmp_path))
    assert run(["curves", "--n-min", "1", "--n-max", "1", "--out", "sub.csv"]) == 0
    assert (tmp_path / "sub.csv").exists()


# --- simulate ---------------------------------------------------------------

def test_simulate_reports_and_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = [
        "simulate",
        "--strategy",
        "measurement",
        "--n",
        "1",
        "--trials",
        "50000",
        "--seed",
        "42",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["config"]["phase_a"] == "uniform"
    report = payload["report"]
    assert abs(report["mean_overlap_product"] - 0.5625) < 0.01
    assert report["analytic_probability"] == 0.5625
    assert sum(report["tallies"]["ensemble_a"]) == 50000


def test_simulate_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert run(
        [
            "simulate",
            "--strategy",
            "unified-collective",
            "--n",
            "2",
            "--trials",
            "2000",
            "--seed",
            "7",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    ) == 0
    header, row = out.read_text().splitlines()
    assert header.startswith("strategy,n_copies,trials,seed,mixed_mode")
    assert row.startswith("unified-collective,2,2000,7,analytic,uniform,uniform,")


def test_simulate_fixed_phases_echoed(tmp_path):
    out = tmp_path / "r.json"
    assert run(
        [
            "simulate",
            "--strategy",
            "measurement",
            "--n",
            "1",
            "--trials",
            "10",
            "--seed",
            "1",
            "--phase-a",
            "0.5",
            "--phase-b",
            "1.5",
            "--out",
            str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["phase_a"] == 0.5
    assert payload["config"]["phase_b"] == 1.5


def test_simulate_degrees_flag(tmp_path):
    out = tmp_path / "r.json"
    assert run(
        [
            "simulate",
            "--strategy",
            "measurement",
            "--n",
            "1",
            "--trials",
            "10",
            "--seed",
            "1",
            "--phase-a",
            "90",
            "--phase-b",
            "uniform",
            "--degrees",
            "--out",
            str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["config"]["phase_a"] - math.pi / 2) < 1e-12
    assert payload["config"]["phase_b"] == "uniform"


def test_simulate_usage_errors():
    base = ["simulate", "--strategy", "measurement", "--n", "1", "--seed", "1"]
    assert run(base + ["--trials", "0"]) == 2
    assert (
        run(
            [
                "simulate",
                "--strategy",
                "unified-collective",
                "--n",
                "13",
                "--trials",
                "10",
                "--mixed-mode",
                "full",
            ]
        )
        == 2
    )


@pytest.mark.parametrize("degrees", [[], ["--degrees"]])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_phases_exit_2(raw, degrees, capsys):
    simulate = ["simulate", "--strategy", "measurement", "--n", "1", "--trials", "10"]
    # "--flag=value" lets argparse take "-inf" as a value, not an option
    for flag in ("--phase-a", "--phase-b"):
        assert run(simulate + [f"{flag}={raw}"] + degrees) == 2
    assert run(["povm", "--n", "1", f"--phase={raw}"] + degrees) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("phase must be finite") == 3


def test_simulate_unknown_strategy_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--strategy", "bogus", "--n", "1", "--trials", "10"])
    assert exc.value.code == 2


# --- povm -------------------------------------------------------------------

def test_povm_basis_phase(capsys):
    assert run(["povm", "--n", "1", "--phase", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["probabilities"][0] - 1.0) < 1e-12
    assert abs(payload["probabilities"][1]) < 1e-12
    assert payload["estimated_phases"] == [0.0, math.pi]


def test_povm_balanced_phase(capsys):
    assert run(["povm", "--n", "1", "--phase", "1.5707963268"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["probabilities"][0] - 0.5) < 1e-9
    assert abs(payload["probabilities"][1] - 0.5) < 1e-9


def test_povm_probabilities_sum_to_one(capsys):
    for n, phase in ((3, "0.77"), (8, "5.1")):
        assert run(["povm", "--n", str(n), "--phase", phase]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(sum(payload["probabilities"]) - 1.0) < 1e-10


def test_povm_degrees(capsys):
    assert run(["povm", "--n", "1", "--phase", "90", "--degrees"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["probabilities"][0] - 0.5) < 1e-12


def test_povm_csv(capsys):
    assert run(["povm", "--n", "2", "--phase", "0", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "outcome,probability,estimated_phase"
    assert len(lines) == 4


def test_povm_invalid_n_exits_2():
    assert run(["povm", "--n", "0", "--phase", "0"]) == 2


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_n_past_uint64_binomials_runs(capsys):
    # C(68, 34) > 2^64: the Dicke weights must not reach numpy as Python ints.
    assert run(["simulate", "--strategy", "measurement", "--n", "68", "--trials", "200"]) == 0
    report = _strict_json(capsys.readouterr().out)["report"]
    assert 0.0 < report["mean_overlap_product"] <= 1.0
    assert run(["povm", "--n", "68", "--phase", "0.3"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert abs(sum(payload["probabilities"]) - 1.0) < 1e-10


def test_n_at_basis_cap_runs(capsys):
    # The whole accepted range runs, past N = 1024 where S_N leaves float range.
    assert run(["povm", "--n", str(BASIS_CAP), "--phase", "0.3"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert abs(sum(payload["probabilities"]) - 1.0) < 1e-10
    for strategy in ("measurement", "unified-collective"):
        args = ["simulate", "--strategy", strategy, "--n", str(BASIS_CAP), "--trials", "200"]
        assert run(args) == 0
        report = _strict_json(capsys.readouterr().out)["report"]
        assert 0.0 < report["analytic_probability"] <= 1.0


def test_n_past_basis_cap_exits_2(capsys):
    assert run(["povm", "--n", str(BASIS_CAP + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(BASIS_CAP) in captured.err and str(BASIS_CAP + 1) in captured.err
    assert "Traceback" not in captured.err


def test_unallocatable_trial_count_exits_2(capsys):
    # 10^15 trials ask numpy for 7 PiB at once, which fails before touching memory.
    args = ["simulate", "--strategy", "measurement", "--n", "1", "--trials", "1000000000000000"]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# --- verify -------------------------------------------------------------------

def test_verify_passes(capsys):
    start = time.perf_counter()
    assert run(["verify", "--n-max", "30"]) == 0
    assert time.perf_counter() - start < 60.0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) >= 6
    assert all(l.startswith("PASS ") for l in lines)


def test_verify_invalid_n_max_exits_2():
    assert run(["verify", "--n-max", "0"]) == 2
    assert run(["verify", "--n-max", "61"]) == 2
