import json
from pathlib import Path

from sipnat import harness
from sipnat.cli import main
from sipnat.nat import NatType


def write_scenario(tmp_path, **overrides):
    data = {
        "nat_a": "symmetric",
        "nat_b": "symmetric",
        "seed": 3,
        "script": [
            {"event": "register"},
            {"event": "call", "caller": "a"},
            {"event": "talk", "packets": 5, "interval_ms": 20},
            {"event": "hangup", "caller": "a"},
        ],
    }
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_run_writes_report_and_exits_zero(tmp_path):
    scenario = write_scenario(tmp_path, expect="media_ok")
    report_path = tmp_path / "report.json"
    code = main(["run", "--scenario", str(scenario), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["outcome"] == "media_ok"
    assert report["rtp"]["a_to_b"]["delivered"] == 5


def test_run_mode_override_fails_expectation(tmp_path):
    scenario = write_scenario(tmp_path, expect="media_ok")
    code = main(["run", "--scenario", str(scenario), "--mode", "naive",
                 "--report", str(tmp_path / "r.json")])
    assert code == 1  # naive mode cannot deliver symmetric-to-symmetric media


def test_run_naive_expected_blocked_passes(tmp_path):
    scenario = write_scenario(tmp_path, mode="naive", expect="media_blocked")
    code = main(["run", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert code == 0


def test_run_prints_report_to_stdout(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main(["run", "--scenario", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["outcome"] == "media_ok"


def test_run_invalid_scenario_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nat_a\": \"symmetric\"}")
    assert main(["run", "--scenario", str(bad)]) == 2
    bad.write_text("null")  # valid JSON, but not an object
    assert main(["run", "--scenario", str(bad)]) == 2
    assert main(["run", "--scenario", str(write_scenario(tmp_path, signaling="sctp"))]) == 2
    assert main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
    for field in ("seed", "extra_clients"):
        for value in ("x", None, 1.5, True):
            assert main(["run", "--scenario", str(write_scenario(tmp_path, **{field: value}))]) == 2
    assert main(["run", "--scenario", str(write_scenario(tmp_path, extra_clients=256))]) == 2
    for field in ("nat_a", "nat_b", "expect"):
        for value in ([], ["x"], {}):
            assert main(["run", "--scenario", str(write_scenario(tmp_path, **{field: value}))]) == 2
    for field in ("udp_binding_ttl", "tcp_idle_ttl"):
        for value in (float("inf"), float("nan"), True, 0, -1, "60"):
            assert main(["run", "--scenario", str(write_scenario(tmp_path, **{field: value}))]) == 2
    bad_steps = [{"event": "idle", "seconds": value} for value in (float("inf"), float("nan"), True, -1, 86400.5, 1e12)]
    bad_steps += [{"event": "talk", "interval_ms": value} for value in (float("inf"), float("nan"), True, 0)]
    bad_steps += [{"event": "talk", "packets": value} for value in (True, -1, 65537, 70000, 5.0)]
    bad_steps.append({"event": "talk", "packets": 2, "interval_ms": 1e11})  # 2e8 s of sweeps
    # A misspelt key is refused by name, not run with its default.
    assert main(["run", "--scenario", str(write_scenario(tmp_path, udp_binding_tll=5))]) == 2
    assert "'udp_binding_tll'" in capsys.readouterr().err
    bad_steps += [
        {"event": "talk", "packet": 3},
        {"event": "talk", "packets": 3, "interval": 5},
        {"event": "idle", "seconds": 1, "second": 2},
        {"event": "call", "callee": "b"},
        {"event": "hangup", "caller": "a", "packets": 1},
        {"event": "register", "caller": "a"},
        "register",  # a script entry that is not an object
        ["event"],
    ]
    for step in bad_steps:
        script = [{"event": "register"}, {"event": "call"}, step]
        assert main(["run", "--scenario", str(write_scenario(tmp_path, script=script))]) == 2, step


def test_run_seed_is_reproducible(tmp_path):
    scenario = write_scenario(tmp_path)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["run", "--scenario", str(scenario), "--seed", "42", "--report", str(r1)])
    main(["run", "--scenario", str(scenario), "--seed", "42", "--report", str(r2)])
    assert r1.read_text() == r2.read_text()


def test_matrix_report_and_exit_code(tmp_path, capsys):
    report_path = tmp_path / "matrix.json"
    code = main(["matrix", "--modes", "adapted,naive", "--packets", "3",
                 "--report", str(report_path)])
    assert code == 0
    summary = json.loads(report_path.read_text())
    assert set(summary) == {"adapted", "naive"}
    assert len(summary["adapted"]) == 16
    out = capsys.readouterr().out
    assert "symmetric+symmetric" in out


def test_matrix_with_a_failed_assertion_exits_1_and_names_it(capsys, monkeypatch):
    expected = harness.matrix_expected_outcome

    def blocked_symmetric_pair(nat_a, nat_b, mode):
        if nat_a is nat_b is NatType.SYMMETRIC:
            return harness.Outcome.MEDIA_BLOCKED
        return expected(nat_a, nat_b, mode)

    monkeypatch.setattr(harness, "matrix_expected_outcome", blocked_symmetric_pair)
    assert main(["matrix", "--modes", "adapted", "--packets", "1"]) == 1
    out, err = capsys.readouterr()
    assert "symmetric+symmetric" in out
    assert err == "ASSERTION FAILED: adapted symmetric+symmetric: expected media_blocked, got media_ok\n"


def test_run_report_that_cannot_be_written_exit_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path, expect="media_ok")
    unwritable = tmp_path / "no-such-dir" / "report.json"
    assert main(["run", "--scenario", str(scenario), "--report", str(unwritable)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write report: ") and str(unwritable) in err and out == ""


def test_matrix_report_that_cannot_be_written_exit_2(tmp_path, capsys):
    unwritable = tmp_path / "no-such-dir" / "matrix.json"
    assert main(["matrix", "--modes", "adapted", "--packets", "1", "--report", str(unwritable)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write report: ") and str(unwritable) in err and out == ""


def refuse_to_run(scenario):
    raise AssertionError(f"ran a scenario in mode {scenario.mode!r}")


def test_matrix_unknown_mode_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(harness, "run_scenario", refuse_to_run)  # a known mode ahead of it runs neither
    for modes in ("warp", "adapted,warp"):
        assert main(["matrix", "--modes", modes]) == 2
        out, err = capsys.readouterr()
        assert err == "error: unknown mode: 'warp'\n" and out == ""


def test_matrix_empty_or_repeated_modes_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(harness, "run_scenario", refuse_to_run)
    for modes in (",", "", " , ", "adapted,adapted", "naive,adapted, naive"):
        assert main(["matrix", "--modes", modes]) == 2, modes
        out, err = capsys.readouterr()
        assert err.startswith("error: matrix needs one or more distinct modes") and out == ""


def test_matrix_packets_beyond_the_rtp_sequence_space_exit_2(capsys):
    # A talk of no packets would be media_ok even in naive mode, so 0 is refused too.
    for packets in ("70000", "-1", "0"):
        assert main(["matrix", "--modes", "adapted,naive", "--packets", packets]) == 2
        out, err = capsys.readouterr()
        assert "packets" in err and out == ""


def test_the_readme_scenario_runs_and_meets_its_expect(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = [part.split("```", 1)[0] for part in readme.split("```json\n")[1:]]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(block)
    report_path = tmp_path / "report.json"
    assert main(["run", "--scenario", str(scenario), "--report", str(report_path)]) == 0
    expect = json.loads(block)["expect"]
    assert json.loads(report_path.read_text())["outcome"] == expect == "media_ok"
