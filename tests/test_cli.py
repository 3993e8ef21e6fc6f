import json

from sipnat.cli import main


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


def test_run_invalid_scenario_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nat_a\": \"symmetric\"}")
    assert main(["run", "--scenario", str(bad)]) == 2
    assert main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
    for field in ("seed", "extra_clients"):
        for value in ("x", None, 1.5, True):
            assert main(["run", "--scenario", str(write_scenario(tmp_path, **{field: value}))]) == 2
    for field in ("nat_a", "nat_b", "expect"):
        for value in ([], ["x"], {}):
            assert main(["run", "--scenario", str(write_scenario(tmp_path, **{field: value}))]) == 2
    for field in ("udp_binding_ttl", "tcp_idle_ttl"):
        for value in (float("inf"), float("nan"), True, 0, -1, "60"):
            assert main(["run", "--scenario", str(write_scenario(tmp_path, **{field: value}))]) == 2
    bad_steps = [{"event": "idle", "seconds": value} for value in (float("inf"), float("nan"), True, -1, 86400.5, 1e12)]
    bad_steps += [{"event": "talk", "interval_ms": value} for value in (float("inf"), float("nan"), True, 0)]
    bad_steps += [{"event": "talk", "packets": value} for value in (True, -1, 65537, 70000, 5.0)]
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


def test_matrix_unknown_mode_exit_2():
    assert main(["matrix", "--modes", "warp"]) == 2


def test_matrix_packets_beyond_the_rtp_sequence_space_exit_2(capsys):
    assert main(["matrix", "--modes", "adapted", "--packets", "70000"]) == 2
    assert main(["matrix", "--modes", "adapted", "--packets", "-1"]) == 2
    assert "packets" in capsys.readouterr().err

