"""End-to-end command line checks, all through real subprocesses.

Exit code contract: 0 = ran and every check passed, 1 = ran but a check
failed, 2 = the invocation itself was rejected (usage or parameter error).
"""

import json
import subprocess
import sys

import pytest

from prodsurf.zoo import list_scenarios

CLI = [sys.executable, "-m", "prodsurf.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, cwd=cwd)


def envelope_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_zoo_list_reports_the_whole_catalog():
    env = envelope_of(run_cli("zoo-list", "--no-timestamp"))
    assert env["schema"] == 1
    assert env["command"] == "zoo-list"
    assert env["passed"] is True
    assert "generated_at" not in env
    names = [row["name"] for row in env["results"]]
    assert len(names) >= 18
    for required in ("slice_S2xR_t0.7", "example51_lorentzian_K-2",
                     "sphere_R3_homothetic", "geodesic_sphere_S3"):
        assert required in names
    catalog = {sc.name: sc.expected for sc in list_scenarios()}
    for row in env["results"]:
        assert set(row) == {"name", "ambient", "kind", "default_resolution",
                            "compact", "overridable", "description",
                            "expected"}
        assert row["expected"] == catalog[row["name"]]


def test_importing_the_cli_starts_no_thread():
    # the block pool of prodsurf.shape is created by the first batch of
    # several blocks, never at import, so the CLI cold start stays lean
    code = "import threading, prodsurf.cli; print(threading.active_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_default_output_carries_a_timestamp():
    env = envelope_of(run_cli("zoo-list"))
    assert "generated_at" in env


def test_identities_run_passes_on_a_flat_slice():
    env = envelope_of(run_cli("identities", "--scenario", "slice_T2xR_t1.2",
                              "--resolution", "16", "--no-timestamp"))
    assert env["passed"] is True
    names = {r["name"] for r in env["results"]}
    assert "gauss_scalar" in names
    assert all(r["passed"] for r in env["results"])


def test_integral_run_reports_both_sides():
    env = envelope_of(run_cli("integral", "--scenario",
                              "sphere_R3_homothetic", "--resolution", "24",
                              "--no-timestamp"))
    assert env["passed"] is True
    by_name = {r["formula"]: r for r in env["results"]}
    rep = by_name["integral_formula"]
    assert rep["lhs"] == pytest.approx(8 * 3.141592653589793, rel=1e-6)
    assert rep["passed"] is True


_COUNT_FRAMES = """
import sys
from prodsurf import calculus, cli
calls = []
frame_at = calculus.frame_at
calculus.frame_at = lambda *args: calls.append(1) or frame_at(*args)
status = cli.main(sys.argv[1:])
print(status, len(calls), file=sys.stderr)
"""


def test_integral_computes_the_frame_once():
    # graph_T2xR_wave04 has all three balance laws; they share one bundle
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_FRAMES, "integral", "--scenario",
         "graph_T2xR_wave04", "--resolution", "16", "--no-timestamp"],
        capture_output=True, text=True)
    formulas = [r["formula"] for r in json.loads(proc.stdout)["results"]]
    assert formulas == ["integral_formula", "product_integral",
                        "einstein_integral"]
    assert proc.stderr.split()[-2:] == ["0", "1"]


def test_solve_radial_csv_has_contract_header():
    proc = run_cli("solve-radial", "--epsilon", "-1", "--K", "-2.0",
                   "--x0-max", "3.0", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "x0,f,f_prime"
    assert len(lines) > 100


def test_solve_radial_scenario_mode():
    env = envelope_of(run_cli("solve-radial", "--scenario",
                              "example51_lorentzian_K-2", "--no-timestamp"))
    assert env["passed"] is True
    summary, match = env["results"]
    assert summary["epsilon"] == -1
    assert summary["K"] == -2.0
    assert match["name"] == "radial_closed_form_match"
    assert match["passed"] is True


def test_harness_routes_graphs_and_radial_scenarios():
    env = envelope_of(run_cli("harness", "--scenario", "graph_S2xR_cos03",
                              "--resolution", "16", "--no-timestamp"))
    assert env["results"][0]["kind"] == "graph"
    assert env["passed"] is True

    env = envelope_of(run_cli("harness", "--scenario",
                              "example51_lorentzian_K-2",
                              "--resolution", "16", "--no-timestamp"))
    assert env["results"][0]["sampled_max"] < 0.5
    assert env["passed"] is True


def test_no_timestamp_outputs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "sub" / "b.json"
    out_b.parent.mkdir()
    args = ("identities", "--scenario", "slice_T2xR_t1.2",
            "--resolution", "16", "--no-timestamp")
    assert run_cli(*args, "--out", str(out_a)).returncode == 0
    assert run_cli(*args, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "identities",
        "scenario": "slice_T2xR_t1.2",
        "overrides": {"resolution": 16, "refine": 0},
    }))
    env = envelope_of(run_cli("--config", str(cfg), "identities",
                              "--resolution", "24", "--no-timestamp"))
    assert env["config"]["overrides"]["resolution"] == 24
    assert {r["resolution"] for r in env["results"]} == {24}


def test_failing_tolerance_gives_exit_one(tmp_path):
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({
        "command": "solve-radial",
        "overrides": {"epsilon": -1, "K": -2.0, "tolerance_scale": 1e-6},
    }))
    proc = run_cli("--config", str(cfg), "solve-radial", "--no-timestamp")
    assert proc.returncode == 1, proc.stderr
    env = json.loads(proc.stdout)
    assert env["passed"] is False
    match = env["results"][1]
    assert match["passed"] is False
    assert match["tolerance"] == pytest.approx(1e-12)
    assert match["max_residual"] > match["tolerance"]


@pytest.mark.parametrize("args", [
    ("identities", "--scenario", "not_a_scenario"),
    ("solve-radial", "--epsilon", "1", "--K", "0.5"),
    ("identities",),
    ("identities", "--scenario", "slice_T2xR_t1.2", "--format", "csv"),
    ("identities", "--scenario", "slice_T2xR_t1.2", "--resolution", "4"),
    ("integral", "--scenario", "slice_H2xR_t0.5"),
    ("harness", "--scenario", "geodesic_sphere_S3"),
    ("zoo-list", "--resolution", "16"),
])
def test_rejected_invocations_exit_two(args):
    proc = run_cli(*args)
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "error" in proc.stderr.lower() or "usage" in proc.stderr.lower()


@pytest.mark.parametrize("command, scenario, overrides, key", [
    ("identities", "sphere_R3_homothetic", '{"resolution": "abc"}', "resolution"),
    ("identities", "sphere_R3_homothetic", '{"resolution": NaN}', "resolution"),
    ("identities", "sphere_R3_homothetic", '{"resolution": 1e400}', "resolution"),
    ("identities", "sphere_R3_homothetic", '{"refine": NaN}', "refine"),
    ("identities", "sphere_R3_homothetic", '{"resolution": 257, "refine": 1}',
     "refine"),
    ("identities", "graph_S2xR_cos03", '{"amplitude": "x"}', "amplitude"),
    ("identities", "slice_T2xR_t1.2", '{"refine": false}', "refine"),
    ("identities", "slice_T2xR_t1.2", '{"t0": true}', "t0"),
    ("solve-radial", None, '{"epsilon": "x", "K": -0.5}', "epsilon"),
    ("solve-radial", None, '{"epsilon": -1.5, "K": -2.0}', "epsilon"),
])
def test_malformed_overrides_exit_two(tmp_path, command, scenario, overrides,
                                      key):
    # non-numeric (booleans too), non-finite and fractional values, and a
    # refinement past the largest resolution, are rejected before any check
    # runs; a malformed value is worded as the typed error whichever module
    # reads it, and only the refinement cap is a usage error
    cfg = tmp_path / "malformed.json"
    cfg.write_text(f'{{"command": "{command}", "scenario": '
                   f'{json.dumps(scenario)}, "overrides": {overrides}}}')
    proc = run_cli("--config", str(cfg), "--no-timestamp")
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert proc.stderr.startswith("error: ") and key in proc.stderr
    typed = overrides != '{"resolution": 257, "refine": 1}'
    assert ("OverrideOutOfRange: " in proc.stderr) == typed, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command, scenario", [
    ("identities", "slice_T2xR_t1.2"),
    ("harness", "graph_S2xR_cos03"),
])
def test_tolerance_scale_is_rejected_where_nothing_reads_it(tmp_path, command,
                                                           scenario):
    cfg = tmp_path / "scaled.json"
    cfg.write_text(json.dumps({
        "command": command,
        "scenario": scenario,
        "overrides": {"resolution": 16, "tolerance_scale": 10.0},
    }))
    proc = run_cli("--config", str(cfg), "--no-timestamp")
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "tolerance_scale" in proc.stderr


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "zoo-list", "bogus": 1}))
    proc = run_cli("--config", str(cfg), "zoo-list")
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


@pytest.mark.parametrize("key, value", [
    ("command", ["zoo-list"]),
    ("scenario", ["graph_S2xR_cos03"]),
    ("output", 5),
    ("format", {"csv": True}),
])
def test_non_string_config_value_exits_two(tmp_path, key, value):
    config = {"command": "integral", "scenario": "graph_S2xR_cos03", key: value}
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli("--config", str(cfg), "--no-timestamp")
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert proc.stderr.startswith("error: ") and repr(key) in proc.stderr
    assert proc.stdout == ""


def test_missing_command_exits_two():
    proc = run_cli()
    assert proc.returncode == 2


def test_unwritable_output_exits_two(tmp_path):
    proc = run_cli("zoo-list", "--out", str(tmp_path / "no" / "dir" / "x.json"))
    assert proc.returncode == 2


def test_downstream_closing_the_pipe_is_not_an_error():
    """`prodsurf ... | head` must not turn into a reported failure."""
    proc = subprocess.Popen(
        CLI + ["solve-radial", "--epsilon", "-1", "--K", "-2.0",
               "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    header = proc.stdout.readline()
    proc.stdout.close()  # the CSV body exceeds the pipe buffer
    rc = proc.wait()
    assert header.strip() == "x0,f,f_prime"
    assert rc == 0
    assert proc.stderr.read() == ""
    proc.stderr.close()


def test_cli_import_does_not_load_scipy():
    """The package needs numpy only; scipy's import would double cold start."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, prodsurf.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
