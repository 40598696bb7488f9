import hashlib
import json

import pytest

from cachebc.cli import main


@pytest.fixture
def common_cfg(tmp_path):
    path = tmp_path / "common.json"
    path.write_text(
        json.dumps(
            {
                "K": 2,
                "D": 2,
                "F": 1,
                "deltas": [0.8, 0.2],
                "rates": [1.0, 0.5],
                "memories": [1.1, 0.2],
                "n": 1000,
                "demand_set": {"kind": "common"},
            }
        )
    )
    return str(path)


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps(
            {
                "K": 2,
                "D": 10,
                "F": 1,
                "deltas": [0.8, 0.2],
                "rates": [0.4] * 10,
                "memories": [1.0, 1.0],
            }
        )
    )
    return str(path)


@pytest.fixture
def sim_cfg(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(
        json.dumps(
            {
                "K": 2,
                "D": 2,
                "F": 8,
                "deltas": [0.8, 0.2],
                "rates": [1.0, 1.0],
                "memories": [0.8, 0.0],
                "n": 800,
            }
        )
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_region_check_inside_with_witness(capsys, common_cfg):
    code, out, _ = run(
        capsys,
        [
            "region-check", "--config", common_cfg, "--scheme", "common",
            "--rates", "1.0,0.5", "--memories", "1.1,0.2",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inside"] is True
    assert payload["witness"][0] == pytest.approx([0.8, 0.3])


def test_region_check_outside_exit_one(capsys, common_cfg):
    code, out, _ = run(
        capsys,
        ["region-check", "--config", common_cfg, "--scheme", "common", "--memories", "1.0,0.2"],
    )
    assert code == 1
    assert json.loads(out)["inside"] is False


@pytest.mark.parametrize("scheme", ["common", "degraded"])
def test_region_check_rejects_non_finite_rates(capsys, common_cfg, scheme):
    code, out, err = run(
        capsys,
        ["region-check", "--config", common_cfg, "--scheme", scheme, "--rates", "inf,0.5"],
    )
    assert code == 2 and out == ""
    assert "rates" in err


def test_config_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, ["region-check", "--config", str(tmp_path / "nope.json"), "--scheme", "common"])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 2, "D": 1, "F": 1, "deltas": [0.2, 0.8], "rates": [1], "memories": [0, 0]}))
    code2, _, err2 = run(capsys, ["region-check", "--config", str(bad), "--scheme", "common"])
    assert code2 == 2 and "nonincreasing" in err2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"K": 2, "D": 1, "deltas": [0.8, 0.2], "rates": [1], "memories": [0, 0]}))
    code3, _, err3 = run(capsys, ["region-check", "--config", str(missing), "--scheme", "common"])
    assert code3 == 2 and "missing config key: F" in err3


def test_usage_error_exit_two(capsys, common_cfg):
    assert main(["region-check", "--config", common_cfg, "--scheme", "bogus"]) == 2
    assert main(["no-such-verb"]) == 2


def test_region_sweep_csv(capsys, sweep_cfg):
    code, out, _ = run(capsys, ["region-sweep", "--config", sweep_cfg, "--schemes", "all", "--grid", "0:0.5:5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "M,scheme,R_analytical,pe_hat,ci_lo,ci_hi,n,trials,seed"
    assert len(lines) == 1 + 11 * 3  # grid 0..5 step 0.5, three schemes


def test_optimize_general_and_phase_lp(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps(
            {
                "K": 3, "D": 3, "F": 1, "deltas": [0.8, 0.5, 0.2],
                "rates": [0.4] * 3, "memories": [0.3, 0.3, 0.0],
            }
        )
    )
    code, out, _ = run(capsys, ["optimize", "--config", str(path), "--mode", "general", "--K0", "2", "--M", "0.3"])
    assert code == 0
    assert json.loads(out)["rate"] == pytest.approx(0.4, abs=1e-9)
    code2, out2, _ = run(capsys, ["optimize", "--config", str(path), "--mode", "phase-lp", "--K0", "2", "--M", "0.3"])
    assert code2 == 0
    assert json.loads(out2)["rate"] == pytest.approx(0.25, abs=1e-9)


def test_placement_show(capsys, sim_cfg):
    code, out, _ = run(capsys, ["placement-show", "--config", sim_cfg, "--K0", "1", "--t", "1", "--M", "0.8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["receivers"][0]["receiver"] == 1
    assert payload["receivers"][1]["entries"] == []


def test_schedule_show(capsys, sim_cfg):
    code, out, _ = run(
        capsys,
        ["schedule-show", "--config", sim_cfg, "--scheme", "joint-2rx", "--demand", "1,2", "--backoff", "0.9"],
    )
    assert code == 0
    payload = json.loads(out)
    kinds = [it["kind"] for it in payload["phases"][0]["items"]]
    assert kinds == ["uncached-part", "piggyback-slice"]
    assert payload["verify_ok"] is True


_K4 = {
    "K": 4, "D": 4, "F": 16, "deltas": [0.8, 0.6, 0.4, 0.2], "rates": [1.0] * 4,
    "memories": [0.5, 0.5, 0.5, 0.0], "n": 400,
}
_JOINT = {
    "K": 2, "D": 4, "F": 16, "deltas": [0.8, 0.2], "rates": [1.0] * 4,
    "memories": [0.8, 0.0], "n": 4000,
}


@pytest.mark.parametrize(
    "config,argv,digest",
    [
        (_K4, ["--demand", "1,2,1,1", "--backoff", "0.6"],
         "be3d6a452e217505d1b90c19717a4835ce540f559202b2907e28a10ab720ed11"),
        (_K4, ["--demand", "3,3,3,2", "--backoff", "0.6"],
         "c8940e108f366c5223e64eb3e40e7c5b7b846cff0fd896aa2d0ffcd43482b5b6"),
        (_JOINT, ["--scheme", "joint-2rx", "--demand", "1,2", "--backoff", "0.9"],
         "d6638c2c10f04279427a22cdb4fbab05c74eb2f8d254a2ca5ed4bb0b840ebc9c"),
    ],
    ids=["k4-1211", "k4-3332", "joint-2rx"],
)
def test_schedule_show_stdout_pinned(capsys, tmp_path, config, argv, digest):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["schedule-show", "--config", str(path)] + argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_schedule_show_rejects_removed_flags(sim_cfg):
    base = ["schedule-show", "--config", sim_cfg, "--scheme", "joint-2rx", "--demand", "1,2"]
    assert main(base) == 0
    assert main(base + ["--seed", "1"]) == 2


@pytest.mark.parametrize(
    "argv,field",
    [
        (["placement-show", "--K0", "0", "--t", "1"], "K0"),
        (["placement-show", "--K0", "3", "--t", "1"], "K0"),  # K = 2
        (["placement-show", "--K0", "1", "--t", "1", "--M", "nan"], "M"),
        (["optimize", "--mode", "phase-lp", "--M", "inf"], "M"),
        (["optimize", "--mode", "phase-lp", "--M", "nan"], "M"),
        (["optimize", "--mode", "general", "--K0", "2", "--M", "inf"], "M"),
        (["simulate", "--scheme", "joint-2rx", "--backoff", "inf", "--trials", "1"], "backoff"),
        (["simulate", "--scheme", "joint-2rx", "--backoff", "nan", "--trials", "1"], "backoff"),
    ],
)
def test_bad_inputs_exit_two_naming_the_field(capsys, sim_cfg, argv, field):
    code, out, err = run(capsys, argv[:1] + ["--config", sim_cfg] + argv[1:])
    assert code == 2 and out == ""
    assert f"error: {field} must" in err


@pytest.mark.parametrize("grid", ["0:1:inf", "nan:0.1:1", "0:nan:1", "-inf:1:0"])
def test_region_sweep_rejects_non_finite_grid(capsys, sweep_cfg, grid):
    # an infinite stop used to loop forever, a NaN bound to give a silent grid
    code, out, err = run(capsys, ["region-sweep", "--config", sweep_cfg, f"--grid={grid}"])
    assert code == 2 and out == ""
    assert "error: grid must" in err


@pytest.mark.parametrize("scheme", ["common", "common-separate", "degraded"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_region_check_rejects_bad_tol(capsys, tmp_path, scheme, tol):
    # an infinite tol used to put (3, 3) inside every region, NaN or -1 outside
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"K": 2, "D": 2, "F": 1, "deltas": [0.5, 0.2], "rates": [1.0, 1.0], "memories": [0.1, 0.1]}
    ))
    argv = ["region-check", "--config", str(path), "--scheme", scheme, "--rates", "3,3"]
    code, out, err = run(capsys, argv + [f"--tol={tol}"])
    assert code == 2 and out == ""
    assert "error: tol must" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_simulate_rejects_demand_cap_below_one(capsys, sim_cfg, cap):
    argv = ["simulate", "--config", sim_cfg, "--scheme", "joint-2rx", "--trials", "1"]
    code, out, err = run(capsys, argv + ["--demand-cap", cap])
    assert code == 2 and out == ""
    assert "error: demand_cap must" in err


def test_simulate_json_and_byte_identical(capsys, sim_cfg):
    argv = [
        "simulate", "--config", sim_cfg, "--scheme", "joint-2rx",
        "--backoff", "0.8", "--trials", "4", "--seed", "7",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical stdout under a fixed seed
    payload = json.loads(out1)
    assert payload["pe_hat"] == 0.0
    assert "elapsed_s" not in payload  # wall clock goes to stderr


def test_simulate_rejects_removed_flags(sim_cfg):
    base = ["simulate", "--config", sim_cfg, "--scheme", "joint-2rx", "--trials", "1"]
    assert main(base + ["--margin", "2"]) == 2
    assert main(base + ["--slack", "8"]) == 2
    assert main(base + ["--threads", "2"]) == 2


def test_simulate_rejects_a_library_too_large_to_hold(capsys, tmp_path):
    # criterion-5 config at n = 4e9: the library and cache masks would take
    # 48 GB; the bound is checked before anything of that size is allocated
    import tracemalloc

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "K": 2, "D": 4, "F": 16, "deltas": [0.8, 0.2], "rates": [1.0] * 4,
        "memories": [0.8, 0.0], "n": 4_000_000_000,
    }))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["simulate", "--config", str(path), "--scheme", "joint-2rx"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "error: n=4000000000 gives a library" in err
    assert peak < 64 << 20
