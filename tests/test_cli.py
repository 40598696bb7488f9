import hashlib
import json
import math
import tracemalloc

import numpy as np
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


_SWEEP = {
    "K": 2, "D": 10, "F": 1, "deltas": [0.8, 0.2], "rates": [0.4] * 10,
    "memories": [1.0, 1.0],
}


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_SWEEP))
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


@pytest.mark.parametrize("scheme", ["common", "common-separate", "degraded"])
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


_SWEEP_SIM = {
    "K": 2, "D": 2, "F": 8, "deltas": [0.8, 0.2], "rates": [1.0] * 2,
    "memories": [0.0, 0.0], "n": 1200,
}


@pytest.mark.parametrize(
    "config,argv,digest",
    [
        # past M = 4 every scheme is out of its regime and reads nan
        (_SWEEP, ["--grid", "0:0.05:5"],
         "a9d97774c57f89fa5216c05c6f9adb9b94276c261bafda782f34bcded99934a5"),
        (_SWEEP_SIM,
         ["--grid", "0:0.2:0.4", "--simulate", "--backoff", "0.9", "--trials", "4", "--seed", "1"],
         "49f47312e5caf721859070dfad7c728c1a04b3bca4a5cabff6b22b2fc89b9a76"),
    ],
    ids=["analytic", "simulate"],
)
def test_region_sweep_csv_pinned(capsys, tmp_path, config, argv, digest):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["region-sweep", "--config", str(path), "--schemes", "all"] + argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.fixture
def k3_cfg(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(
        json.dumps(
            {
                "K": 3, "D": 3, "F": 1, "deltas": [0.8, 0.5, 0.2],
                "rates": [1.0] * 3, "memories": [0.6, 0.3, 0.1],
            }
        )
    )
    return str(path)


@pytest.mark.parametrize("M", ["1e300", "1e308"])
@pytest.mark.parametrize("K0", ["3", "2"])
def test_optimize_general_rejects_a_cache_too_large_for_the_lp(capsys, k3_cfg, K0, M):
    # 1e308 overflowed a right-hand side to inf (a scipy ValueError, exit 1);
    # 1e300 left one beyond 1e20, which HiGHS reads as no bound, and the
    # unbounded LP was reported infeasible at every t
    argv = ["optimize", "--config", k3_cfg, "--mode", "general", "--K0", K0, "--M", M]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "error: M must" in err


@pytest.mark.parametrize("K0", ["3", "2"])
def test_optimize_general_solves_a_large_cache_below_the_bound(capsys, k3_cfg, K0):
    argv = ["optimize", "--config", k3_cfg, "--mode", "general", "--K0", K0, "--M", "1e19"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["rate"] > 1e18 and math.isfinite(payload["rate"])


@pytest.mark.parametrize("mode", ["phase-lp", "unequal"])
def test_optimize_lp_modes_reject_one_receivers_cache_at_highs_infinity(capsys, tmp_path, mode):
    # one receiver's rate grows with its cache, so the cap HiGHS read as none
    # left the LP unbounded, and the CLI reported it infeasible (exit 1)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(
        {"K": 1, "D": 1, "F": 1, "deltas": [0.5], "rates": [1.0], "memories": [1e300]}
    ))
    argv = ["optimize", "--config", str(path), "--mode", mode, "--M", "1e300"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "error: an LP bound or right-hand side reaches 1e+20" in err
    assert "cache size M" in err


def random_optimize_configs(count=24, seed=1701):
    """Random K = 2..5 configs: sorted channels, 2..K receivers caching
    (nonincreasing memories, sometimes equal), the rest not."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        K = 2 + i % 4
        cached = int(rng.integers(2, K + 1))
        mems = sorted(rng.uniform(0.0, 0.5 * K, cached).round(3), reverse=True)
        if rng.random() < 0.3:
            mems = [mems[0]] * cached
        D = int(rng.integers(K, 2 * K + 1))
        yield {
            "K": K, "D": D, "F": int(rng.integers(1, 3)),
            "deltas": sorted(rng.uniform(0.05, 0.95, K).round(3).tolist(), reverse=True),
            "rates": [1.0] * D, "memories": [float(m) for m in mems] + [0.0] * (K - cached),
        }


@pytest.mark.parametrize(
    "mode,digest",
    [
        ("general", "9a2136b009218f8dae786a84ff3b7ad056f5c14b5f6a87861b36b49cb0f68b62"),
        ("phase-lp", "dafd789e3d704b0ed1e0c7844f4616c22d38da98b7d8cc55d8ffaade3671cade"),
        ("unequal", "52bbe098380f19728ede2cae3b937cfb1a0fbc27bd73f1624d86d1c7d2a0bf52"),
    ],
)
def test_optimize_stdout_pinned(capfd, tmp_path, mode, digest):
    # capfd also catches anything the LP solver writes to the file descriptors
    path = tmp_path / "cfg.json"
    outs = []
    for config in random_optimize_configs():
        path.write_text(json.dumps(config))
        code = main(["optimize", "--config", str(path), "--mode", mode])
        out, err = capfd.readouterr()
        assert err == ""
        outs.append(f"{code}\n{out}")
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest


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
_K6 = {
    "K": 6, "D": 6, "F": 16, "deltas": [0.89, 0.81, 0.65, 0.34, 0.30, 0.18],
    "rates": [1.0] * 6, "memories": [3.45] * 4 + [0.0, 0.0], "n": 600,
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
        (_K6, ["--demand", "1,2,3,4,5,6", "--backoff", "0.9"],
         "e3c47dad7211f6a520a8af0bb79c2dc2cd303ad970f059a2afe2ee00fb4c8298"),
        (_JOINT, ["--scheme", "joint-2rx", "--demand", "1,2", "--backoff", "0.9"],
         "d6638c2c10f04279427a22cdb4fbab05c74eb2f8d254a2ca5ed4bb0b840ebc9c"),
    ],
    ids=["k4-1211", "k4-3332", "k6-split", "joint-2rx"],
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


@pytest.mark.parametrize("scheme", ["joint-2rx", "common-demand"])
def test_a_backoff_whose_rates_overflow_exits_two_naming_backoff(capsys, tmp_path, scheme):
    """A finite backoff times the criterion-5 (or criterion-6) rates
    overflows to inf: a usage error naming backoff, not the rate field."""
    config = dict(_JOINT)
    if scheme == "common-demand":
        config.update(D=2, rates=[4.8, 2.4], memories=[1.6, 0.0], demand_set={"kind": "common"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = ["simulate", "--config", str(path), "--scheme", scheme, "--backoff", "1e308", "--trials", "1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "error: backoff must" in err


@pytest.mark.parametrize("backoff", ["1e20", "1e100", "1e308"])
def test_a_backoff_whose_rate_highs_reads_as_infinite_exits_two_naming_backoff(capsys, sim_cfg, backoff):
    """On a config whose nominal rate is below 1.8, these backoffs leave
    the rate finite but at or above HIGHS_INF, which the slack-fit LP's
    HiGHS reads as infinite: a usage error naming backoff, not a crash."""
    argv = ["simulate", "--config", sim_cfg, "--scheme", "joint-2rx", "--backoff", backoff, "--trials", "1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "error: backoff must" in err


@pytest.mark.parametrize(
    "argv, flag, entry",
    [
        (["schedule-show", "--scheme", "joint-2rx", "--demand", "1,x"], "--demand", "x"),
        (["schedule-show", "--scheme", "joint-2rx", "--demand", "1,2.5"], "--demand", "2.5"),
        (["region-check", "--scheme", "degraded", "--rates", "1,x"], "--rates", "x"),
        (["region-check", "--scheme", "degraded", "--memories", "0.5,y"], "--memories", "y"),
        (["region-sweep", "--grid", "0:x:1"], "--grid", "x"),
        (["region-sweep", "--grid", "0::1"], "--grid", ""),
    ],
)
def test_malformed_list_flag_exits_two_naming_the_flag(capsys, sim_cfg, argv, flag, entry):
    # these used to end in a ValueError traceback and exit 1
    code, out, err = run(capsys, argv[:1] + ["--config", sim_cfg] + argv[1:])
    assert code == 2 and out == ""
    assert f"error: {flag} entries must be" in err and repr(entry) in err


@pytest.mark.parametrize("grid", ["0:1:inf", "nan:0.1:1", "0:nan:1", "-inf:1:0"])
def test_region_sweep_rejects_non_finite_grid(capsys, sweep_cfg, grid):
    # an infinite stop used to loop forever, a NaN bound to give a silent grid
    code, out, err = run(capsys, ["region-sweep", "--config", sweep_cfg, f"--grid={grid}"])
    assert code == 2 and out == ""
    assert "error: grid must" in err


@pytest.mark.parametrize("grid", ["1e16:1:2e16", "0:1e-9:1"])
def test_region_sweep_rejects_a_grid_it_cannot_bound(capsys, sweep_cfg, grid):
    # the first never advanced (1e16 + 1 == 1e16) while its list grew, the
    # second built 10^9 points; both are rejected before any point is made
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["region-sweep", "--config", sweep_cfg, f"--grid={grid}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "error: grid" in err and repr(grid) in err
    assert peak < 1 << 20


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


def test_simulate_rejects_a_decoder_system_too_large_to_hold(capsys, tmp_path):
    # common demand at n = 1e5 and F = 1: the library is small, but the one
    # phase has B = 27000 blocks over 100000 uses, so a system that reads
    # every packet would take about 320 MiB; rejected before any is drawn
    import tracemalloc

    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "K": 2, "D": 2, "F": 1, "deltas": [0.8, 0.2], "rates": [0.3, 0.15],
        "memories": [0.1, 0.0], "n": 100_000, "demand_set": {"kind": "common"},
    }))
    argv = ["simulate", "--config", str(path), "--scheme", "common-demand", "--backoff", "0.9"]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "error: n=100000 gives phase 1 a decoder system" in err
    assert peak < 64 << 20


def test_simulate_rejects_decoder_rows_too_large_to_unpack(capsys, tmp_path):
    # common demand at n = 35000 and F = 1: the packed system of all 35000
    # packets over B = 9450 blocks takes 41 MB, but its coefficient rows,
    # unpacked to a byte per block for the products, would take 331 MB;
    # rejected before any is drawn
    import tracemalloc

    path = tmp_path / "unpacked.json"
    path.write_text(json.dumps({
        "K": 2, "D": 2, "F": 1, "deltas": [0.8, 0.2], "rates": [0.3, 0.15],
        "memories": [0.1, 0.0], "n": 35_000, "demand_set": {"kind": "common"},
    }))
    argv = ["simulate", "--config", str(path), "--scheme", "common-demand", "--backoff", "0.9"]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "error: n=35000 gives phase 1 a decoder system of up to 35000 packets over 9450" in err
    assert peak < 64 << 20


@pytest.mark.parametrize("verb", ["simulate", "region-sweep"])
def test_negative_seed_exits_as_a_usage_error(capsys, sim_cfg, verb):
    """A seed that cannot be simulated is a bad input (exit 2), not an
    infeasible point (exit 1) or a traceback."""
    extra = ["--scheme", "joint-2rx", "--trials", "1"] if verb == "simulate" else [
        "--schemes", "joint-2rx", "--grid", "0.2:0.2:0.4", "--simulate", "--trials", "1"]
    code, out, err = run(capsys, [verb, "--config", sim_cfg, "--seed", "-1"] + extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "seed" in err
