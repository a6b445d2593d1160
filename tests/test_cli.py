import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import diophlab
from diophlab import lattice
from diophlab.cli import emit_results, main, parse_args, selftest


def run_python(*args, timeout=120):
    """``python *args`` in a subprocess that imports the diophlab under test:
    the package's parent leads PYTHONPATH, so no install is needed."""
    path = [str(Path(diophlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


CLT_FLAGS = [
    "clt",
    "--m", "2", "--n", "1",
    "--thetas", "1,1",
    "--weights", "1/2,1/2",
    "--logT", "12",
    "--samples", "4000",
    "--seed", "42",
]


def test_parse_full_clt_flags():
    cfg = parse_args(CLT_FLAGS)
    assert cfg.subcommand == "clt"
    assert cfg.m == 2 and cfg.n == 1
    assert cfg.weights == ("1/2", "1/2")
    assert cfg.logT == 12 and cfg.samples == 4000 and cfg.seed == 42
    assert cfg.problem().m == 2


def test_negative_first_list_entry_parses_with_or_without_equals(tmp_path):
    # argparse alone read "-1,0,1" after a space as an unknown flag (exit 2)
    base = ["covariance", "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1", "--t-base", "2"]
    spaced = parse_args(base + ["--lags", "-1,0,1"])
    assert spaced == parse_args(base + ["--lags=-1,0,1"]) and spaced.lags == (-1, 0, 1)
    assert parse_args(base + ["--lags", "-1"]).lags == (-1,)
    variance = ["variance", "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1"]
    assert main(variance + ["--lags", "-2,0", "--out-dir", str(tmp_path / "spaced")]) == 0
    assert main(variance + ["--lags=-2,0", "--out-dir", str(tmp_path / "joined")]) == 0
    rows = (tmp_path / "spaced" / "results.csv").read_text()
    assert rows == (tmp_path / "joined" / "results.csv").read_text()
    assert [line.split(",")[0] for line in rows.splitlines()[2:]] == ["-2", "0"]


def test_parse_missing_n_is_usage_error():
    argv = ["clt", "--m", "2", "--thetas", "1,1", "--weights", "1/2,1/2"]
    assert main(argv) == 2


def test_parse_bad_weights_surfaces_problem_validation():
    argv = ["clt", "--m", "2", "--n", "1", "--thetas", "1,1", "--weights", "1,1"]
    assert main(argv) == 2


def test_parse_unknown_flag_is_usage_error():
    assert main(["clt", "--nonsense", "1"]) == 2


def test_config_file_merge_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(
        json.dumps(
            {
                "m": 2,
                "n": 1,
                "weights": ["1/2", "1/2"],
                "thetas": [1.0, 1.0],
                "samples": 7,
                "seed": 5,
            }
        )
    )
    cfg = parse_args(["clt", "--config", str(cfg_file), "--samples", "9"])
    assert cfg.samples == 9  # flag overrides config
    assert cfg.seed == 5  # config supplies the rest


def test_emit_results(tmp_path):
    paths = emit_results(
        {"experiment": "demo"},
        [(0, 1, 0.5), (1, 2, -0.25)],
        ("index", "Delta", "D_T"),
        str(tmp_path / "out"),
        plot="plot 'results.csv'\n",
    )
    csv_text = Path(paths["csv"]).read_text()
    assert csv_text.startswith("# schema_version=1\n")
    assert csv_text.splitlines()[1] == "index,Delta,D_T"
    summary = json.loads(Path(paths["summary"]).read_text())
    assert summary["experiment"] == "demo"
    assert Path(paths["plot"]).read_text() == "plot 'results.csv'\n"
    # without a script there is no plot.gp
    bare = emit_results({}, [(0, 1)], ("s", "block_count"), str(tmp_path / "bare"))
    assert set(bare) == {"csv", "summary"} and not (tmp_path / "bare" / "plot.gp").exists()


def test_only_clt_writes_a_plot_script(tmp_path):
    # the script bins column 3 as D_T, which only the clt results.csv holds
    clt = ["clt", *P21_FLAGS, "--logT", "4", "--samples", "10"]
    variance = ["variance", *P21_FLAGS, "--lags", "0"]
    for argv, name in ((clt, "clt"), (variance, "variance")):
        main(argv + ["--out-dir", str(tmp_path / name)])
    assert (tmp_path / "clt" / "results.csv").read_text().splitlines()[1] == "index,Delta,D_T"
    assert "bin($3, binwidth)" in (tmp_path / "clt" / "plot.gp").read_text()
    assert not (tmp_path / "variance" / "plot.gp").exists()


GOLDEN = Path(__file__).resolve().parent / "golden"
P21_FLAGS = ["--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1"]
GOLDEN_ARGV = {
    "alpha-tail": ["alpha-tail", *P21_FLAGS, "--L-grid", "2,4", "--samples", "40", "--seed", "0"],
    "covariance": [
        "covariance", *P21_FLAGS, "--logT", "6", "--t-base", "3", "--lags", "0,1,-1", "--samples", "40", "--seed", "2",
    ],
    "lln": ["lln", *P21_FLAGS, "--n-grid", "6,7,8,9", "--samples", "200", "--seed", "3"],
    # N > 8 and n = 1: the trace rows and the factor-2 diagnostic are in the bytes
    "clt": ["clt", *P21_FLAGS, "--logT", "9", "--samples", "150", "--seed", "2"],
}
# the exit code of each golden run: this clt run fails its KS and variance checks
GOLDEN_EXIT = {"alpha-tail": 0, "covariance": 0, "lln": 0, "clt": 1}


@pytest.mark.parametrize(
    "subcommand, workers",
    [("alpha-tail", "1"), ("alpha-tail", "2"), ("covariance", "1"), ("lln", "1"), ("lln", "2"), ("clt", "1")],
)
def test_experiment_files_match_recorded_bytes(tmp_path, subcommand, workers):
    # tests/golden holds the results.csv and summary.json of these argvs; a
    # moved row, summary field, float repr or worker-dependent value shows here
    argv = GOLDEN_ARGV[subcommand] + ["--workers", workers, "--out-dir", str(tmp_path)]
    assert main(argv) == GOLDEN_EXIT[subcommand]
    for name in ("results.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / subcommand / name).read_bytes(), name


@pytest.mark.parametrize("subcommand", sorted(GOLDEN_ARGV))
def test_experiment_exit_code_follows_passed(tmp_path, monkeypatch, subcommand):
    # the exit code is the result's own ``passed``, whatever its rows say;
    # the CLI looks the run up on the module at call time
    from diophlab import montecarlo

    name = "run_" + subcommand.replace("-", "_")
    run = getattr(montecarlo, name)
    for passed, code in ((False, 1), (True, 0)):
        monkeypatch.setattr(montecarlo, name, lambda cfg, passed=passed: dataclasses.replace(run(cfg), passed=passed))
        out = tmp_path / str(passed)
        assert main(GOLDEN_ARGV[subcommand] + ["--out-dir", str(out)]) == code
        assert "passed" not in json.loads((out / "summary.json").read_text())


def test_count_subcommand_emits_record(tmp_path, capsys):
    code = main(
        [
            "count",
            "--m", "1", "--n", "1",
            "--weights", "1",
            "--thetas", "0.5",
            "--logT", "3",
            "--u", "0",
            "--out-dir", str(tmp_path / "count"),
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["total"] == sum(record["per_block"])
    assert record["convention"] == "both"
    # u = 0 forces p = 0, and e^3 = 20.08..: q runs over +-{1..20}
    assert record["total"] == 40


def test_rerun_same_seed_byte_identical_csv(tmp_path):
    argv = [
        "clt",
        "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1",
        "--logT", "5", "--samples", "40", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(argv + ["--out-dir", str(out1)])
    main(argv + ["--out-dir", str(out2)])
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_cap_exceeded_exit_code(tmp_path):
    env_backup = os.environ.get("DIOPH_CAP")
    os.environ["DIOPH_CAP"] = "100"
    try:
        code = main(
            [
                "count",
                "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1",
                "--logT", "9", "--u", "0.5,0.25",
                "--out-dir", str(tmp_path),
            ]
        )
    finally:
        if env_backup is None:
            os.environ.pop("DIOPH_CAP", None)
        else:
            os.environ["DIOPH_CAP"] = env_backup
    assert code == 3


def test_theta_grid_cap_exit_code(tmp_path, monkeypatch):
    # the q-grid of logT 3 fits; the 2000 x 2000 Theta_inf grid does not
    monkeypatch.setenv("DIOPH_CAP", "10000")
    argv = [
        "covariance",
        "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1",
        "--logT", "3", "--t-base", "1", "--lags", "0,1", "--samples", "8",
        "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["lln", "--n-grid", ","],
        ["lln", "--n-grid", "0,3"],
        ["covariance", "--lags", ","],
        ["covariance", "--logT", "3", "--t-base", "0", "--lags=-1"],
        ["alpha-tail", "--L-grid", ","],
        ["variance", "--lags", ","],
    ],
)
def test_malformed_experiment_grid_is_usage_error(tmp_path, capsys, argv):
    samples = [] if argv[0] == "variance" else ["--samples", "5"]
    assert main(argv + P21_FLAGS + samples + ["--out-dir", str(tmp_path)]) == 2
    assert "unrecognized" not in capsys.readouterr().err  # refused for the grid, not for a flag
    assert not (tmp_path / "results.csv").exists()


# (subcommand, setting, value): each ended in a TypeError deep in the run,
# or in a ZeroDivisionError for the weight 1/0
WRONG_TYPES = [
    ("lln", "samples", "10"),
    ("count", "logT", "7"),
    ("count", "seed", 1.5),
    ("count", "m", "2"),
    ("clt", "workers", "2"),
    ("covariance", "lags", 3),
    ("alpha-tail", "kappa", "x"),
    ("count", "weights", ["1/0", "1/2"]),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--thetas", "nan,1", "--logT", "3"],
        ["count", "--thetas", "inf,1", "--logT", "3"],
        ["variance", "--thetas", "nan,1"],
        ["count", "--T", "inf"],
        ["alpha-tail", "--kappa", "nan"],
        ["count", "--logT", "3", "--u", "0.5"],
        ["count", "--config", "{tmp}/missing.json"],
        ["count", "--config", "{tmp}"],
        ["count", "--config", "{tmp}/list.json"],
        ["count", "--config", "{tmp}/string.json"],
        *([sub, "--config", "{tmp}/" + key + ".json"] for sub, key, _ in WRONG_TYPES),
        ["count", "--weights", "1/0,1/2"],
        ["alpha-tail", "--kappa", "-1"],
    ],
)
def test_bad_number_u_or_config_is_usage_error(tmp_path, capsys, argv):
    # the case's flags come last, so they override the problem's; a file
    # with a wrong-typed setting holds the whole problem, as a flag would
    # override the setting
    problem = {"m": 2, "n": 1, "weights": "1/2,1/2", "thetas": "1,1"}
    if argv[0] in ("lln", "clt", "covariance", "alpha-tail"):
        problem["samples"] = 5
    (tmp_path / "list.json").write_text("[1, 2]")  # valid JSON, but not an object
    (tmp_path / "string.json").write_text('"x"')
    for _, key, value in WRONG_TYPES:
        (tmp_path / f"{key}.json").write_text(json.dumps({**problem, key: value}))
    case = [a.format(tmp=tmp_path) for a in argv[1:]]
    wrong_type = Path(case[-1]).stem in {key for _, key, _ in WRONG_TYPES}
    flags = [] if wrong_type else [x for key, value in problem.items() for x in (f"--{key}", str(value))]
    out = tmp_path / "out"
    assert main(argv[:1] + flags + case + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized" not in err and "does not read" not in err  # refused for the value itself
    assert not out.exists()


def test_count_logT_overflow_is_cap_exceeded(tmp_path, capsys):
    # e^1000 overflows a float; like clt --logT 1000 and count --T 1e300 this exits 3
    argv = ["count", "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1", "--logT", "1000"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 3
    assert "overflows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_count_refuses_T_with_logT(tmp_path, capsys):
    argv = ["count", "--m", "1", "--n", "1", "--weights", "1", "--thetas", "0.5"]
    assert main(argv + ["--logT", "3", "--T", "100"]) == 2
    err = capsys.readouterr().err
    assert "--T" in err and "--logT" in err
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"logT": 3}))
    assert main(argv + ["--config", str(config), "--T", "100"]) == 2
    assert "--logT" in capsys.readouterr().err


def test_count_shell_totals_are_exact_beyond_2_53(tmp_path, capsys):
    # u = 0, theta = 1e17: shell 0 holds q = +-1, +-2 with |p| < 10^17 / q, so
    # 2 ((2 10^17 - 1) + (10^17 - 1)), which a float64 sum rounds to 6 10^17
    argv = ["count", "--m", "1", "--n", "1", "--weights", "1", "--thetas", "1e17", "--logT", "3", "--u", "0"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["per_block"][0] == 599999999999999996
    assert record["total"] == sum(record["per_block"]) == 1439095862857472748


def test_count_refuses_counts_beyond_int64(tmp_path, capsys, monkeypatch):
    # theta = 1e20: q = 1 alone counts 2 10^20 - 1 > 2^63; refused before counting
    from diophlab import counting

    monkeypatch.setattr(counting, "_form0_candidates", None)  # a count would raise TypeError
    argv = ["count", "--m", "1", "--n", "1", "--weights", "1", "--thetas", "1e20", "--logT", "3", "--u", "0"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    assert "int64" in capsys.readouterr().err


def test_alpha_tail_node_cap_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(lattice, "_ALPHA_CAP", 0)
    argv = ["alpha-tail", "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1", "--samples", "2"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 3
    assert "short-vector enumeration exceeded the node cap" in capsys.readouterr().err


def test_alpha_tail_refuses_flow_times_beyond_float_precision(tmp_path, capsys):
    # (1,3) on the default grid L = 2, 4, 8 needs s = 3, 6, 9; already (1 + 3) * 6 > 27 ln 2,
    # so the float basis of a^6 Lambda_u rounds its short vectors beyond 2^-26: no sample runs
    argv = ["alpha-tail", "--m", "1", "--n", "3", "--weights", "3", "--thetas", "1", "--samples", "5"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "L=4" in err and "s=6" in err
    assert not (tmp_path / "out").exists()


def test_alpha_tail_runs_inside_float_precision(tmp_path):
    # (1,2) at L = 2, 4 needs s = 3, 6 and (1 + 2) * 6 = 18 <= 27 ln 2
    argv = ["alpha-tail", "--m", "1", "--n", "2", "--weights", "2", "--thetas", "1", "--samples", "20"]
    code = main(argv + ["--L-grid", "2,4", "--out-dir", str(tmp_path)])
    assert code in (0, 1)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [(r["L"], r["s"]) for r in summary["rows"]] == [(2.0, 3), (4.0, 6)]


@pytest.mark.parametrize("cap", ["abc", "0", "-5", "1.5"])
def test_bad_cap_is_usage_error(tmp_path, monkeypatch, cap):
    monkeypatch.setenv("DIOPH_CAP", cap)
    code = main(
        [
            "count",
            "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1",
            "--logT", "3", "--u", "0.5,0.25",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("bad", [{"convention": "posit"}, {"norm": "l2"}, {"thetas": ["one", 1]}])
def test_bad_config_value_is_usage_error(tmp_path, bad):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"m": 2, "n": 1, "weights": ["1/2", "1/2"], "thetas": [1, 1], **bad}))
    code = main(["count", "--config", str(cfg_file), "--logT", "3", "--out-dir", str(tmp_path)])
    assert code == 2


def test_cli_import_leaves_scipy_out():
    proc = run_python("-c", "import sys, diophlab.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--logT", "3"],
        ["lln", "--n-grid", "3,4", "--samples", "5", "--workers", "1"],
        ["clt", "--logT", "4", "--samples", "5"],
        ["covariance", "--logT", "4", "--t-base", "1", "--lags", "0,1", "--samples", "5"],
        ["alpha-tail", "--L-grid", "2", "--samples", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_experiments_leave_numpy_random_out(tmp_path, argv):
    # each sample's u is drawn in Python integers; numpy.random costs ~12 ms of import
    script = "import sys; from diophlab.cli import main; main(sys.argv[1:]); print('numpy.random' in sys.modules)"
    proc = run_python("-c", script, *argv, *P21_FLAGS, "--out-dir", str(tmp_path))
    assert (tmp_path / "results.csv").exists(), proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("seed, code", [("-1", 2), ("18446744073709551616", 2), ("18446744073709551615", 0)])
def test_count_seed_must_fit_64_bits(tmp_path, capsys, seed, code):
    # a masked seed would alias: 2^64 drew the u of seed 0, and -1 the u of 2^64 - 1
    argv = ["count", *P21_FLAGS, "--logT", "3", "--seed", seed, "--out-dir", str(tmp_path)]
    assert main(argv) == code
    if code:
        assert "seed must lie in [0, 2^64)" in capsys.readouterr().err
    else:
        assert (tmp_path / "results.csv").exists()


def test_lln_single_sample_writes_valid_json(tmp_path, capsys):
    # stderr is inf at S = 1: JSON has no Infinity, so it is written as null
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert main(["lln", *P21_FLAGS, "--n-grid", "3", "--samples", "1", "--out-dir", str(tmp_path)]) == 1
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1], parse_constant=refuse)
    written = json.loads((tmp_path / "summary.json").read_text(), parse_constant=refuse)
    assert printed == written and written["rows"][0]["stderr"] is None
    assert (tmp_path / "results.csv").read_text().splitlines()[-1].split(",")[4] == "inf"


def test_every_setting_has_a_type_check():
    from diophlab import cli

    assert set(cli._SETTINGS) == {f.name for f in dataclasses.fields(cli.CliConfig)} - {"subcommand"}
    for f in cli._SETTINGS.values():
        kinds = f.metadata["kinds"]
        assert kinds and all(isinstance(k, type) for k in kinds), f.name
        assert f.metadata["only"] and set(f.metadata["only"]) <= set(cli._SUBCOMMANDS), f.name


SHARED = {"--m", "--n", "--weights", "--thetas", "--norm", "--out-dir"}
CLT = SHARED | {"--logT", "--samples", "--seed", "--workers"}
# each subcommand's flags besides --help and --config: exactly the settings it reads
FLAGS = {
    "count": SHARED | {"--logT", "--T", "--seed", "--convention", "--u"},
    "lln": SHARED | {"--samples", "--seed", "--workers", "--n-grid"},
    "clt": CLT,
    "covariance": CLT | {"--lags", "--t-base"},
    "alpha-tail": SHARED | {"--samples", "--seed", "--workers", "--L-grid", "--kappa"},
    "variance": SHARED | {"--lags"},
    "selftest": {"--fast"},
}


@pytest.mark.parametrize("subcommand, extra", FLAGS.items())
def test_help_lists_each_subcommands_flags(capsys, subcommand, extra):
    assert main([subcommand, "--help"]) == 0
    assert set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out)) == {"--help", "--config"} | extra


@pytest.mark.parametrize(
    "argv",
    [
        ["lln", *P21_FLAGS, "--logT", "14"],
        ["lln", *P21_FLAGS, "--T", "1e9"],
        ["variance", *P21_FLAGS, "--convention", "positive"],
        ["alpha-tail", *P21_FLAGS, "--convention", "positive"],
        ["alpha-tail", *P21_FLAGS, "--logT", "30"],
        ["selftest", "--seed", "9"],
        ["selftest", "--samples", "3"],
        ["selftest", "--out-dir", "g"],
        ["clt", *P21_FLAGS, "--T", "3000"],
        ["lln", *P21_FLAGS, "--convention", "positive"],
        ["clt", *P21_FLAGS, "--convention", "positive"],
        ["covariance", *P21_FLAGS, "--convention", "positive"],
    ],
)
def test_flag_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(argv) == 2


@pytest.mark.parametrize(
    "subcommand, key, value",
    [
        ("lln", "logT", 14),
        ("variance", "convention", "positive"),
        ("alpha-tail", "convention", "positive"),
        ("selftest", "m", 2),
        ("clt", "convention", "positive"),
    ],
)
def test_config_key_the_subcommand_does_not_read_is_usage_error(tmp_path, capsys, subcommand, key, value):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"m": 2, "n": 1, "weights": ["1/2", "1/2"], "thetas": [1, 1], key: value}))
    out = tmp_path / "out"
    argv = [subcommand, "--config", str(cfg_file)] + ([] if subcommand == "selftest" else ["--out-dir", str(out)])
    assert main(argv) == 2
    assert f"config keys that {subcommand} does not read" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_mpmath_out():
    # radial thresholds use the stdlib decimal module; mpmath costs 30-40 ms of import
    proc = run_python("-c", "import sys, diophlab.cli; print('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_lln_statistical_verdict_exit_code(tmp_path):
    # at S = 60 the gaps are not flat across N (band 3.13) and the means sit
    # 2.4 to 5.6 from the exact finite-T mean; both exceed 1.0, so exit 1
    code = main(
        [
            "lln",
            "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1",
            "--samples", "60", "--seed", "4",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 1


def test_clt_at_m_plus_n_2_has_no_sigma2(tmp_path, capsys):
    argv = ["clt", "--m", "1", "--n", "1", "--weights", "1", "--thetas", "0.5", "--logT", "4", "--samples", "20"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["verdict"] == "theory comparison unavailable (m = 1)"
    assert summary["sigma2_theory"] is None and summary["factor2_diagnostic"] is None


def test_clt_writes_the_constants_its_run_computed(tmp_path, capsys, monkeypatch):
    from diophlab import theory

    calls = []
    constants = theory.constants
    monkeypatch.setattr(theory, "constants", lambda problem: calls.append(problem) or constants(problem))
    argv = ["clt", *P21_FLAGS, "--logT", "4", "--samples", "10", "--out-dir", str(tmp_path)]
    main(argv)
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(calls) == 1 and summary["theory"] == dataclasses.asdict(constants(calls[0]))


def test_killed_worker_exits_3(tmp_path, monkeypatch, capsys):
    from diophlab import montecarlo

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def killed(lattice):
        if os.getpid() != parent:  # never the test process itself
            os.kill(os.getpid(), signal.SIGKILL)
        return 1.0

    monkeypatch.setattr(montecarlo, "alpha", killed)
    argv = [
        "alpha-tail",
        "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1",
        "--L-grid", "2", "--kappa", "2", "--samples", "8", "--workers", "2",
        "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 3
    assert "cap exceeded: a worker process ended abruptly" in capsys.readouterr().err


def test_variance_subcommand(tmp_path, capsys):
    code = main(
        [
            "variance",
            "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["C"] == pytest.approx(8.0)
    assert record["sigma2"] == pytest.approx(2.0 * record["C"] * record["zeta_ratio"], rel=1e-12)
    assert len(record["theta_table"]) == 4


def test_variance_at_a_huge_lag_is_zero(tmp_path, capsys):
    # e^800 overflows a float; the grid cap holds from |s| = 7, and the band p ~ e^s q is empty
    argv = ["variance", "--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1", "--lags", "800"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["theta_table"] == [[800, 0.0]]
    assert (tmp_path / "results.csv").read_text().splitlines()[2] == "800,0.0"


def test_selftest_fast_passes():
    code, checks = selftest(fast=True)
    assert code == 0
    names = [name for name, _, _ in checks]
    assert "sigma2-identity" in names and "oracle-equivalence" in names


def test_selftest_fault_injection_fails_named_check(monkeypatch):
    from diophlab import theory

    zeta = theory.zeta
    monkeypatch.setattr(theory, "zeta", lambda s: zeta(s) * 1.05)  # deliberately corrupted
    code, checks = selftest(fast=True)
    assert code == 1
    failed = {name for name, ok, _ in checks if not ok}
    assert "sigma2-identity" in failed
    assert "oracle-equivalence" not in failed


def test_package_runs_as_a_module(tmp_path):
    # python -m diophlab from a source checkout: the package's own parent on the path
    proc = run_python(
        "-m", "diophlab", "count", "--m", "1", "--n", "1", "--weights", "1",
        "--thetas", "0.5", "--logT", "3", "--u", "0", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["total"] == 40
    assert (tmp_path / "results.csv").exists()


def test_console_entry_point_runs():
    proc = run_python("-m", "diophlab.cli", "selftest", "--fast", timeout=300)
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout
