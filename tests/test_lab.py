"""Experiment config, ensemble runner, table persistence, CLI."""

import argparse
import ast
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bdcutoff.errors import ParameterError
from bdcutoff.lab.cli import build_parser, cli_main, load_config_file, make_config
from bdcutoff.lab.config import ExperimentConfig
from bdcutoff.lab.ensemble import (RECORD_FIELDS, record_rows,
                                   replicate_seed, run_ensemble,
                                   sampled_kernel)
from bdcutoff.lab.tableio import (SCHEMA_TAG, format_value, jsonable,
                                  parse_value, read_csv_rows, render_csv,
                                  render_json, render_table, write_table)
from bdcutoff.sampler import exact_draw, stream_fingerprint


# configuration

def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(family="cauchy")
    with pytest.raises(ParameterError):
        ExperimentConfig(n_list=())
    with pytest.raises(ParameterError):
        ExperimentConfig(reps=-1)
    with pytest.raises(ParameterError):
        ExperimentConfig(format="xml")
    with pytest.raises(ParameterError):
        ExperimentConfig(workers=0)


def test_config_defaults_and_budget():
    cfg = ExperimentConfig(n_list=[np.int64(16), 32.0])
    assert cfg.n_list == (16, 32)
    # every chain starts from an exact draw, so none burns in at any k
    assert cfg.equilibration_budget(64) == 0
    assert ExperimentConfig(k=2).equilibration_budget(64) == 0
    with pytest.raises(TypeError, match="equilibration"):
        ExperimentConfig(equilibration=7)
    assert cfg.make_dist(16).n == 16


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# ensemble defaults\n"
        "family = binomial\n"
        "n = 16,32   # alias for n_list\n"
        "probe-samples = 500\n"
        "exact-tau = yes\n"
        "timings = off\n"
        "window = none\n"
        "seed=11\n"
        "\n")
    got = load_config_file(str(path))
    assert got == {"family": "binomial", "n_list": (16, 32),
                   "probe_samples": 500, "exact_tau": True,
                   "timings": False, "window": None, "seed": 11}
    cfg = ExperimentConfig(**got)
    assert cfg.n_list == (16, 32) and cfg.exact_tau


def test_load_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("family = uniform\nbogus = 3\n")
    with pytest.raises(ParameterError, match=r"a\.cfg:2.*bogus"):
        load_config_file(str(bad_key))
    no_eq = tmp_path / "b.cfg"
    no_eq.write_text("just some text\n")
    with pytest.raises(ParameterError, match="key=value"):
        load_config_file(str(no_eq))
    bad_bool = tmp_path / "c.cfg"
    bad_bool.write_text("exact-tau = maybe\n")
    with pytest.raises(ParameterError, match="boolean"):
        load_config_file(str(bad_bool))
    retired = tmp_path / "d.cfg"
    retired.write_text("d_values = 4,8\n")
    with pytest.raises(ParameterError, match=r"d\.cfg:1.*d_values"):
        load_config_file(str(retired))
    burnin = tmp_path / "e.cfg"
    burnin.write_text("burnin = 5\n")
    with pytest.raises(ParameterError, match=r"e\.cfg:1.*burnin"):
        load_config_file(str(burnin))
    no_seed = tmp_path / "f.cfg"
    no_seed.write_text("seed = none\n")
    with pytest.raises(ParameterError, match="seed: cannot be none"):
        load_config_file(str(no_seed))


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text("seed = 5\nn = 8\nreps = 4\n")
    parser = build_parser()
    args = parser.parse_args(
        ["ensemble", "--config", str(path), "--seed", "9"])
    cfg = make_config(args)
    assert cfg.seed == 9          # flag wins
    assert cfg.n_list == (8,)     # file fills the rest
    assert cfg.reps == 4


# ensemble runner

def test_ensemble_empty():
    assert run_ensemble(ExperimentConfig(reps=0)) == []


def test_ensemble_deterministic_and_worker_invariant():
    cfg = ExperimentConfig(n_list=(8, 10), reps=3, exact_tau=True, seed=3)
    records = run_ensemble(cfg)
    assert len(records) == 6
    assert [(r.n, r.rep_id) for r in records] == [
        (8, 0), (8, 1), (8, 2), (10, 0), (10, 1), (10, 2)]
    again = run_ensemble(cfg)
    parallel = run_ensemble(ExperimentConfig(
        n_list=(8, 10), reps=3, exact_tau=True, seed=3, workers=3))
    assert records == again == parallel
    for r in records:
        assert r.seed_sub == replicate_seed(3, r.n, r.rep_id)
        assert r.seed_sub == stream_fingerprint(3, r.n, r.rep_id)
        assert not r.proxy_flag and r.error == ""
        assert r.tau_or_proxy == int(r.tau_or_proxy)  # exact path
        assert r.runtime_ms == 0.0  # timings off keeps bytes stable


def test_ensemble_records_respect_gap_bounds():
    records = run_ensemble(ExperimentConfig(n_list=(16,), reps=5, seed=14))
    for r in records:
        b = max(r.B_plus, r.B_minus)
        assert 1.0 / (4.0 * b) <= r.gap <= 2.0 / b
        assert r.cutoff_product == pytest.approx(r.gap * r.tau_or_proxy)
        assert r.proxy_flag
        assert r.max_recip_superdiag >= 1.0


def test_ensemble_keeps_failed_replicates():
    # no kernel mixes within one step; the rows survive with the error
    # recorded and NaN statistics
    records = run_ensemble(ExperimentConfig(
        n_list=(12,), reps=3, exact_tau=True, horizon=1, seed=9))
    assert len(records) == 3
    for r in records:
        assert r.error.startswith("NotMixedError")
        assert math.isnan(r.gap) and math.isnan(r.cutoff_product)
        assert r.proxy_flag


def test_record_rows_field_order():
    records = run_ensemble(ExperimentConfig(n_list=(8,), reps=1, seed=2))
    rows = record_rows(records)
    assert tuple(rows[0]) == RECORD_FIELDS
    assert rows[0]["n"] == 8 and rows[0]["family"] == "uniform"


# table persistence

def test_format_and_parse_values():
    assert format_value(True) == "True" and format_value(False) == "False"
    assert format_value(float("inf")) == "inf"
    assert format_value(float("-inf")) == "-inf"
    assert format_value(float("nan")) == "nan"
    assert format_value(0.1) == "0.1"
    assert format_value(np.float64(0.25)) == "0.25"
    assert format_value(7) == "7"
    assert parse_value("inf", float) == float("inf")
    assert parse_value("True", bool) is True
    with pytest.raises(ValueError):
        parse_value("yes", bool)


def test_csv_round_trip(tmp_path):
    fields = ("name", "x", "flag")
    rows = [{"name": "a", "x": 0.1, "flag": True},
            {"name": "b", "x": float("inf"), "flag": False},
            {"name": "c", "x": float("nan"), "flag": True}]
    text = render_csv(fields, rows)
    lines = text.splitlines()
    assert lines[0] == SCHEMA_TAG
    assert lines[1] == "name,x,flag"
    path = tmp_path / "t.csv"
    write_table(str(path), fields, rows, "csv")
    back = read_csv_rows(str(path))
    assert len(back) == 3
    assert parse_value(back[0]["x"], float) == 0.1
    assert math.isinf(parse_value(back[1]["x"], float))
    assert math.isnan(parse_value(back[2]["x"], float))
    assert parse_value(back[0]["flag"], bool) is True
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_csv_requires_schema_tag(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("name,x\na,1\n")
    with pytest.raises(ValueError, match="schema tag"):
        read_csv_rows(str(path))


def test_json_round_trip(tmp_path):
    fields = ("x", "y")
    rows = [{"x": 1.5, "y": float("nan")}, {"x": 2.0, "y": float("-inf")}]
    path = tmp_path / "t.json"
    write_table(str(path), fields, rows, "json")
    back = json.loads(path.read_text())
    assert back == [{"x": 1.5, "y": "nan"}, {"x": 2.0, "y": "-inf"}]
    with pytest.raises(ValueError):
        render_table(fields, rows, "tsv")


def test_jsonable_numpy_payloads():
    payload = {"a": np.float64(0.5), "b": np.int32(3), "c": np.bool_(True),
               "d": np.array([1.0, float("inf")]), "e": [np.float32(2.0)]}
    got = jsonable(payload)
    assert got == {"a": 0.5, "b": 3, "c": True, "d": [1.0, "inf"],
                   "e": [2.0]}
    json.dumps(got, allow_nan=False)  # nothing non-serializable remains


# command line

def run_cli(capsys, argv):
    rc = cli_main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_analyze_json(capsys):
    rc, out, _ = run_cli(capsys, ["analyze", "--n", "8", "--seed", "1",
                                  "--exact-tau"])
    assert rc == 0
    got = json.loads(out)
    assert got["n"] == 8 and not got["proxy_flag"]
    assert got["tau"] >= 1
    assert got["cutoff_product"] == pytest.approx(got["gap"] * got["tau"])
    assert got["miclo"]["lower"] <= got["gap"] <= got["miclo"]["upper"]
    assert got["lazy"] is True and got["delta"] == 0.75


def test_cli_ensemble_csv_byte_identity(tmp_path, capsys):
    base = ["ensemble", "--n", "8,10", "--reps", "2", "--seed", "3",
            "--exact-tau"]
    f1, f2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run_cli(capsys, base + ["--out", f1])[0] == 0
    assert run_cli(capsys, base + ["--out", f2, "--workers", "3"])[0] == 0
    b1, b2 = open(f1, "rb").read(), open(f2, "rb").read()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == SCHEMA_TAG
    assert lines[1] == ",".join(RECORD_FIELDS)
    assert len(lines) == 2 + 4  # tag + header + one row per replicate


def test_cli_sample_long_form(capsys):
    rc, out, _ = run_cli(capsys, ["sample", "--n", "6", "--reps", "2",
                                  "--seed", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == SCHEMA_TAG
    assert lines[1] == "n,family,rep_id,seed_sub,sample_idx,coord,value"
    assert len(lines) == 2 + 2 * 5  # one final state: 5 coords per rep
    first = lines[2].split(",")
    assert first[:3] == ["6", "uniform", "0"]
    assert 0.0 < float(first[-1]) < 1.0


def test_cli_sample_retains_trace(capsys):
    rc, out, _ = run_cli(capsys, ["sample", "--n", "6", "--reps", "1",
                                  "--seed", "4", "--steps", "6",
                                  "--thin", "3"])
    assert rc == 0
    rows = out.splitlines()[2:]
    idx = {line.split(",")[4] for line in rows}
    assert idx == {"0", "1"}  # two retained states
    assert len(rows) == 2 * 5
    # each retained state, not the final state repeated
    states = [[r.split(",")[6] for r in rows if r.split(",")[4] == i]
              for i in ("0", "1")]
    assert states[0] != states[1]


def test_cli_sample_final_states_match_sampled_kernel(capsys):
    # both are the exact draw of seed_sub with no burn-in, so each row's
    # state is the kernel that its seed_sub reproduces
    cfg = ExperimentConfig(n_list=(64,), reps=2, seed=21)
    dist = cfg.make_dist(64)
    call = ["sample", "--n", "64", "--reps", "2", "--seed", "21"]
    rc, out, _ = run_cli(capsys, call + ["--k", "1"])
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    states = []
    for rep in (0, 1):
        seed_sub, kern = sampled_kernel(cfg, 64, rep)
        got = np.array([float(r[6]) for r in rows if r[2] == str(rep)])
        assert {r[3] for r in rows if r[2] == str(rep)} == {str(seed_sub)}
        assert np.array_equal(got.view(np.uint64), kern.c.view(np.uint64))
        assert np.array_equal(got.view(np.uint64),
                              exact_draw(dist, seed_sub).view(np.uint64))
        states.append(got.tobytes())
    assert states[0] != states[1]
    # the draw runs no chain, so a block size is never read
    for k in ("2", "3"):
        rc, out, err = run_cli(capsys, call + ["--k", k])
        assert (rc, out) == (1, "")
        assert err == (f"bdcutoff: sample without --steps runs no chain, "
                       f"so --k {k} would go unread\n")


def test_cli_probe_json(tmp_path, capsys):
    path = str(tmp_path / "tail.json")
    rc, out, _ = run_cli(capsys, ["probe", "tail", "--n", "64",
                                  "--probe-samples", "2000", "--seed", "5",
                                  "--out", path, "--format", "json"])
    assert rc == 0
    got = json.loads(out)
    assert got["probe"] == "tail"
    assert got["summary"]["monotone_violations"] == 0
    rows = json.loads(Path(path).read_text())
    assert len(rows) == 3  # default grid
    assert {r["x"] for r in rows} == {5.0, 10.0, 20.0}


def test_cli_probe_levy_defaults(capsys):
    # the default window follows n and keeps 20 coordinates clear of
    # each end: min(64, (m - 40) // 2) on m = 63 coordinates
    rc, out, _ = run_cli(capsys, ["probe", "levy", "--seed", "1"])
    assert rc == 0
    got = json.loads(out)
    assert got["summary"]["window"] == 11
    assert got["summary"]["window_start"] >= 20
    assert not any("boundary" in f for f in got["flags"])
    # an explicit window keeps its fit check
    rc, _, err = run_cli(capsys, ["probe", "levy", "--seed", "1",
                                  "--window", "32"])
    assert rc == 1 and "does not fit 63 coordinates" in err


def test_cli_compare_metropolis(tmp_path, capsys):
    # replicates run through the ensemble runner, so the worker count
    # leaves stdout and the table unchanged
    outputs = []
    for workers in ("1", "2"):
        path = tmp_path / f"cmp{workers}.csv"
        rc, out, _ = run_cli(capsys, ["compare-metropolis", "--n", "16",
                                      "--reps", "3", "--seed", "6",
                                      "--workers", workers,
                                      "--out", str(path)])
        assert rc == 0
        outputs.append((out, path.read_bytes()))
    assert outputs[0] == outputs[1]
    got = json.loads(outputs[0][0])
    assert got["replicates"] == 3
    assert got["flagged"] == 0
    assert got["proxy"] is True
    assert got["metropolis"]["product_met"] > 0
    rows = read_csv_rows(str(tmp_path / "cmp1.csv"))
    assert len(rows) == 3
    assert rows[0]["flagged"] in ("True", "False")
    assert [int(r["seed_sub"]) for r in rows] == [
        replicate_seed(6, 16, rep) for rep in range(3)]


# compare-metropolis calls that exit 1 before run_ensemble, and why
COMPARE_USAGE_ERRORS = (
    (["compare-metropolis", "--n", "1024", "--alpha", "2", "--reps", "20"],
     "alpha must be in (0, 1], got 2.0"),
    (["compare-metropolis", "--n", "4", "--reps", "20"],
     "comparison statistics need n >= 5, got 4"),
)


def test_compare_usage_errors_run_no_replicate(capsys, monkeypatch):
    def no_ensemble(cfg):
        raise AssertionError("ran the ensemble")

    monkeypatch.setattr("bdcutoff.lab.cli.run_ensemble", no_ensemble)
    for command, why in COMPARE_USAGE_ERRORS:
        rc, out, err = run_cli(capsys, command)
        assert (rc, out, err) == (1, "", f"bdcutoff: {why}\n"), command


STEEP_MASS_CALLS = (
    (["analyze", "--family", "explicit", "--mass", "1e-300,1e300", "--n", "2"],
     "0 and 1"),
    (["analyze", "--family", "explicit", "--mass", "1e300,1e-300", "--n", "2"],
     "0 and 1"),
    (["ensemble", "--family", "explicit", "--mass", "1,1e200,1e-200,1",
      "--n", "4", "--reps", "1"], "1 and 2"),
    (["sample", "--family", "explicit", "--mass", "1,1e200,1e-200,1",
      "--n", "4"], "1 and 2"),
    (["probe", "contraction", "--family", "explicit", "--mass",
      "1,1e300,1e-300,1", "--n", "4", "--k", "2", "--reps", "2",
      "--coupon-runs", "2"], "1 and 2"),
)


def test_cli_refuses_steep_explicit_masses(capsys, monkeypatch):
    # a neighbour ratio past the double range exits 1 naming the pair,
    # before any law is built and with no numpy warning
    monkeypatch.setattr(ExperimentConfig, "make_dist",
                        lambda *a: pytest.fail("a law was built"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command, pair in STEEP_MASS_CALLS:
            rc, out, err = run_cli(capsys, command)
            assert rc == 1 and out == "", command
            assert f"log masses of states {pair} differ" in err, command
            assert err.startswith("bdcutoff: ") and "Error" not in err
    with pytest.raises(ParameterError, match="states 1 and 2"):
        ExperimentConfig(family="explicit", n_list=(3,),
                         mass=(1.0, 1.0, math.exp(-709.79)))


def test_cli_explicit_law_runs_with_warnings_as_errors(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, _ = run_cli(capsys, ["analyze", "--family", "explicit",
                                      "--mass", "1,2,3,4", "--n", "4",
                                      "--exact-tau", "--seed", "1"])
    assert rc == 0 and json.loads(out)["tau"] >= 1


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert run_cli(capsys, ["ensemble", "--family", "cauchy"])[0] == 1
    assert run_cli(capsys, ["probe", "bogus", "--n", "8"])[0] == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    rc, _, err = run_cli(capsys, ["ensemble", "--config", str(bad)])
    assert rc == 1 and "bogus" in err
    rc, _, err = run_cli(capsys, ["ensemble", "--config",
                                  str(tmp_path / "missing.cfg")])
    assert rc == 1
    assert run_cli(capsys, ["sample", "--burnin", "5"])[0] == 1
    # bad settings exit 1 before any output; ensemble no longer turns
    # them into NaN rows
    for command in (["probe", "marginal", "--k", "0"],
                    ["probe", "tail", "--k", "0"],
                    ["probe", "marginal", "--probe-thin", "0"],
                    ["probe", "markov", "--probe-thin", "0"],
                    ["probe", "marginal", "--n", "16",
                     "--probe-samples", "0"],
                    ["probe", "tail", "--n", "64", "--probe-samples", "0"],
                    ["probe", "markov", "--n", "64", "--probe-samples", "0"],
                    ["probe", "marginal", "--probe-samples", "-4"],
                    ["probe", "contraction", "--n", "16",
                     "--coupon-runs", "-1"],
                    ["probe", "contraction", "--n", "16",
                     "--coupon-runs", "0"],
                    ["probe", "contraction", "--n", "16", "--coupon-c", "nan"],
                    ["probe", "contraction", "--n", "16", "--coupon-c", "inf"],
                    ["probe", "contraction", "--n", "16", "--coupon-c=-inf"],
                    ["probe", "contraction", "--n", "16", "--coupon-c", "710"],
                    ["probe", "contraction", "--n", "16",
                     "--coupon-c=-1e308"],
                    # coverage time past the pair horizon 80 n ln n
                    ["probe", "contraction", "--n", "16",
                     "--coupon-c=-1e307"],
                    ["probe", "contraction", "--n", "16",
                     "--coupon-c=-300"],
                    # parameters the family never reads
                    ["analyze", "--family", "uniform", "--n", "8", "--a", "3",
                     "--eps", "0.5", "--mass", "1,2"],
                    ["analyze", "--family", "uniform", "--n", "8",
                     "--a", "3"],
                    ["analyze", "--family", "binomial", "--n", "8",
                     "--eps", "0.5"],
                    ["ensemble", "--family", "geometric", "--a", "2",
                     "--eps", "0.5", "--n", "8"],
                    ["analyze", "--family", "explicit", "--n", "3",
                     "--mass", "1,2,3", "--a", "2"],
                    ["analyze", "--family", "if", "--a", "2", "--eps", "0.25",
                     "--n", "8", "--mass", "1,2"],
                    ["ensemble", "--family", "geometric", "--a", "inf",
                     "--n", "8"],
                    ["ensemble", "--family", "if", "--a", "inf",
                     "--eps", "0.25", "--n", "8"],
                    ["analyze", "--family", "if", "--a", "inf",
                     "--eps", "0.25", "--n", "8"],
                    ["analyze", "--family", "explicit", "--n", "3",
                     "--mass", "1,inf,2"],
                    ["ensemble", "--family", "explicit", "--n", "3",
                     "--mass", "1,inf,2"],
                    ["ensemble", "--family", "if", "--n", "16"],
                    ["ensemble", "--delta", "0.3"],
                    ["sample", "--n", "8", "--k", "9"],
                    # the k = 1 scan has no block starts to weight
                    ["sample", "--n", "8", "--w", "0.5"]):
        reps = ["--reps", "2"] if {"ensemble", "sample",
                                   "contraction"} & set(command) else []
        rc, out, err = run_cli(capsys, command + reps)
        assert rc == 1 and out == "", command
        assert err.startswith("bdcutoff: ") and "Error" not in err
    # a size listed twice would repeat its rows, from a flag or from
    # --config, so it exits 1 naming the size
    sizes = tmp_path / "sizes.cfg"
    sizes.write_text("n = 8,8\n")
    for command, size in ((["ensemble", "--n", "8,8"], "8"),
                          (["probe", "contraction", "--n", "16,16"], "16"),
                          (["sample", "--n", "4,4"], "4"),
                          (["ensemble", "--config", str(sizes)], "8")):
        rc, out, err = run_cli(capsys, command)
        assert rc == 1 and out == "", command
        assert err.startswith("bdcutoff: ") and "Error" not in err
        assert f"n lists {size} more than once" in err, command
    # a chain shorter than --thin keeps no state, so there is none to print
    rc, out, err = run_cli(capsys, ["sample", "--n", "4", "--steps", "4",
                                    "--thin", "5", "--reps", "1",
                                    "--seed", "2"])
    assert rc == 1 and out == ""
    assert "--steps 4" in err and "--thin 5" in err
    # a comparison needs a kernel, and the levy and contraction probes a
    # replicate; an empty ensemble table is still valid
    for command in (["compare-metropolis", "--n", "16"],
                    ["probe", "levy", "--n", "64"],
                    ["probe", "contraction", "--n", "16"]):
        rc, out, err = run_cli(capsys, command + ["--reps", "0"])
        assert rc == 1 and out == "", command
        assert err.startswith("bdcutoff: ") and "Error" not in err
    rc, out, _ = run_cli(capsys, ["ensemble", "--n", "8", "--reps", "0"])
    assert rc == 0 and out.startswith(SCHEMA_TAG)
    # with no replicates the distribution and analysis settings are
    # still checked, from a flag or from --config
    delta = tmp_path / "delta.cfg"
    delta.write_text("delta = 3\n")
    for command, why in (
            (["ensemble", "--family", "if", "--n", "8"], ""),
            (["ensemble", "--family", "uniform", "--a", "3", "--n", "8"], ""),
            (["ensemble", "--n", "64", "--delta", "3"],
             "proxy quantile delta must be in [0.5, 1), got 3.0"),
            (["ensemble", "--n", "64", "--config", str(delta)],
             "proxy quantile delta must be in [0.5, 1), got 3.0")):
        rc, out, err = run_cli(capsys, command + ["--reps", "0"])
        assert rc == 1 and out == "", command
        assert err.startswith("bdcutoff: ") and "Error" not in err
        assert why in err, command
    # a comparison's alpha and state count are checked before any
    # replicate runs
    for command, why in COMPARE_USAGE_ERRORS:
        rc, out, err = run_cli(capsys, command)
        assert (rc, out, err) == (1, "", f"bdcutoff: {why}\n"), command
    # a chain setting exits 1 where no chain runs, from a flag or from
    # --config: sample without --steps, and the markov probe's exact
    # rejection draws at 12 states or fewer
    chain = tmp_path / "chain.cfg"
    chain.write_text("k = 2\nmax-rejection-tries = 1\n")
    sample, markov = ["sample", "--n", "8"], ["probe", "markov", "--n", "8"]
    for command, named in (
            (sample + ["--w", "2", "--reps", "0"], "--w 2.0"),
            (sample + ["--k", "2", "--w", "3", "--max-rejection-tries", "1",
                       "--reps", "1"],
             "--k 2, --w 3.0, --max-rejection-tries 1"),
            (sample + ["--thin", "5", "--reps", "1"], "--thin 5"),
            (sample + ["--config", str(chain)],
             "--k 2, --max-rejection-tries 1"),
            (markov + ["--w", "2"], "--w 2.0"),
            (markov + ["--k", "2", "--max-rejection-tries", "1",
                       "--probe-samples", "100"],
             "--k 2, --max-rejection-tries 1"),
            (markov + ["--probe-thin", "5", "--probe-samples", "100"],
             "--probe-thin 5"),
            (markov + ["--config", str(chain)],
             "--k 2, --max-rejection-tries 1")):
        rc, out, err = run_cli(capsys, command)
        assert rc == 1 and out == "", command
        assert err.startswith("bdcutoff: ") and "runs no chain" in err
        assert err.endswith(f", so {named} would go unread\n"), command
    # with --steps the chain runs and reads them
    rc, out, _ = run_cli(capsys, sample + ["--k", "2", "--steps", "4",
                                           "--thin", "2", "--reps", "1"])
    assert rc == 0 and len(out.splitlines()) == 2 + 2 * 7


def test_cached_parser_matches_fresh_process(tmp_path, capsys, monkeypatch):
    # build_parser runs once per process; a call that follows other calls
    # must print and write what it does in a fresh interpreter
    assert build_parser() is build_parser()
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "from bdcutoff.lab.cli import cli_main; "
            "sys.exit(cli_main(sys.argv[1:]))")
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal
    config = tmp_path / "run.cfg"
    config.write_text("family = geometric\na = 1.5\nn = 8,12\nreps = 2\n")
    calls = [["ensemble", "--family", "cauchy"],
             ["--help"],
             ["ensemble", "--config", str(config), "--seed", "5", "--out"],
             ["probe", "marginal", "--n", "16", "--probe-samples", "200",
              "--seed", "2", "--out"]]
    build_parser.cache_clear()
    for i, call in enumerate(calls):
        here, fresh = tmp_path / f"here{i}.csv", tmp_path / f"fresh{i}.csv"
        writes = call[-1] == "--out"
        rc = cli_main(call + [str(here)] if writes else call)
        got = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code,
             *(call + [str(fresh)] if writes else call)],
            env={**os.environ, "COLUMNS": "80"}, capture_output=True,
            text=True, timeout=120)
        assert (rc, got.out, got.err) == (
            proc.returncode, proc.stdout, proc.stderr), call
        assert rc == (1, 0, 0, 0)[i], call
        if writes:
            assert here.read_bytes() == fresh.read_bytes(), call
    assert build_parser.cache_info().misses == 1


def test_probe_rebound_after_parser_build_is_called(capsys, monkeypatch):
    # the cached parser binds each probe by name, so a probe rebound in
    # the registry after the first build (as a span tracer does) runs
    from bdcutoff.lab import probes
    build_parser()
    seen = []

    def stand_in(cfg):
        seen.append(cfg.n_list)
        return probes.ProbeResult(probe="stand-in", summary={}, rows=[],
                                  flags=())

    monkeypatch.setitem(probes.PROBES, "marginal", stand_in)
    rc, out, _ = run_cli(capsys, ["probe", "marginal", "--n", "16"])
    assert rc == 0 and seen == [(16,)]
    assert json.loads(out)["probe"] == "stand-in"


def test_horizon_below_one_is_a_usage_error(capsys):
    for horizon in (0, -5):
        with pytest.raises(ParameterError, match="horizon"):
            ExperimentConfig(horizon=horizon)
    assert ExperimentConfig(horizon=1).horizon == 1
    for command in (["ensemble", "--exact-tau", "--horizon", "-5"],
                    ["analyze", "--horizon", "0"]):
        rc, out, err = run_cli(capsys, command + ["--n", "8"])
        assert rc == 1 and out == "", command
        assert "horizon must be >= 1" in err


def test_negative_n_is_a_usage_error(capsys):
    for n_list in ((-3,), (8, -3)):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            ExperimentConfig(n_list=n_list)
    for command in ("ensemble", "analyze"):
        rc, out, err = run_cli(capsys, [command, "--n", "-3"])
        assert rc == 1 and out == "", command
        assert err.startswith("bdcutoff: ") and "Error" not in err


def test_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        ExperimentConfig(seed=-1)
    for command in ("sample", "ensemble"):
        rc, out, err = run_cli(capsys, [command, "--n", "8", "--seed", "-1"])
        assert rc == 1 and out == "", command
        assert "seed must be >= 0" in err


def test_cli_runtime_failures_exit_two(capsys):
    for command, error in (
            (["analyze", "--n", "12", "--exact-tau", "--horizon", "1"],
             "NotMixedError"),
            (["probe", "marginal", "--n", "16", "--k", "2",
              "--max-rejection-tries", "1"], "StallError")):
        rc, _, err = run_cli(capsys, command + ["--seed", "1"])
        assert rc == 2, command
        assert error in err


def test_cli_compare_replicate_failure_exits_two(capsys, monkeypatch):
    # a failed replicate exits 2 after every replicate has run, naming
    # the first failure in rep order
    from bdcutoff.lab import ensemble
    seen = []

    def failing(cfg, kernel):
        seen.append(kernel)
        raise RuntimeError(f"replicate {len(seen)} failed")

    monkeypatch.setattr(ensemble, "analyze_kernel", failing)
    rc, out, err = run_cli(capsys, ["compare-metropolis", "--n", "12",
                                    "--reps", "3", "--seed", "1"])
    assert (rc, out) == (2, "") and len(seen) == 3
    assert err == "bdcutoff: RuntimeError: replicate 1 failed\n"


def test_cli_compare_rejects_analysis_flags(capsys):
    base = ["compare-metropolis", "--n", "16", "--reps", "3", "--seed", "6"]
    for flag in (["--delta", "0.9"], ["--raw-kernel"], ["--exact-tau"]):
        rc, out, err = run_cli(capsys, base + flag)
        assert rc == 1 and out == ""
        assert flag[0] in err and "ParameterError" not in err


_ANALYSIS = "--delta --exact-tau --horizon --exhaustive-starts --raw-kernel"
_CHAIN = "--k --w --max-rejection-tries"
_WINDOW = f"{_CHAIN} --format --workers --coord --probe-samples --probe-thin"
# every command also takes the distribution, seed and output flags; the
# chain flags go only to the commands that run a chain
ACCEPTED = {
    "sample": f"{_CHAIN} --steps --thin --reps --format",
    "analyze": _ANALYSIS,
    "ensemble": f"--reps {_ANALYSIS} --format --workers --timings",
    "compare-metropolis": "--reps --alpha --format --workers",
    "probe marginal": _WINDOW,
    "probe tail": _WINDOW,
    "probe markov": _WINDOW,
    "probe levy": "--reps --window --format --workers",
    "probe contraction": f"{_CHAIN} --reps --coupon-c --coupon-runs --format "
                         "--workers",
}
SHARED = "--family --n --a --eps --mass --seed --out --config"


def _command_parsers(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_parsers(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_each_command_accepts_only_the_flags_it_reads():
    got = {name: sorted(flag for action in parser._actions
                        for flag in action.option_strings
                        if flag not in ("-h", "--help"))
           for name, parser in _command_parsers(build_parser())}
    assert got == {name: sorted(f"{SHARED} {flags}".split())
                   for name, flags in ACCEPTED.items()}
    assert sum(map(len, got.values())) == 133


def test_unread_flags_exit_one(capsys):
    analyze, ensemble = ["analyze", "--n", "8"], ["ensemble", "--n", "8"]
    for command, flag in (
            (analyze, ["--coupon-c", "1"]), (analyze, ["--window", "8"]),
            (analyze, ["--coord", "3"]), (analyze, ["--steps", "4"]),
            (analyze, ["--thin", "2"]), (analyze, ["--workers", "2"]),
            (analyze, ["--format", "csv"]),
            (ensemble, ["--coupon-runs", "5"]), (ensemble, ["--coord", "3"]),
            (ensemble, ["--window", "8"]), (ensemble, ["--steps", "4"]),
            (ensemble, ["--thin", "2"]),
            # a sampled kernel is an exact draw: no chain flag is read
            (ensemble + ["--workers", "2"], ["--k", "9"]),
            (ensemble, ["--w", "2"]), (analyze, ["--equilibration", "5"]),
            (["probe", "marginal", "--n", "16"], ["--reps", "2"]),
            (["probe", "marginal"],
             ["--reps", "7", "--exact-tau", "--alpha", "0.3", "--timings"]),
            (["probe", "contraction", "--n", "16"], ["--equilibration", "5"]),
            (["sample", "--n", "8"], ["--workers", "2"])):
        rc, out, err = run_cli(capsys, command + flag)
        assert rc == 1 and out == "", flag
        assert "unrecognized arguments: " + " ".join(flag) in err
        # the usage shown is that of the command, not of bdcutoff itself
        name = " ".join(c for c in command[:2] if not c.startswith("-"))
        assert err.startswith(f"usage: bdcutoff {name} ["), flag


def test_config_keys_follow_the_flag_sets(tmp_path, capsys):
    for name, parser in _command_parsers(build_parser()):
        dests = {action.dest for action in parser._actions}
        extra = {"tail_grid"} if name == "probe tail" else set()
        assert parser.get_default("config_keys") == (
            dests & {f.name for f in dataclasses.fields(ExperimentConfig)}
            | extra), name
    window = tmp_path / "window.cfg"
    window.write_text("n = 8\nwindow = 8\n")
    rc, out, err = run_cli(capsys, ["ensemble", "--config", str(window)])
    assert rc == 1 and out == ""
    assert err == f"bdcutoff: {window}:2: unknown key 'window'\n"
    grid = tmp_path / "grid.cfg"
    grid.write_text("tail_grid = 5,10\n")
    for command in (["probe", "marginal"], ["probe", "markov"],
                    ["ensemble"], ["analyze"]):
        rc, out, err = run_cli(capsys, command + ["--n", "16", "--config",
                                                  str(grid)])
        assert rc == 1 and out == "" and "tail_grid" in err, command
    path = tmp_path / "tail.csv"
    rc, _, _ = run_cli(capsys, ["probe", "tail", "--n", "64", "--config",
                                str(grid), "--probe-samples", "500",
                                "--out", str(path)])
    assert rc == 0
    assert [float(r["x"]) for r in read_csv_rows(str(path))] == [5.0, 10.0]


def test_single_size_commands_reject_a_list(tmp_path, capsys):
    sizes = tmp_path / "sizes.cfg"
    sizes.write_text("n = 16,32\n")
    for command in (["analyze"], ["compare-metropolis", "--reps", "2"],
                    ["probe", "marginal"], ["probe", "tail"],
                    ["probe", "markov"], ["probe", "levy"]):
        name = " ".join(c for c in command[:2] if not c.startswith("-"))
        for n in (["--n", "16,32"], ["--config", str(sizes)]):
            rc, out, err = run_cli(capsys, command + n)
            assert rc == 1 and out == "", command
            assert err == (f"bdcutoff: {name} runs at one state count, "
                           "got n 16,32\n")
    # the commands that loop over sizes keep taking a list
    for command in (["sample", "--reps", "1"], ["ensemble", "--reps", "0"],
                    ["probe", "contraction", "--reps", "1",
                     "--coupon-runs", "5"]):
        assert run_cli(capsys, command + ["--n", "16,32"])[0] == 0, command


def test_n_help_says_one_count_where_one_is_taken(capsys):
    for command, metavar, text in (
            ("analyze", "--n N ", "state count\n"),
            ("ensemble", "--n N[,N...] ", "state counts (comma separated)\n")):
        rc, out, _ = run_cli(capsys, [command, "--help"])
        assert rc == 0
        line = next(ln for ln in out.splitlines(True)
                    if ln.lstrip().startswith("--n "))
        assert line.lstrip().startswith(metavar) and line.endswith(text)
    one = {"analyze", "compare-metropolis", "probe marginal", "probe tail",
           "probe markov", "probe levy"}
    for name, parser in _command_parsers(build_parser()):
        (spec,) = (a for a in parser._actions if "--n" in a.option_strings)
        assert spec.help == ("state count" if name in one else
                             "state counts (comma separated)"), name


def test_cli_module_runs_without_runtime_warning():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "bdcutoff.lab.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: bdcutoff" in proc.stdout


def test_cli_import_skips_scipy_stats_and_special():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import bdcutoff.lab.cli; "
            "print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sample_and_probes_load_no_scipy():
    # only the tridiagonal eigensolves of gap and exact tau use scipy
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {str(src)!r})
import bdcutoff, bdcutoff.lab.cli
from bdcutoff.lab.cli import cli_main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(list(argv)) == 0, argv
run("sample", "--n", "6", "--reps", "2")
run("probe", "marginal", "--n", "16", "--probe-samples", "200")
run("probe", "contraction", "--n", "16", "--reps", "2", "--coupon-runs", "5")
run("probe", "levy", "--n", "64", "--reps", "3")
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
run("ensemble", "--n", "8", "--reps", "2")
print("scipy.linalg" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_star_imports_resolve():
    # a star import raises AttributeError for any stale name in __all__
    for module in ("bdcutoff", "bdcutoff.lab"):
        exec(f"from {module} import *", {})


def _module_files(*paths):
    # __init__.py files only re-export, so their imports and uses are skipped
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        yield from (f for f in files if f.name != "__init__.py")


def test_public_names_have_callers():
    # every exported name is used by the package, the benchmark or an
    # acceptance criterion; one that only unit tests call is dead surface
    root = Path(__file__).resolve().parent.parent
    used = set()
    for path in _module_files(root / "src", root / "bench",
                              root / "tests" / "test_acceptance.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
    dead = [f"{module}.{name}" for module in ("bdcutoff", "bdcutoff.lab")
            for name in importlib.import_module(module).__all__
            if name not in used]
    assert dead == []


def test_src_has_no_unused_imports():
    src = Path(__file__).resolve().parent.parent / "src"
    unused = []
    for path in _module_files(src):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
