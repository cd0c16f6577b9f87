import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from maasslab import bounds, cli, dde, ingest, sieve


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_first_zero_two_form(capsys):
    code, out, _ = run_cli(capsys, "first-zero", "--chi0", "2", "--chi1", "-2",
                           "--tol", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["first_zero"] - 2.23528) < 1e-4
    assert doc["config"]["tol"] == 1e-6


def test_density_report_two_forms(capsys):
    code, out, _ = run_cli(capsys, "density-report", "--m", "2",
                           "--formula", "paper")
    assert code == 0
    doc = json.loads(out)
    assert doc["density_lower_bound"] == "43/44"


def test_density_report_remark_labeled_conditional(capsys):
    code, out, _ = run_cli(capsys, "density-report", "--m", "2",
                           "--formula", "remark")
    assert code == 0
    doc = json.loads(out)
    assert doc["density_lower_bound"] == "118/119"
    assert "conditional" in doc["status"]


def test_identity_check_passes(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--samples", "20000",
                           "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_square_identity_residual"] < 1e-10
    assert doc["max_expansion_residual"] < 1e-9


# sha256 of `identity-check` at its defaults (10^5 samples, seed 1729),
# one line of compact JSON
IDENTITY_CHECK_STDOUT_SHA256 = (
    "2576cb71890c5c0caaa8425f78772e3b9104e385a7c5a4f19c506cf2a0b9b9b9")


def test_identity_check_stdout_bytes_pinned(capsys):
    code, out, _ = run_cli(capsys, "identity-check")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITY_CHECK_STDOUT_SHA256


def test_identity_check_reports_pairs_swept(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--samples", "7",
                           "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 6 and doc["config"]["samples"] == 7


@pytest.mark.parametrize("argv", [
    ("identity-check", "--samples", "1"), ("identity-check", "--samples", "-4"),
    ("sieve-verify", "--limit", "1000", "--samples", "0"),
    ("sieve-verify", "--limit", "1000", "--samples", "-5"),
])
def test_sample_count_below_minimum_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-input: --samples must be >= ")


@pytest.mark.parametrize("module,name,broken", [
    ("density", "weight_residual", lambda *_: 1.0),
    ("density", "weight_residual", lambda *_: float("nan")),
    ("satake", "identity_residuals", lambda *_: (1.0, 1.0)),
])
def test_identity_check_runs_the_library_formulas(capsys, monkeypatch,
                                                  module, name, broken):
    monkeypatch.setattr(getattr(cli, module), name, broken)
    code, out, _ = run_cli(capsys, "identity-check", "--samples", "100")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_output_byte_identical_between_runs(capsys):
    _, first, _ = run_cli(capsys, "density-report", "--m", "3")
    _, second, _ = run_cli(capsys, "density-report", "--m", "3")
    assert first == second


def test_bound_payload(capsys):
    code, out, _ = run_cli(capsys, "bound", "--levels", "1,1",
                           "--spectral", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == 1.0
    assert doc["exponent"] == 0.447374
    assert doc["implied_constant"] == "unspecified"
    assert doc["U_used"] == 2.23527


def test_bound_evaluates_no_closed_form(capsys, monkeypatch):
    # the closed forms are the tests' oracle: bound takes its zero from
    # first_zero alone
    bounds.exponent_detail.cache_clear()
    specs = []
    real_first_zero = dde.first_zero

    def first_zero_spy(spec, *args, **kwargs):
        specs.append(spec)
        return real_first_zero(spec, *args, **kwargs)

    def oracle(*args):
        raise AssertionError("closed form evaluated")

    monkeypatch.setattr(dde, "first_zero", first_zero_spy)
    monkeypatch.setattr(dde, "closed_form_first_zero", oracle)
    monkeypatch.setattr(dde, "analytic_segment", oracle)
    for levels, spectral in (("5,7", "2.13,5.44"), ("5,7,11", "2.13,5.44,9.5")):
        code, out, _ = run_cli(capsys, "bound", "--levels", levels,
                               "--spectral", spectral)
        assert code == 0 and json.loads(out)["exponent"] in (0.447374, 0.778801)
    assert specs == [dde.DdeSpec(2.0, -2.0), dde.DdeSpec(1.0, -3.0)]


def test_solve_dde_csv_output(capsys):
    code, out, _ = run_cli(capsys, "solve-dde", "--chi0", "2", "--chi1", "-2",
                           "--u-max", "2", "--step", "1e-2", "--stride", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "u,sigma"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0


def test_sieve_verify_checks(capsys):
    code, out, _ = run_cli(capsys, "sieve-verify", "--limit", "10000",
                           "--samples", "10", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"]
    names = {c["name"] for c in doc["checks"]}
    assert "h_sum_y10_q1" in names and "moebius_roundtrip" in names


def test_sieve_verify_asymptotic_csv(capsys):
    code, out, _ = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                           "--limit", "40000", "--y", "100",
                           "--u-grid", "0.5,1.0", "--q", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "y,u,exact,predicted,rel_error"
    assert len(lines) == 4


def test_fetch_fixture(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "fetch", "--label", "fixture-tempered-1",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["record"]["label"] == "fixture-tempered-1"
    assert (tmp_path / "fixture-tempered-1.json").exists()


# sha256 of `fetch --label fixture-mixed-1 --coverage 10000 --cache-dir cache`,
# one line of compact JSON
FETCH_STDOUT_SHA256 = "dfa89ba790589c5d454c2747928ded629aacc59c59543895092600d6c5d17003"


def test_fetch_stdout_bytes_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)     # the config echo shows cache_dir as given
    code, out, _ = run_cli(capsys, "fetch", "--label", "fixture-mixed-1",
                           "--coverage", "10000", "--cache-dir", "cache")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == FETCH_STDOUT_SHA256


def test_cold_fetch_formats_each_pair_once(tmp_path, capsys, monkeypatch,
                                          local_endpoint):
    # write_cache formats the pairs; the printed record copies them from
    # the file just written, on the fixture and the remote route alike
    monkeypatch.chdir(tmp_path)
    reprs = []
    monkeypatch.setattr(ingest, "repr", lambda v: reprs.append(v) or repr(v),
                        raising=False)
    code, out, _ = run_cli(capsys, "fetch", "--label", "fixture-mixed-1",
                           "--coverage", "10000", "--cache-dir", "cache")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FETCH_STDOUT_SHA256
    assert len(reprs) == len(json.loads(out)["record"]["coefficients"])

    url, bodies, _ = local_endpoint
    doc = ingest.generate_fixture("fixture-mixed-2", 10000).to_json_dict()
    doc.update(label="remote-form-5", source="remote")
    bodies[0] = json.dumps(doc).encode()
    reprs.clear()
    code, out, _ = run_cli(capsys, "fetch", "--label", "remote-form-5", "--coverage",
                           "10000", "--cache-dir", "cache", "--endpoint", url)
    assert code == 0 and out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert json.loads(out)["record"] == doc
    assert len(reprs) == len(doc["coefficients"])


def _cache_remote_record(tmp_path, monkeypatch, label, coverage, **changes):
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    rec = dataclasses.replace(ingest.generate_fixture("fixture-mixed-2", coverage),
                              label=label, source="remote", **changes)
    ingest.write_cache(rec, tmp_path)
    return dataclasses.replace(rec, source="cache-fallback")


def test_fetch_output_is_the_payload_dump(tmp_path, capsys, monkeypatch):
    # more pairs than one chunk of the record's JSON text
    rec = _cache_remote_record(tmp_path, monkeypatch, "remote-big", 200000)
    assert rec.ps.size > ingest.JSON_CHUNK
    findings = [{"severity": f.severity, "kind": f.kind, "p": f.p,
                 "message": f.message} for f in ingest.validate(rec)]
    out_file = tmp_path / "out.json"
    for extra in ([], ["--out", str(out_file)]):
        argv = ["fetch", "--label", "remote-big", "--cache-dir", str(tmp_path), *extra]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        config = cli._config_dict(cli.build_parser().parse_args(argv))
        want = json.dumps({"config": config, "findings": findings,
                           "record": rec.to_json_dict()}, sort_keys=True) + "\n"
        assert (out_file.read_text() if extra else out) == want
    assert out == ""


def test_fetch_non_finite_coefficient_is_check_failure(tmp_path, capsys, monkeypatch):
    lams = ingest.generate_fixture("fixture-mixed-2", 100).lams.copy()
    lams[[2, 4]] = np.nan, np.inf       # p = 11 and p = 17 (level 10)
    _cache_remote_record(tmp_path, monkeypatch, "remote-nan", 100, lams=lams)
    code, out, _ = run_cli(capsys, "fetch", "--label", "remote-nan",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    doc = json.loads(out)
    assert [(f["severity"], f["kind"], f["p"]) for f in doc["findings"]] == [
        ("error", "non-finite", 11), ("error", "non-finite", 17)]
    assert '[11, NaN], [13, ' in out and '[17, Infinity]' in out


def test_fetch_cached_prime_past_int64_is_check_failure(tmp_path, capsys,
                                                        monkeypatch):
    # a cache file that does not parse is a check failure (exit 1), not a
    # usage error (exit 2)
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    doc = ingest.generate_fixture("fixture-tempered-1", 10).to_json_dict()
    doc.update(label="remote-7", coefficients=[[2, 0.5], [2 ** 63, 0.1]])
    (tmp_path / "remote-7.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "fetch", "--label", "remote-7",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: CacheParseError: ")


def test_fetch_non_utf8_cache_file_is_check_failure(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, "fetch", "--label", "bad",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: CacheParseError: cache file is not valid JSON")


def test_fetch_unknown_label_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    code, _, err = run_cli(capsys, "fetch", "--label", "nope",
                           "--cache-dir", str(tmp_path))
    assert code == 5
    assert "network-unavailable" in err


def test_density_scan_data_gap_exit_code(tmp_path, capsys):
    # coverage 100 leaves gaps below a scan limit of 10^4
    code, _, err = run_cli(capsys, "density-report",
                           "--scan-labels", "fixture-mixed-1,fixture-mixed-2",
                           "--x", "10000", "--coverage", "100",
                           "--cache-dir", str(tmp_path))
    assert code == 3
    assert "data-gap" in err


def test_density_scan_finds_fixture_exceptional_primes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "density-report",
                           "--scan-labels", "fixture-mixed-1,fixture-mixed-2",
                           "--x", "10000", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["exceptional_count"] == 2
    assert doc["implied_upper"] > 0


def test_fetch_remote_label_mismatch_exit_code(tmp_path, capsys, local_endpoint):
    url, bodies, _ = local_endpoint
    doc = ingest.generate_fixture("fixture-mixed-2", 1000).to_json_dict()
    doc.update(label="other-form", source="remote")
    bodies[0] = json.dumps(doc).encode()
    code, out, err = run_cli(capsys, "fetch", "--label", "asked-form", "--coverage",
                             "1000", "--cache-dir", str(tmp_path), "--endpoint", url)
    assert code == 1 and out == ""
    assert err.startswith("error: CacheParseError:") and "'other-form'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("labels, item", [(",", "''"), ("a,,b", "''"),
                                          ("fixture-mixed-1,", "''"),
                                          ("fixture-mixed-1,fixture-mixed-1",
                                           "'fixture-mixed-1'")])
def test_density_scan_bad_label_list_exit_code(tmp_path, capsys, labels, item):
    code, out, err = run_cli(capsys, "density-report", "--scan-labels", labels,
                             "--x", "1000", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-input: --scan-labels ")
    assert item in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "first-zero", "--chi0", "2", "--chi1", "-2",
                           "--tol", "1e-12")
    assert code == 2
    assert "invalid-input" in err


def test_first_zero_unconverged_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.dde, "STEP_MIN", 1e-3)
    code, out, err = run_cli(capsys, "first-zero", "--chi0", "2", "--chi1", "-2",
                             "--tol", "1e-9", "--initial-step", "1e-3")
    assert code == 1 and out == ""
    assert err.startswith("error: NotConvergedError: first zero not within tol")


def test_help_exists_for_every_subcommand(capsys):
    for sub in ("solve-dde", "first-zero", "sieve-verify", "density-report",
                "bound", "identity-check", "fetch"):
        code = cli.main([sub, "--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "--format" in out


def test_density_scan_output_independent_of_cpu_count(tmp_path, capsys,
                                                      monkeypatch):
    outs = []
    for cpus in (1, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run_cli(capsys, "density-report", "--scan-labels",
                               "fixture-mixed-1,fixture-mixed-2",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_seed_only_on_seeded_subcommands(capsys):
    for sub, seeded in (("sieve-verify", True), ("identity-check", True),
                        ("density-report", False), ("fetch", False)):
        cli.main([sub, "--help"])
        assert ("--seed" in capsys.readouterr().out) == seeded


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "zero.json"
    code, out, _ = run_cli(capsys, "first-zero", "--chi0", "1", "--chi1", "-3",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert abs(doc["first_zero"] - 1.2840254) < 1e-5


def test_resource_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "sieve-verify", "--limit", "20000000")
    assert code == 4
    assert "resource-limit" in err


def test_asymptotic_negative_u_names_u_and_grid(capsys):
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--y", "100", "--u-grid=-0.5,1.0", "--limit", "100000")
    assert code == 2 and out == ""
    assert err == ("error: invalid-input: u must be >= 0, got u = -0.5 "
                   "in the grid [-0.5, 1.0]\n")


def test_asymptotic_q_below_one_names_q(capsys):
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--limit", "1000", "--y", "10", "--u-grid", "0.5,1.0",
                             "--q", "0")
    assert code == 2 and out == ""
    assert err == "error: invalid-input: q must be >= 1, got 0\n"


def test_bound_bad_list_item_exit_code(capsys):
    for argv, option, item in (
            (["--levels", "5,x", "--spectral", "1,2"], "--levels", "'x'"),
            (["--levels", "5,7", "--spectral", "1,2y"], "--spectral", "'2y'")):
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: invalid-input: ")
        assert option in err and item in err


@pytest.mark.parametrize("spectral", ["nan,1", "inf,1", "1,-inf"])
def test_bound_non_finite_spectral_exit_code(capsys, spectral):
    code, out, err = run_cli(capsys, "bound", "--levels", "5,7",
                             "--spectral", spectral)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-input: spectral_parameter must be finite")


def test_asymptotic_bad_u_grid_item_exit_code(capsys):
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--u-grid", "0.5,x", "--limit", "1000")
    assert code == 2 and out == ""
    assert err == ("error: invalid-input: --u-grid takes comma-separated "
                   "numbers, got 'x'\n")


def test_asymptotic_huge_q_exit_code(capsys):
    # the prime 10^18 + 3 needs trial divisors far past sieve.TRIAL_LIMIT
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--limit", "1000", "--y", "10", "--u-grid", "0.5,1.0",
                             "--q", "1000000000000000003")
    assert code == 4 and out == ""
    assert err.startswith("error: resource-limit:")
    assert "1000000000000000003" in err


# sha256 of the same report with `--q 30`
ASYMPTOTIC_Q30_SHA256 = "869dda3b5b7f92e8304ab3c406295398f22490af225cd61a77644b3b032cc1d4"


def test_asymptotic_q30_bytes_pinned(capsys):
    code, out, _ = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                           "--limit", "1000", "--y", "10", "--u-grid", "0.5,1.0",
                           "--q", "30")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ASYMPTOTIC_Q30_SHA256


def test_prime_sieve_past_cap_exit_code(tmp_path, capsys, monkeypatch, no_huge_ones):
    code, _, err = run_cli(capsys, "density-report", "--scan-labels",
                           "fixture-mixed-1,fixture-mixed-2", "--x", str(10 ** 12),
                           "--cache-dir", str(tmp_path))
    assert code == 4 and "resource-limit" in err
    # one entry at a huge p would size validate's reference sieve at p + 1 bytes
    far = ingest.CoeffRecord(label="far", level=1, spectral_parameter=1.0,
                             ps=[2, 10 ** 12 + 39], lams=[0.1, 0.2],
                             fetched_at="x", source="remote")
    monkeypatch.setattr(ingest, "_fetch_remote", lambda *_: far)
    code, out, err = run_cli(capsys, "fetch", "--label", "far", "--cache-dir",
                             str(tmp_path), "--endpoint", "http://127.0.0.1:1/")
    assert code == 4 and out == "" and "resource-limit" in err


def _solve_dde_full_walk(args):
    """solve-dde as it walked every node of nodes(), kept as the oracle."""
    sol = dde.solve(dde.DdeSpec(args.chi0, args.chi1), args.u_max, args.step)
    rows = []
    for i, (u, sig) in enumerate(sol.nodes()):
        if i % args.stride == 0 and u <= args.u_max + 1e-12:
            rows.append((u, sig))
    cli._emit_grid(["u", "sigma"], rows, args)
    return cli.EXIT_OK


@pytest.mark.parametrize("argv", [
    ["--chi0", "2", "--chi1", "-2", "--step", "1e-5", "--u-max", "3",
     "--stride", "100"],
    ["--chi0", "1", "--chi1", "-3", "--u-max", "3", "--step", "1e-4",
     "--stride", "100", "--format", "json"],
    ["--chi0", "2", "--chi1", "-2", "--u-max", "2.5", "--step", "1e-3",
     "--stride", "7"],
    ["--chi0", "1.5", "--chi1", "-2.5", "--u-max", "1.37", "--step", "3e-3",
     "--stride", "1", "--format", "json"],
    ["--chi0", "3", "--chi1", "-1", "--u-max", "4.2", "--step", "1e-2",
     "--stride", "100000"],
    ["--chi0", "2", "--chi1", "-2", "--u-max", "1", "--step", "1e-2",
     "--stride", "25", "--format", "table"],
])
def test_solve_dde_bytes_match_full_walk(capsys, monkeypatch, argv):
    code, out, _ = run_cli(capsys, "solve-dde", *argv)
    assert code == 0
    monkeypatch.setattr(cli, "_cmd_solve_dde", _solve_dde_full_walk)
    assert run_cli(capsys, "solve-dde", *argv) == (0, out, "")


def test_solve_dde_reads_only_emitted_nodes(capsys, monkeypatch):
    read = []
    node = dde.PiecewiseSolution._node
    monkeypatch.setattr(dde.PiecewiseSolution, "_node",
                        lambda sol, i: read.append(i) or node(sol, i))
    code, out, _ = run_cli(capsys, "solve-dde", "--chi0", "2", "--chi1", "-2",
                           "--step", "1e-5", "--u-max", "3", "--stride", "100")
    assert code == 0 and len(out.splitlines()) == 2 + 3001
    assert read == list(range(0, 300001, 100))


@pytest.mark.parametrize("argv,name", [
    (["first-zero", "--chi0", "2", "--chi1", "-2", "--u-cap", "inf"], "u_cap"),
    (["first-zero", "--chi0", "2", "--chi1", "-2", "--u-cap", "nan"], "u_cap"),
    (["first-zero", "--chi0", "2", "--chi1", "-2", "--tol", "nan"], "tol"),
    (["first-zero", "--chi0", "inf", "--chi1", "-2"], "weights"),
    (["solve-dde", "--chi0", "2", "--chi1", "-2", "--u-max", "inf"], "u_max"),
    (["solve-dde", "--chi0", "2", "--chi1", "-2", "--u-max", "nan"], "u_max"),
    (["solve-dde", "--chi0", "2", "--chi1", "-2", "--stride", "0"], "--stride"),
    (["solve-dde", "--chi0", "2", "--chi1", "-2", "--stride", "-3"], "--stride"),
])
def test_dde_bad_arguments_exit_code(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-input: ") and name in err


def test_dde_grid_past_cap_exit_code(capsys, no_dde_grid):
    code, out, err = run_cli(capsys, "solve-dde", "--chi0", "2", "--chi1", "-2",
                             "--u-max", "1e5", "--step", "1e-7")
    assert code == 4 and out == ""
    assert err.startswith("error: resource-limit: ")
    assert "1000000100000 nodes" in err and "cap 200000000" in err


def test_table_format_renders_grid(capsys):
    code, out, _ = run_cli(capsys, "solve-dde", "--chi0", "2", "--chi1", "-2",
                           "--u-max", "1", "--step", "1e-2", "--stride", "25",
                           "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("u")
    assert "sigma" in lines[1]


def test_table_format_renders_payload(capsys):
    code, out, _ = run_cli(capsys, "density-report", "--m", "1",
                           "--format", "table")
    assert code == 0
    assert "34/35" in out


def test_csv_format_rejected_for_scalar_payloads(capsys):
    for argv in (["bound", "--levels", "1,2", "--spectral", "1,2"],
                 ["sieve-verify", "--limit", "1000"],
                 ["first-zero", "--chi0", "1", "--chi1", "-3"],
                 ["density-report", "--m", "2"]):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2 and out == ""
        assert "json" in err and "table" in err
    code, out, _ = run_cli(capsys, "sieve-verify", "--limit", "1000",
                           "--report", "asymptotic", "--y", "10",
                           "--u-grid", "1.0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "y,u,exact,predicted,rel_error"


@pytest.mark.parametrize("case", ["cache-file-is-a-directory", "out-dir-missing",
                                  "cache-dir-is-a-file"])
def test_os_error_is_one_io_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    argv = ["fetch", "--label", "x", "--coverage", "100", "--cache-dir", str(tmp_path)]
    if case == "cache-file-is-a-directory":
        (tmp_path / "x.json").mkdir()
    elif case == "out-dir-missing":
        argv[2] = "fixture-tempered-1"
        argv += ["--out", str(tmp_path / "missing" / "out.json")]
    else:
        (tmp_path / "file").write_text("")
        argv[-1] = str(tmp_path / "file")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: io: ") and err.count("\n") == 1


@pytest.mark.parametrize("limit", ["10", "11", "198"])
def test_sieve_verify_checks_limit_below_minimum_is_usage_error(capsys, limit):
    # the Moebius round trip evaluates n up to 199 in the table
    code, out, err = run_cli(capsys, "sieve-verify", "--limit", limit)
    assert code == 2 and out == ""
    assert err == f"error: invalid-input: --limit must be >= 199 in checks mode, got {limit}\n"
    code, out, _ = run_cli(capsys, "sieve-verify", "--limit", "199", "--samples", "3")
    assert code == 0 and json.loads(out)["all_passed"]


def test_asymptotic_report_sieves_nothing_up_to_t(capsys, monkeypatch):
    # --limit 10^7 bounds t = 10^(4 * 1.75) and builds no table; the sieve
    # runs only to sqrt(t), besides the one of euler_constant_c, which
    # sieves to its truncation 10^6 whatever t is
    calls, in_c = [], []
    real_primes, real_c = sieve.primes_upto, sieve.euler_constant_c

    def primes_spy(n):
        calls.append((n, bool(in_c)))
        return real_primes(n)

    def c_spy(*args):
        in_c.append(True)
        try:
            return real_c(*args)
        finally:
            in_c.pop()

    def no_table(*args, **kwargs):
        raise AssertionError("build_table called")

    monkeypatch.setattr(sieve, "primes_upto", primes_spy)
    monkeypatch.setattr(sieve, "euler_constant_c", c_spy)
    monkeypatch.setattr(sieve, "build_table", no_table)
    code, out, _ = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                           "--limit", "10000000", "--y", "10000",
                           "--u-grid", "0.5,1.0,1.5,1.75", "--q", "30")
    assert code == 0 and len(out.splitlines()) == 6
    t_max = int(10000 ** 1.75)
    assert t_max > 9.9 * 10 ** 6
    outside = [n for n, c in calls if not c]
    assert outside and max(outside) <= math.isqrt(t_max), outside
    assert [n for n, c in calls if c] == [10 ** 6]
