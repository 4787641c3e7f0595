import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import kwalks
import kwalks.sign_families as sf
from kwalks import dyadic_matrix, experiments
from kwalks.cli import main
from kwalks.experiments import ExperimentConfig, run, verify_suite


def write_config(path, body):
    path.write_text(textwrap.dedent(body))
    return str(path)


def test_verify_suite_all_pass():
    checks = verify_suite()
    assert checks
    assert all(c.passed for c in checks)


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_json(capsys):
    assert main(["verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) > 5


def test_cli_rejects_missing_config(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_unknown_kind(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", """
        [experiment]
        kind = frobnicate
    """)
    assert main(["run", cfg]) == 2


@pytest.mark.parametrize("kind", ["stream-track", "net-audit"])
def test_cli_rejects_unknown_generator(tmp_path, capsys, kind):
    # net-audit reads no trials and no [family]
    sampled = ("trials = 100\n[family]\nkind = FullyIndependent\n"
               if kind == "stream-track" else "")
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"[experiment]\nkind = {kind}\n{sampled}"
                   "[params]\ngenerators = identity frobnicate\nm_list = 64\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown generators ['frobnicate']")
    assert "'dyadic-bursts', 'identity', 'single-item'" in err


def test_cli_rejects_empty_list_param(tmp_path, capsys):
    cfg = write_config(tmp_path / "empty.cfg", """
        [experiment]
        kind = family-verify
        trials = 0
        [family]
        kind = AdversarialStage
        stage = H
        [params]
        n_list =
    """)
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == "error: param n_list needs at least one value\n"


def test_cli_rejects_nonpositive_workers(tmp_path, capsys):
    cfg = write_config(tmp_path / "workers.cfg", """
        [experiment]
        kind = family-verify
        trials = 0
        workers = 0
        [params]
        n_list = 16
    """)
    assert main(["run", cfg]) == 2
    assert "error: workers must be at least 1, got workers=0" in capsys.readouterr().err
    assert main(["run", cfg, "--workers", "-2"]) == 2
    assert "got workers=-2" in capsys.readouterr().err
    assert main(["run", cfg, "--workers", "1"]) == 0


@pytest.mark.parametrize("kind,experiment,params,message", [
    ("matrix-check", "", "n_list = 8 abc", "n_list needs int values, got 'abc'"),
    ("family-verify", "trials = many", "n_list = 16",
     "trials needs int values, got 'many'"),
    ("matrix-check", "seed = 1e3", "n_list = 8", "seed needs int values, got '1e3'"),
    ("family-verify", "workers = two", "n_list = 16",
     "workers needs int values, got 'two'"),
    ("matrix-check", "", "n_list = 8\ngaussian_vectors = 1.5",
     "gaussian_vectors needs int values, got '1.5'"),
    ("net-audit", "", "m_list = 64\nrealizations = ten",
     "realizations needs int values, got 'ten'"),
    ("maximal-mc", "", "n = 16\nsigma_decades = lots",
     "sigma_decades needs float values, got 'lots'"),
    ("maximal-mc", "", "n = 16\nlambda_mults = 2 four",
     "lambda_mults needs float values, got 'four'"),
], ids=["n_list", "trials", "seed", "workers", "gaussian_vectors",
        "realizations", "sigma_decades", "lambda_mults"])
def test_cli_number_errors_name_the_key(tmp_path, capsys, kind, experiment,
                                        params, message):
    cfg = tmp_path / "numbers.cfg"
    cfg.write_text(f"[experiment]\nkind = {kind}\n{experiment}\n"
                   f"[params]\n{params}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind,experiment,section,message", [
    ("maximal-mc", "", "[params]\nn = 16\nlambda_mults = -2 0",
     "lambda_mults must be positive, got lambda_mults=-2.0"),
    ("net-audit", "", "[params]\nm_list = 64\nrealizations = 0",
     "realizations must be positive, got realizations=0"),
    ("family-verify", "trials = -5", "[params]\nn_list = 16",
     "trials must be at least 0, got trials=-5"),
    ("matrix-check", "", "[params]\nn_list = 8\ngaussian_vectors = 0",
     "gaussian_vectors must be positive, got gaussian_vectors=0"),
    ("walk-scaling", "trials = 100",
     "[family]\nkind = PolynomialKWise\nk = four\n[params]\nn_list = 16 64 256",
     "k needs int values, got 'four'"),
    ("stream-track", "trials = 100",
     "[family]\nkind = FullyIndependent\n[params]\nm_list = 64\nk = 0",
     "k must be positive, got k=0"),
    # a ratio gate at or below 0 would drop the check and let the run pass
    ("stream-track", "trials = 100",
     "[family]\nkind = FullyIndependent\n[params]\nm_list = 64\n"
     "max_norm_ratio = -1",
     "max_norm_ratio must be positive, got max_norm_ratio=-1.0"),
    # at k = 2 a row is normalized by ||z||^2 lg^2 m, which is 0 at m = 1
    ("stream-track", "trials = 100",
     "[family]\nkind = PolynomialKWise\nk = 4\n[params]\n"
     "generators = uniform\nm_list = 1 4 16\nmax_norm_ratio = 3",
     "m_list needs m >= 2 at k=2, got m=1"),
    # nan and inf would end in a traceback, a nan bound, or a gate that
    # always passes or always fails
    ("maximal-mc", "trials = 100", "[params]\nn = 16\nsigma_decades = inf",
     "sigma_decades needs finite float values, got 'inf'"),
    ("maximal-mc", "trials = 100", "[params]\nn = 16\nsigma_decades = nan",
     "sigma_decades needs finite float values, got 'nan'"),
    ("maximal-mc", "trials = 100", "[params]\nn = 16\nlambda_mults = 2 inf",
     "lambda_mults needs finite float values, got 'inf'"),
    ("stream-track", "trials = 100",
     "[family]\nkind = FullyIndependent\n[params]\nm_list = 64\n"
     "max_norm_ratio = inf",
     "max_norm_ratio needs finite float values, got 'inf'"),
    ("walk-scaling", "trials = 100",
     "[family]\nkind = FullyIndependent\n[params]\nn_list = 16 64 256\n"
     "min_r2 = nan",
     "min_r2 needs finite float values, got 'nan'"),
    ("walk-scaling", "trials = 100",
     "[family]\nkind = FullyIndependent\n[params]\nn_list = 16 64 256\n"
     "min_slope = -inf",
     "min_slope needs finite float values, got '-inf'"),
    ("walk-scaling", "trials = 100",
     "[family]\nkind = FullyIndependent\n[params]\nn_list = 16 64 256\n"
     "max_slope_se_mult = nan",
     "max_slope_se_mult needs finite float values, got 'nan'"),
    # the default 4-wise family needs n >= 4
    ("maximal-mc", "trials = 100", "[params]\nn = 2",
     "polynomial family needs 2 <= k <= n, got k=4 and n=2"),
], ids=["lambda_mults", "realizations", "trials", "gaussian_vectors", "family-k",
        "stream-k", "max_norm_ratio", "stream-m1", "sigma_decades-inf",
        "sigma_decades-nan", "lambda_mults-inf", "max_norm_ratio-inf",
        "min_r2-nan", "min_slope-inf", "max_slope_se_mult-nan", "maximal-mc-n2"])
def test_cli_edge_inputs_name_the_key(tmp_path, capsys, kind, experiment,
                                      section, message):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(f"[experiment]\nkind = {kind}\n{experiment}\n{section}\n")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("body,message", [
    # a family is fixed by its construction; the seed is the experiment's
    ("[experiment]\nkind = walk-scaling\ntrials = 100\n"
     "[family]\nkind = PolynomialKWise\nk = 4\nseed = 5\n"
     "[params]\nn_list = 16 64 256\n",
     "unknown family keys: ['seed']"),
    # a misspelled gate would drop its check and let the run pass
    ("[experiment]\nkind = walk-scaling\ntrials = 100\n"
     "[family]\nkind = PolynomialKWise\nk = 4\n"
     "[params]\nn_list = 16 64 256\nmin_slop = 0.0\n",
     "unknown params keys for walk-scaling: ['min_slop']"),
    # a misspelled section would fall back to the default 4-wise family
    ("[experiment]\nkind = maximal-mc\ntrials = 100\n"
     "[famliy]\nkind = AdversarialStage\nstage = H\n[params]\nn = 16\n",
     "unknown sections for maximal-mc: ['famliy']"),
    ("[experiment]\nkind = matrix-check\ntrails = 100\n[params]\nn_list = 8\n",
     "unknown experiment keys for matrix-check: ['trails']"),
    # the n lg^order n gate is gone from walk-scaling
    ("[experiment]\nkind = walk-scaling\ntrials = 100\n"
     "[params]\nn_list = 16 64 256\nmax_norm_ratio = 3\n",
     "unknown params keys for walk-scaling: ['max_norm_ratio']"),
    # each kind sizes its own family
    ("[experiment]\nkind = walk-scaling\ntrials = 100\n"
     "[family]\nkind = AdversarialStage\nstage = H\nn = 17\n"
     "[params]\nn_list = 16 64 256\n",
     "unknown family keys: ['n']"),
    ("[experiment]\nkind = walk-scaling\ntrials = 100\n"
     "[family]\nkind = AdversarialStage\nstage = H\nk = 9\n"
     "[params]\nn_list = 16 64 256\n",
     "k is read only by PolynomialKWise families; "
     "got k=9 for AdversarialStage"),
    ("[experiment]\nkind = walk-scaling\ntrials = 100\n"
     "[family]\nkind = FullyIndependent\nstage = H\n"
     "[params]\nn_list = 16 64 256\n",
     "stage is read only by AdversarialStage families; "
     "got stage=H for FullyIndependent"),
    ("[experiment]\nkind = walk-scaling\ntrials = 100\n"
     "[params]\nn_list = 16 64 256\n",
     "[family] needs a kind"),
    # a branch of stage H is drawn through the API only
    ("[experiment]\nkind = walk-scaling\ntrials = 100\n"
     "[family]\nkind = AdversarialStage\nstage = H\nbranch = drift\n"
     "[params]\nn_list = 16 64 256\n",
     "unknown family keys: ['branch']"),
    # maximal-mc's family comes from [family] only
    ("[experiment]\nkind = maximal-mc\ntrials = 100\n"
     "[params]\nn = 16\nk = 7\n",
     "unknown params keys for maximal-mc: ['k']"),
    # the exact kinds draw no signs and run no pool
    ("[experiment]\nkind = matrix-check\n"
     "[family]\nkind = Bogus\n[params]\nn_list = 8\n",
     "unknown sections for matrix-check: ['family']"),
    ("[experiment]\nkind = net-audit\n"
     "[family]\nkind = FullyIndependent\n[params]\nm_list = 64\n",
     "unknown sections for net-audit: ['family']"),
    ("[experiment]\nkind = matrix-check\ntrials = 100\n[params]\nn_list = 8\n",
     "unknown experiment keys for matrix-check: ['trials']"),
    ("[experiment]\nkind = net-audit\nworkers = 2\n[params]\nm_list = 64\n",
     "unknown experiment keys for net-audit: ['workers']"),
], ids=["family-seed", "params-key", "section", "experiment-key",
        "walk-scaling-norm-ratio", "family-n", "family-k-on-stage",
        "family-stage-on-independent", "walk-scaling-no-family", "family-branch",
        "maximal-mc-k", "matrix-check-family", "net-audit-family",
        "matrix-check-trials", "net-audit-workers"])
def test_cli_rejects_keys_a_kind_never_reads(tmp_path, capsys, body, message):
    cfg = tmp_path / "keys.cfg"
    cfg.write_text(body)
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("kind,params", [("matrix-check", "n_list = 8"),
                                         ("net-audit", "m_list = 64")])
def test_exact_kinds_reject_run_controls_they_never_read(tmp_path, capsys,
                                                        kind, params):
    cfg = tmp_path / "exact.cfg"
    cfg.write_text(f"[experiment]\nkind = {kind}\n[params]\n{params}\n")
    for flag in ("--trials", "--workers"):
        assert main(["run", str(cfg), flag, "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {kind} does not read {flag}\n"
    out = tmp_path / "exact.csv"
    assert main(["run", str(cfg), "--output", str(out), "--seed", "4",
                 "--json"]) == 0
    metadata = json.loads(capsys.readouterr().out)["metadata"]
    footer = [line for line in out.read_text().splitlines()
              if line.startswith("#")]
    assert metadata["seed"] == 4 and "# seed=4" in footer
    assert not {"trials", "workers"} & set(metadata)
    assert not any(line.startswith(("# trials=", "# workers=")) for line in footer)


def shipped_configs():
    """Every example and benchmark config, sorted by path."""
    root = Path(__file__).resolve().parents[1]
    return sorted([*root.glob("configs/*.cfg"),
                   *root.glob("perfbench/configs/*.cfg")])


def test_shipped_configs_pass_the_key_rules():
    # every example and benchmark config must load under the key rules, and
    # every experiment kind has one
    paths = shipped_configs()
    assert len(paths) >= 11
    configs = [ExperimentConfig.from_file(path) for path in paths]
    for config in configs:
        if config.family:
            assert config.family_spec(n=64).n == 64
    assert {config.kind for config in configs} == set(experiments.EXPERIMENT_KINDS)


def _readme_kind_rows():
    """{kind: {column header: cell}} from README's table of experiment kinds."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| kind ") and "`[params]` keys" in line)

    def cells(line):
        return [cell.strip() for cell in line.strip("|").split("|")]

    header = cells(lines[start])
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows[cells(line)[0].strip("`")] = dict(zip(header, cells(line)))
    return rows


def _keys(cell):
    return tuple(key.strip().strip("`") for key in cell.split(","))


def test_readme_lists_the_keys_each_kind_reads():
    rows = _readme_kind_rows()
    assert set(rows) == set(experiments.EXPERIMENT_KINDS)
    for kind, reads in experiments.EXPERIMENT_KINDS.items():
        assert _keys(rows[kind]["`[params]` keys"]) == reads.params, kind
        assert _keys(rows[kind]["`[experiment]` keys"]) == reads.experiment, kind
        assert (rows[kind]["`[family]`"] != "none") == ("family" in reads.sections)


MALFORMED_BODY = ("[experiment]\nkind = family-verify\ntrials = 0\n"
                  "[params]\nn_list = 16\n")


@pytest.mark.parametrize("text", [
    MALFORMED_BODY + "[params]\nn_list = 64\n",
    MALFORMED_BODY + "n_list = 64\n",
    "n_list = 16\n" + MALFORMED_BODY,
], ids=["duplicate-section", "duplicate-key", "text-before-header"])
def test_malformed_config_names_the_file(tmp_path, capsys, text):
    cfg = tmp_path / "malformed.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed config {cfg}: ")


def test_percent_in_a_value_is_literal(tmp_path, capsys):
    out = tmp_path / "100%d.csv"
    cfg = tmp_path / "percent.cfg"
    cfg.write_text("[experiment]\nkind = family-verify\ntrials = 0\n"
                   f"output = {out}\n[params]\nn_list = 16\n")
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().startswith("n,stage,quantity")


@pytest.mark.parametrize("family", ["kind = PolynomialKWise\nk = 4",
                                    "kind = FullyIndependent"],
                         ids=["PolynomialKWise", "FullyIndependent"])
def test_family_verify_rejects_other_kinds(tmp_path, capsys, family):
    cfg = tmp_path / "kwise.cfg"
    cfg.write_text("[experiment]\nkind = family-verify\ntrials = 0\n"
                   f"[family]\n{family}\n[params]\nn_list = 16\n")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: family-verify checks AdversarialStage")
    assert family.split("\n")[0].split()[-1] in captured.err


def scipy_modules_after(code):
    """True when a fresh interpreter that runs code holds any scipy module."""
    code = ("import sys\n" + code + "\nprint(any(m == 'scipy' or "
            "m.startswith('scipy.') for m in sys.modules))")
    src = str(Path(kwalks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1] == "True"


def test_cli_import_leaves_scipy_unloaded():
    # no scipy module is loaded by importing the CLI
    assert not scipy_modules_after("import kwalks.cli, kwalks.experiments")


def test_matrix_check_run_leaves_scipy_unloaded(tmp_path):
    # a run that factors the matrix loads scipy's LAPACK wrapper from its
    # file, and no module of the scipy package
    cfg = write_config(tmp_path / "mc.cfg", """
        [experiment]
        kind = matrix-check
        [params]
        n_list = 8 64
        gaussian_vectors = 10
        """)
    out = tmp_path / "mc.csv"
    assert not scipy_modules_after(
        "from kwalks.cli import main\n"
        f"assert main(['run', {cfg!r}, '--output', {str(out)!r}]) == 0")
    assert out.read_text().count("\n64,") == 4


@pytest.mark.parametrize("params,message", [
    ("n_list = 16 64\nmin_r2 = nan", "min_r2 needs finite float values, got 'nan'"),
    ("n_list = 16 64 256\nmax_slope_se_mult = inf",
     "max_slope_se_mult needs finite float values, got 'inf'"),
    ("n_list = 16 64 256\nmin_slope = steep",
     "min_slope needs float values, got 'steep'"),
    ("n_list = 16 64\nmin_r2 = 0.5",
     "n_list needs at least 3 sizes to fit a growth slope, got 2"),
    ("n_list = 16", "n_list needs at least 3 sizes to fit a growth slope, got 1"),
], ids=["min_r2-nan", "max_slope_se_mult-inf", "min_slope-text", "two-sizes",
        "one-size"])
def test_walk_scaling_reads_its_gates_before_any_draw(tmp_path, capsys,
                                                      monkeypatch, params, message):
    def no_draws(task):
        raise AssertionError("a chunk ran before the gates were read")

    monkeypatch.setattr(kwalks.parallel, "_run_chunk", no_draws)
    cfg = write_config(tmp_path / "ws.cfg", "[experiment]\nkind = walk-scaling\n"
                       "trials = 100\n[family]\nkind = FullyIndependent\n"
                       f"[params]\n{params}\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_experiments_import_leaves_numpy_ma_unloaded():
    # no kwalks code path calls into numpy.ma, so no process pays its import
    code = "import sys, kwalks.experiments; print('numpy.ma' in sys.modules)"
    src = str(Path(kwalks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_family_verify_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "fam.cfg", """
        [experiment]
        kind = family-verify
        trials = 0
        seed = 7
        [family]
        kind = AdversarialStage
        stage = H
        [params]
        n_list = 16 64
    """)
    out_csv = tmp_path / "fam.csv"
    assert main(["run", cfg, "--output", str(out_csv)]) == 0
    printed = capsys.readouterr().out
    assert "covariance=identity: PASS" in printed
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "n,stage,quantity,value,expected,seed,trials"


def test_family_verify_detects_corruption(tmp_path, monkeypatch):
    # Flip one sign in the correlation table.  The symbolic mixture algebra
    # re-balances around any table, so the exact identity still holds; what
    # breaks is the sampled distribution, whose pair modes now reinforce the
    # true correlation instead of cancelling it.  The empirical cross-check
    # must catch that.
    cfg = write_config(tmp_path / "fam.cfg", """
        [experiment]
        kind = family-verify
        trials = 10000
        [family]
        kind = AdversarialStage
        stage = H
        [params]
        n_list = 16
    """)
    real_g_table = sf.g_table

    def corrupted(root):
        table = [list(row) for row in real_g_table(root)]
        table[0][2] = -table[0][2]
        table[2][0] = -table[2][0]
        return table

    monkeypatch.setattr(sf, "g_table", corrupted)
    sf.adversarial_params.cache_clear()
    sf.make_sampler.cache_clear()
    try:
        table = run(ExperimentConfig.from_file(cfg))
        assert not table.all_passed
        failed = [c.name for c in table.checks if not c.passed]
        assert any("empirical" in name for name in failed)
    finally:
        monkeypatch.undo()
        sf.adversarial_params.cache_clear()
        sf.make_sampler.cache_clear()


FAMILY_1024 = """
    [experiment]
    kind = family-verify
    trials = 1000
    seed = 6
    [family]
    kind = AdversarialStage
    stage = H
    [params]
    n_list = 1024
"""


def _empirical_check(table):
    (check,) = [c for c in table.checks if "empirical" in c.name]
    return check


def test_family_verify_tolerance_grows_with_n(tmp_path):
    # A correct family at n = 1024: the largest of its n^2 entry deviations
    # at seed 6 lies above 5 / sqrt(trials), the tolerance that fits n = 64,
    # and below the tolerance scaled by sqrt(log n / log 64).
    table = run(ExperimentConfig.from_file(
        write_config(tmp_path / "fam.cfg", FAMILY_1024)))
    worst, tol = (float(v) for v in table.rows[-1][3:5])
    assert 5 / 1000 ** 0.5 < worst <= tol
    assert tol == pytest.approx(5 / 1000 ** 0.5 * (10 / 6) ** 0.5)
    check = _empirical_check(table)
    assert check.passed and check.name == "n=1024 empirical moments within 0.2"


def test_family_verify_scaled_tolerance_detects_corruption(tmp_path, monkeypatch):
    # Shifting one off-diagonal block of the expected table by 0.3, above
    # the scaled tolerance of 0.204 at n = 1024, still fails the check.
    real = sf.MomentSummary.second_moments_float

    def shifted(self):
        table = real(self)
        table[:self.root, self.root:2 * self.root] += 0.3
        return table

    monkeypatch.setattr(sf.MomentSummary, "second_moments_float", shifted)
    table = run(ExperimentConfig.from_file(
        write_config(tmp_path / "fam.cfg", FAMILY_1024)))
    assert not _empirical_check(table).passed


def _stage_checks(tmp_path, stage):
    cfg = write_config(tmp_path / "stage.cfg", f"""
        [experiment]
        kind = family-verify
        trials = 0
        [family]
        kind = AdversarialStage
        stage = {stage}
        [params]
        n_list = 16 64 256
    """)
    return {c.name: c.passed for c in run(ExperimentConfig.from_file(cfg)).checks}


@pytest.mark.parametrize("stage,name", [("H1", "H1 means"), ("H2", "H2 moments"),
                                        ("H3", "H3 correlations")])
def test_family_verify_stage_lines_pass(tmp_path, stage, name):
    assert _stage_checks(tmp_path, stage) == {
        f"n={n} {name}": True for n in (16, 64, 256)}


@pytest.fixture
def fresh_params():
    sf.adversarial_params.cache_clear()
    sf.make_sampler.cache_clear()
    yield
    sf.adversarial_params.cache_clear()
    sf.make_sampler.cache_clear()


def test_family_verify_h2_line_fails_on_a_corrupted_g(tmp_path, monkeypatch,
                                                      fresh_params):
    # g's rows shifted by one block: the moment tables copy g, so only a
    # law summed from f apart from g can tell
    real_g_table = sf.g_table
    monkeypatch.setattr(sf, "g_table", lambda root: [
        row[1:] + row[:1] for row in real_g_table(root)])
    assert not any(_stage_checks(tmp_path, "H2").values())


def test_family_verify_h1_line_fails_on_a_corrupted_bias(tmp_path, monkeypatch,
                                                         fresh_params):
    # the sampler's bias table built from f in reverse block order
    monkeypatch.setattr(sf.AdversarialParams, "h1_bias", property(
        lambda self: np.repeat([0.5 + float(v) / 2 for v in self.f[::-1]],
                               self.root)))
    assert not any(_stage_checks(tmp_path, "H1").values())


def test_family_verify_refuses_large_empirical_check(tmp_path, capsys,
                                                     monkeypatch):
    # n x n sample moments at n=16384 would take 2 GiB; refuse before any
    # exact table is built or any sign drawn
    cfg = write_config(tmp_path / "fam.cfg", """
        [experiment]
        kind = family-verify
        trials = 10
        [family]
        kind = AdversarialStage
        stage = H
        [params]
        n_list = 16 16384
    """)

    def unreachable(*args):
        raise AssertionError("work started despite the size limit")

    monkeypatch.setattr(experiments, "exact_moments", unreachable)
    monkeypatch.setattr(experiments, "make_sampler", unreachable)
    with pytest.raises(sf.ResourceLimitError, match="n=16384"):
        run(ExperimentConfig.from_file(cfg))
    assert main(["run", cfg]) == 2
    assert "n x n float64" in capsys.readouterr().err


def test_matrix_check_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "mat.cfg", """
        [experiment]
        kind = matrix-check
        seed = 5
        [params]
        n_list = 8 64
        gaussian_vectors = 50
    """)
    assert main(["run", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "n=8 trace" in names


def test_matrix_check_refuses_large_n_before_the_first_row(tmp_path, capsys,
                                                          monkeypatch):
    # the solve keeps one n x n float64 array alive, 8 n^2 bytes
    def unreachable(n):
        raise AssertionError(f"dense_matrix({n}) reached")

    monkeypatch.setattr(dyadic_matrix, "dense_matrix", unreachable)
    cfg = write_config(tmp_path / "mat.cfg", """
        [experiment]
        kind = matrix-check
        [params]
        n_list = 8 8192
    """)
    out = tmp_path / "mat.csv"
    assert main(["run", cfg, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: the certificate matrix at n=8192 needs "
                            "about 0.5 GiB for one n x n float64 array; the "
                            "limit is 4096\n")
    assert captured.out == "" and not out.exists()


def test_walk_scaling_run_csv_reproducible(tmp_path):
    cfg = write_config(tmp_path / "walk.cfg", """
        [experiment]
        kind = walk-scaling
        trials = 500
        seed = 11
        [family]
        kind = FullyIndependent
        [params]
        n_list = 16 64 256
        moment_order = 1
    """)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", cfg, "--output", str(out1)]) == 0
    assert main(["run", cfg, "--output", str(out2)]) == 0

    def data_rows(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("#")]

    assert data_rows(out1) == data_rows(out2)


def test_walk_scaling_workers_identical(tmp_path):
    cfg = write_config(tmp_path / "walk.cfg", """
        [experiment]
        kind = walk-scaling
        trials = 2100
        seed = 3
        [family]
        kind = PolynomialKWise
        k = 4
        [params]
        n_list = 16 64 256
        moment_order = 2
    """)
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["run", cfg, "--output", str(out1), "--workers", "1"]) == 0
    assert main(["run", cfg, "--output", str(out2), "--workers", "3"]) == 0

    def data_rows(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("#")]

    assert data_rows(out1) == data_rows(out2)


# The fit footer of a small seeded H1 run, recorded before walk-scaling's
# estimates reached the fit as plain ColumnMoments columns; compared with ==.
PINNED_H1_FIT = {"slope": 0.2954531249999999, "intercept": 0.3544270833333334,
                 "r_squared": 0.9999086747998188,
                 "slope_stderr": 0.0028236036602555348,
                 "slope_stderr_propagated": 0.00562892430383989}


def test_walk_scaling_fit_footer_is_pinned(tmp_path, capsys):
    cfg = write_config(tmp_path / "h1.cfg", """
        [experiment]
        kind = walk-scaling
        trials = 1000
        seed = 20250810
        [family]
        kind = AdversarialStage
        stage = H1
        [params]
        n_list = 16 64 256
        moment_order = 1
    """)
    out = tmp_path / "h1.csv"
    assert main(["run", cfg, "--output", str(out)]) == 0
    footer = out.read_text().splitlines()
    for key, value in PINNED_H1_FIT.items():
        assert f"# {key}={value!r}" in footer


def test_moment_sums_past_float64_exit_2_without_a_csv(tmp_path, capsys):
    # (sup |S|)^90 over 200 walks: the sums of squares pass float64 from
    # n = 1024 on, which used to write stderr = nan rows
    cfg = write_config(tmp_path / "overflow.cfg", """
        [experiment]
        kind = walk-scaling
        trials = 200
        seed = 1
        [family]
        kind = FullyIndependent
        [params]
        n_list = 16 64 256 1024 4096
        moment_order = 90
    """)
    out = tmp_path / "overflow.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: moment sums overflow float64 at n=1024; "
                            "use a lower moment order\n")
    assert not out.exists()


def test_high_moment_order_with_small_suprema_still_runs(tmp_path):
    # k = 60 is far past float64 as a bound on m^k, but the realized suprema
    # of the identity stream are small enough; rows recorded before the
    # overflow check was added
    cfg = write_config(tmp_path / "k60.cfg", """
        [experiment]
        kind = stream-track
        trials = 200
        seed = 1
        [family]
        kind = FullyIndependent
        [params]
        generators = identity
        m_list = 64 256 1024
        k = 60
    """)
    out = tmp_path / "k60.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--output", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines()
            if not line.startswith("#")]
    assert rows == [
        "generator,m,k,mean,stderr,normalized,trials,seed",
        "identity,64,60,3.761588505088281e+81,3.752166150411269e+81,"
        "2.454551027902445e+27,200,1",
        "identity,256,60,2.781419769610577e+96,2.0848791883629944e+96,"
        "1.5742278010685947e+24,200,1",
        "identity,1024,60,1.5635801861082116e+116,1.2613425572319716e+116,"
        "7.675761274092825e+25,200,1",
    ]


def test_net_audit_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "net.cfg", """
        [experiment]
        kind = net-audit
        seed = 2
        [params]
        generators = identity uniform
        m_list = 64 256
        realizations = 20
    """)
    assert main(["run", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True


def test_stream_track_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "track.cfg", """
        [experiment]
        kind = stream-track
        trials = 400
        seed = 6
        [family]
        kind = PolynomialKWise
        k = 4
        [params]
        generators = uniform
        m_list = 64 256
        k = 4
        max_norm_ratio = 3
    """)
    assert main(["run", cfg]) == 0
    assert "normalized order-4 ratio: PASS" in capsys.readouterr().out


def test_maximal_mc_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "tail.cfg", """
        [experiment]
        kind = maximal-mc
        trials = 2000
        seed = 9
        [params]
        n = 256
        lambda_mults = 2 4
    """)
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "tail bound: PASS" in out


# sha256 of the data rows (header included) that configs/maximal_mc.cfg
# writes at --trials 2048: the runner's bound arithmetic, byte for byte
MAXIMAL_MC_2048_ROWS = "61edade4153c73f0cbbfad2633b644f5f98cedbc9c088ae7e6c3d50958f9d4b8"


def test_pinned_maximal_mc_rows(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "maximal_mc.cfg"
    out_csv = tmp_path / "tail.csv"
    assert main(["run", str(cfg), "--trials", "2048",
                 "--output", str(out_csv)]) == 0
    rows = "".join(line for line in out_csv.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))
    assert hashlib.sha256(rows.encode()).hexdigest() == MAXIMAL_MC_2048_ROWS


def test_dump_matrix(tmp_path, capsys):
    assert main(["dump-matrix", "--n", "8"]) == 0
    rows = [line.split(",") for line in
            capsys.readouterr().out.strip().splitlines()]
    mat = np.array([[int(v) for v in row] for row in rows])
    assert mat[0, 0] == 3 and mat[6, 7] == 2
    assert main(["dump-matrix", "--n", "128"]) == 2


def test_dump_net(tmp_path, capsys):
    assert main(["dump-net", "--generator", "identity", "--m", "16"]) == 0
    reader = csv.reader(capsys.readouterr().out.strip().splitlines())
    rows = list(reader)
    assert rows[0] == ["level", "s", "time", "parent_s"]
    assert rows[1] == ["0", "0", "0", ""]


def test_dump_net_from_file(tmp_path, capsys):
    from kwalks import streams

    path = tmp_path / "stream.txt"
    items = streams.uniform_stream(32, n=8, seed=3).items
    path.write_text("".join(f"{int(p)}\n" for p in items))
    assert main(["dump-net", "--stream", str(path), "--n", "8"]) == 0
    assert "level" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("", "holds no items"),
    ("  \n\n", "holds no items"),
    ("1\n2\nx3\n4\n", "holds a non-integer item"),
])
def test_dump_net_stream_file_errors_name_the_file(tmp_path, capsys, text,
                                                   message):
    path = tmp_path / "stream.txt"
    path.write_text(text)
    assert main(["dump-net", "--stream", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: stream file {path} {message}\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_footer_records_workers(tmp_path, capsys, workers):
    own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # 1100 trials make two chunks, so workers=2 starts a pool
    cfg = write_config(tmp_path / "walk.cfg", """
        [experiment]
        kind = walk-scaling
        trials = 1100
        seed = 5
        [family]
        kind = FullyIndependent
        [params]
        n_list = 16 64 256
        moment_order = 1
    """)
    out = tmp_path / "w.csv"
    main(["run", cfg, "--output", str(out), "--workers", str(workers),
          "--json"])
    metadata = json.loads(capsys.readouterr().out)["metadata"]
    footer = out.read_text().splitlines()
    assert metadata["workers"] == workers
    assert f"# workers={workers}" in footer
    assert f"# peak_rss_mb={metadata['peak_rss_mb']}" in footer
    assert float(metadata["peak_rss_mb"]) >= round(own_peak_mb, 1)
    provenance = {"rng_bit_generator": "Philox", "trial_chunk": 1024,
                  "tile_signs": sf.TILE_SIGNS, "numpy_version": np.__version__}
    assert {key: metadata[key] for key in provenance} == provenance
    for key, value in provenance.items():
        assert f"# {key}={value}" in footer


def test_shipped_configs_rows_do_not_depend_on_workers(tmp_path, capsys):
    # 1100 trials make two chunks per job, so workers=2 splits every job
    # across the pool
    sampled = [path for path in shipped_configs()
               if "workers" in experiments.EXPERIMENT_KINDS[
                   ExperimentConfig.from_file(path).kind].experiment]
    assert len(sampled) >= 9
    for path in sampled:
        rows = []
        for workers in (1, 2):
            out = tmp_path / f"{path.stem}-{workers}.csv"
            # some shipped configs FAIL a gate (exit 1); the rows still count
            assert main(["run", str(path), "--trials", "1100", "--workers",
                         str(workers), "--output", str(out)]) in (0, 1)
            rows.append([line for line in out.read_text().splitlines()
                         if not line.startswith("#")])
        assert len(rows[0]) > 1 and rows[0] == rows[1], path.name
    capsys.readouterr()


def test_dump_net_requires_source():
    with pytest.raises(SystemExit):
        main(["dump-net"])


@pytest.mark.parametrize("argv, message", [
    (["--generator", "identity", "--m", "4", "--n", "999"],
     "error: --n is read only with --stream"),
    (["--stream", "STREAM", "--m", "64"], "error: --m is read only with --generator"),
    (["--stream", "STREAM", "--generator", "identity", "--m", "4"],
     "error: argument --generator: not allowed with argument --stream"),
    (["--generator", "identity"], "error: --generator needs --m"),
    ([], "error: one of the arguments --stream --generator is required"),
], ids=["generator-n", "stream-m", "both-sources", "generator-no-m", "no-source"])
def test_dump_net_rejects_flags_it_does_not_read(tmp_path, capsys, argv, message):
    path = tmp_path / "stream.txt"
    path.write_text("1\n2\n3\n")
    argv = ["dump-net"] + [str(path) if a == "STREAM" else a for a in argv]
    try:
        status = main(argv)
    except SystemExit as exc:      # argparse's own usage errors
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(message)
