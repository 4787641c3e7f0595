import csv
import json
import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import kwalks
import kwalks.sign_families as sf
from kwalks import experiments
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
    cfg = write_config(tmp_path / "gen.cfg", f"""
        [experiment]
        kind = {kind}
        trials = 100
        [family]
        kind = FullyIndependent
        [params]
        generators = identity frobnicate
        m_list = 64
    """)
    assert main(["run", cfg]) == 2
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
        kind = matrix-check
        workers = 0
        [params]
        n_list = 8
    """)
    assert main(["run", cfg]) == 2
    assert "error: workers must be at least 1, got workers=0" in capsys.readouterr().err
    assert main(["run", cfg, "--workers", "-2"]) == 2
    assert "got workers=-2" in capsys.readouterr().err
    assert main(["run", cfg, "--workers", "1"]) == 0


@pytest.mark.parametrize("kind,experiment,params,message", [
    ("matrix-check", "", "n_list = 8 abc", "n_list needs int values, got 'abc'"),
    ("matrix-check", "trials = many", "n_list = 8",
     "trials needs int values, got 'many'"),
    ("matrix-check", "seed = 1e3", "n_list = 8", "seed needs int values, got '1e3'"),
    ("matrix-check", "workers = two", "n_list = 8",
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
], ids=["lambda_mults", "realizations", "trials", "gaussian_vectors", "family-k"])
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
], ids=["family-seed", "params-key", "section", "experiment-key",
        "walk-scaling-norm-ratio"])
def test_cli_rejects_keys_a_kind_never_reads(tmp_path, capsys, body, message):
    cfg = tmp_path / "keys.cfg"
    cfg.write_text(body)
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_shipped_configs_pass_the_key_rules():
    # every example and benchmark config must load under the key rules
    root = Path(__file__).resolve().parents[1]
    paths = sorted([*root.glob("configs/*.cfg"),
                    *root.glob("perfbench/configs/*.cfg")])
    assert len(paths) >= 11
    for path in paths:
        config = ExperimentConfig.from_file(path)
        if config.family:
            assert config.family_spec(n=64).n == 64


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg is imported only when a run factors the matrix
    code = ("import sys, kwalks.cli, kwalks.experiments; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
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
    sf._build_sampler.cache_clear()
    try:
        table = run(ExperimentConfig.from_file(cfg))
        assert not table.all_passed
        failed = [c.name for c in table.checks if not c.passed]
        assert any("empirical" in name for name in failed)
    finally:
        monkeypatch.undo()
        sf.adversarial_params.cache_clear()
        sf._build_sampler.cache_clear()


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
        k = 4
        lambda_mults = 2 4
    """)
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "tail bound: PASS" in out


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


def test_dump_net_requires_source():
    with pytest.raises(SystemExit):
        main(["dump-net"])
