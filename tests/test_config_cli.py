"""Config parsing, manifest round-trips, reporting format, CLI exit codes."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oscidec import ConfigError, manifest_text, parse_config
from oscidec.cli import main
from oscidec.reporting import write_csv


# ---------------------------------------------------------------- config ----

def test_empty_config_gets_defaults():
    cfg = parse_config("")
    assert cfg["model.kind"] == "two_mode"
    assert cfg["model.coupling"] == 0.25
    assert cfg["run.t_steps"] == 101
    assert cfg["run.allow_positivity_violation"] is False
    assert cfg["oracle.negativity_time"] is None


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nmodel.coupling = 0.3\n")
    assert cfg["model.coupling"] == 0.3


def test_cm_amplitudes_default_to_open_pair():
    cfg = parse_config("state.alpha_x = 3.0\nstate.beta_x = -3.0\n")
    assert cfg["state.cm_alpha_x"] == 3.0
    assert cfg["state.cm_beta_x"] == -3.0
    assert cfg["state.cm_alpha_p"] == 0.0
    explicit = parse_config("state.alpha_x = 3.0\nstate.cm_alpha_x = 0.25\n")
    assert explicit["state.cm_alpha_x"] == 0.25


def test_manifest_round_trip():
    text = ("model.kind = caldeira_leggett\n"
            "bath.kind = explicit\n"
            "bath.masses = 1.0,2.0\n"
            "bath.freqs = 0.9,1.3\n"
            "bath.couplings = 0.1,-0.15\n"
            "run.allow_positivity_violation = yes\n"
            "run.t_max = 1.75\n")
    cfg = parse_config(text)
    again = parse_config(manifest_text(cfg))
    assert again.values == cfg.values
    assert manifest_text(again) == manifest_text(cfg)


def test_all_syntax_errors_reported_together():
    text = ("model.kind = nonsense\n"
            "no_equals_sign_here\n"
            "bogus.key = 1\n"
            "model.coupling = fast\n"
            "model.coupling = 0.2\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    errors = exc.value.errors
    assert len(errors) == 5
    joined = "\n".join(errors)
    assert "expected 'section.key = value'" in joined
    assert "unknown key 'bogus.key'" in joined
    assert "model.coupling" in joined
    assert "duplicate key 'model.coupling'" in joined
    assert "must be one of" in joined


def test_semantic_errors_collected():
    text = ("model.coupling = 5.0\n"       # violates the confinement bound
            "run.t_steps = 0\n"
            "oracle.dim = 1\n"
            "master.lam = -0.1\n"
            "master.t_steps = 0\n"
            "master.t_max = -0.5\n"
            "state.temperature = -5\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    joined = "\n".join(exc.value.errors)
    assert "model:" in joined
    assert "run.t_steps" in joined
    assert "oracle.dim" in joined
    assert "master:" in joined
    assert "master.t_steps: must be >= 1" in joined
    assert "master.t_max: must be >= 0" in joined
    assert "state.temperature: must be >= 0" in joined


def test_master_programming_error_is_not_a_config_error(monkeypatch):
    import oscidec.config as config

    def broken(*args):
        raise TypeError("broken scenario class")

    monkeypatch.setattr(config, "MasterEqScenario", broken)
    with pytest.raises(TypeError, match="broken scenario class"):
        parse_config("")


@pytest.mark.parametrize("key, value", [
    ("master.lam", "nan"), ("bath.eta", "nan"), ("master.x0", "nan"),
    ("model.m_s", "nan"), ("state.temperature", "inf"),
    ("run.t_max", "-inf"), ("bath.couplings", "0.1,nan")])
def test_non_finite_values_are_refused_by_key(tmp_path, capsys, key, value):
    cfg = _cfg_file(tmp_path, f"{key} = {value}\n")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    bad = value.split(",")[-1]
    assert capsys.readouterr().err == (
        f"config error: {key}: not a finite number: {bad!r}\n")


def test_run_workers_is_an_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("run.workers = 0\n")
    assert exc.value.errors == ["line 1: unknown key 'run.workers'"]


def test_t_grid_shapes():
    cfg = parse_config("run.t_steps = 5\nrun.t_max = 2.0\n")
    assert cfg.t_grid() == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    single = parse_config("run.t_steps = 1\n")
    assert single.t_grid() == [0.0]


def test_bath_construction_modes():
    ohmic = parse_config("bath.n = 8\nbath.omega_cutoff = 4.0\nbath.eta = 0.2\n")
    b = ohmic.bath()
    assert b.n == 8
    assert b.freqs[-1] == pytest.approx(4.0)
    assert b.coupling_sign == -1
    explicit = parse_config("bath.kind = explicit\n"
                            "bath.masses = 1.0,2.0\n"
                            "bath.freqs = 1.0,1.5\n"
                            "bath.couplings = 0.1,0.2\n"
                            "model.coupling_sign = 1\n")
    e = explicit.bath()
    assert e.masses == (1.0, 2.0)
    assert e.coupling_sign == 1


# ------------------------------------------------------------- reporting ----

def test_write_csv_cell_formats(tmp_path):
    path = tmp_path / "t.csv"
    # a tuple cell is comma-joined, as the manifest writes bath lists
    columns = [[True, np.bool_(False)], [0.1, np.float64(2.0)], [None, "s"],
               [3, np.int64(-1)], [(0.5, 1.0), ()], np.array([0.25, -0.0])]
    write_csv(path, ["a", "b", "c", "d", "e", "f"], columns, "deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest_sha256=deadbeef"
    assert lines[1] == "a,b,c,d,e,f"
    assert lines[2] == "true,0.1,,3,0.5,1.0,0.25"
    assert lines[3] == "false,2.0,s,-1,,-0.0"


# ------------------------------------------------------------------- cli ----

TWO_MODE_FAST = ("model.kind = two_mode\n"
                 "model.coupling = 0.25\n"
                 "state.alpha_x = 0.4\n"
                 "state.beta_x = -0.4\n"
                 "run.t_max = 1.0\n"
                 "run.t_steps = 5\n"
                 "oracle.dim = 16\n")

CHAIN_FAST = ("model.kind = caldeira_leggett\n"
              "model.potential = harmonic\n"
              "model.omega_s = 1.0\n"
              "bath.kind = explicit\n"
              "bath.masses = 1.0,1.0\n"
              "bath.freqs = 0.9,1.3\n"
              "bath.couplings = 0.1,0.15\n"
              "state.temperature = 1.0\n"
              "state.cm_alpha_x = 0.3\n"
              "state.cm_beta_x = -0.3\n"
              "run.t_max = 1.0\n"
              "run.t_steps = 5\n")


def _cfg_file(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_build_and_manifest(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, TWO_MODE_FAST)
    out = tmp_path / "out"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "hamiltonian.csv").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "model.kind = two_mode" in manifest
    assert "modes=2" in capsys.readouterr().out


def test_cli_transform_two_mode(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, TWO_MODE_FAST)
    out = tmp_path / "out"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "transform_cm.csv").exists()
    assert (out / "constants_residuals.csv").exists()
    assert "positivity_ok=True" in capsys.readouterr().out


def test_cli_transform_chain_emits_normal_modes(tmp_path):
    cfg = _cfg_file(tmp_path, CHAIN_FAST)
    out = tmp_path / "out"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "transform_modes.csv").exists()
    assert (out / "hamiltonian_modes.csv").exists()


def test_cli_evolve_and_decohere(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, TWO_MODE_FAST)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "moments.csv").exists()
    assert main(["decohere", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "decoherence.csv").read_text()
    assert text.splitlines()[1] == "decomposition,t,log_overlap,lambda,saturated"
    assert "energy drift" in capsys.readouterr().out


def test_cli_decohere_reruns_are_byte_identical(tmp_path):
    cfg = _cfg_file(tmp_path, TWO_MODE_FAST)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["decohere", "--config", cfg, "--out", str(a)]) == 0
    assert main(["decohere", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "decoherence.csv").read_bytes() == (b / "decoherence.csv").read_bytes()
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()


def test_cli_oracle_trusted_run(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, TWO_MODE_FAST)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "crosscheck.csv").exists()
    assert "sign_agrees" in capsys.readouterr().out


def test_cli_oracle_untrusted_everywhere_exits_2(tmp_path, capsys):
    text = TWO_MODE_FAST + "oracle.x0 = 2.5\n"
    text = text.replace("oracle.dim = 16", "oracle.dim = 4")
    cfg = _cfg_file(tmp_path, text)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 2
    assert "no trusted times" in capsys.readouterr().err


def test_cli_compare_requires_chain(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, TWO_MODE_FAST)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "caldeira_leggett" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, code, err", [
    ("compare", TWO_MODE_FAST, 1,
     "error: compare requires model.kind = caldeira_leggett\n"),
    ("oracle", CHAIN_FAST, 1, "error: oracle requires model.kind = two_mode\n"),
    ("oracle",
     TWO_MODE_FAST.replace("oracle.dim = 16", "oracle.dim = 4")
     + "oracle.x0 = 2.5\n", 2,
     "trust gate 'oracle leakage': no trusted times: truncation leakage "
     "above gate everywhere\n")],
    ids=["compare-on-two-mode", "oracle-on-chain", "oracle-leakage"])
def test_cli_refusals_are_reported_by_main(tmp_path, capsys, command, text,
                                           code, err):
    cfg = _cfg_file(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    # the leakage refusal comes after crosscheck.csv is written
    assert (out / "crosscheck.csv").exists() == (code == 2)


def test_cli_compare_chain(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, CHAIN_FAST)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "comparison.csv").exists()
    assert (out / "decoherence_both.csv").exists()
    assert "frame residual" in capsys.readouterr().out
    rows = dict(line.split(",", 1) for line in
                (out / "comparison.csv").read_text().splitlines()[2:])
    assert rows["ratio_flag"] in ("within", "outside", "undefined")
    assert float(rows["frame_residual"]) < 1e-9


def test_cli_compare_positivity_gate_exits_2(tmp_path, capsys):
    text = CHAIN_FAST.replace("bath.couplings = 0.1,0.15",
                              "bath.couplings = 2.0,2.0")
    cfg = _cfg_file(tmp_path, text)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "positivity" in capsys.readouterr().err
    override = text + "run.allow_positivity_violation = true\n"
    cfg2 = _cfg_file(tmp_path, override, name="override.cfg")
    assert main(["compare", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 0


def test_cli_rejects_workers_key_and_flag(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, CHAIN_FAST + "run.workers = 2\n")
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'run.workers'" in capsys.readouterr().err
    # a usage error is invalid input too: exit 1, never the trust-gate 2
    cfg = _cfg_file(tmp_path, CHAIN_FAST, name="plain.cfg")
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "2"]) == 1


def test_cli_rejects_removed_seed_and_decompositions(tmp_path, capsys):
    for key, value in (("run.seed", "7"), ("run.decompositions", "both"),
                       ("master.dt", "0.001")):
        cfg = _cfg_file(tmp_path, TWO_MODE_FAST + f"{key} = {value}\n")
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err
    cfg = _cfg_file(tmp_path, TWO_MODE_FAST, name="plain.cfg")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "7"]) == 1
    assert main(["decohere", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--oracle"]) == 1


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _shipped(tmp_path, name, values):
    """A shipped config with some `key = value` lines replaced."""
    lines = (CONFIGS / name).read_text().splitlines()
    for key, value in values.items():
        hits = [i for i, ln in enumerate(lines) if ln.startswith(key + " =")]
        assert len(hits) == 1, key
        lines[hits[0]] = f"{key} = {value}"
    return _cfg_file(tmp_path, "\n".join(lines) + "\n", name=name)


def test_cli_decohere_rows_equal_compare_open_rows(tmp_path):
    """decohere and compare run the same S+E pass on the shipped chain."""
    cfg = _shipped(tmp_path, "chain_compare.cfg", {})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["decohere", "--config", cfg, "--out", str(a)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(b)]) == 0
    alone = (a / "decoherence.csv").read_bytes().splitlines()[2:]
    both = [ln for ln in (b / "decoherence_both.csv").read_bytes().splitlines()
            if ln.startswith(b"S+E,")]
    assert len(alone) == 201 and alone == both


def test_readme_library_example_reproduces_shipped_compare(tmp_path):
    """README's library example computes `compare` on the shipped chain."""
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    cmp = scope["cmp"]
    cfg = _shipped(tmp_path, "chain_compare.cfg", {})
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    lines = (tmp_path / "c" / "comparison.csv").read_text().splitlines()[2:]
    values = dict(ln.split(",", 1) for ln in lines)
    assert float(values["tau_open"]) == cmp.report_s.tau_dec
    assert float(values["tau_cm"]) == cmp.report_cm.tau_dec


def test_cli_oracle_reports_projection_norm_on_shipped_config(tmp_path,
                                                              capsys):
    """The CM|relative amplitude at d_out = 24 holds the whole state."""
    cfg = _shipped(tmp_path, "two_mode_oracle.cfg", {})
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("negativity dense=")]
    norm = float(line.rsplit("projection_norm=", 1)[1])
    assert abs(norm - 1.0) < 1e-9


def _drifting_master_solver(monkeypatch):
    """The exact solve conserves the trace; only a faulty solver trips the
    gate, so stand one in that scales every state by 1 + 1e-6."""
    import oscidec.master as master
    exact = master._sector_flow
    monkeypatch.setattr(master, "_sector_flow",
                        lambda *args: exact(*args) * (1 + 1e-6))


def _drifting_dephasing(monkeypatch):
    """The same fault in the closed-form solve of variant `none`."""
    import oscidec.master as master
    exact = master._dephase
    monkeypatch.setattr(master, "_dephase",
                        lambda *args: exact(*args) * (1 + 1e-6))


@pytest.mark.parametrize("command, name, values, gate, message, rig", [
    ("master-eq", "dephasing_master.cfg", {},
     "master trace drift", "exceeds the bound 1e-08", _drifting_master_solver),
    ("evolve", "two_mode_oracle.cfg", {"run.t_max": 5000},
     "uncertainty relation", "violates the uncertainty relation", None),
    ("master-eq", "dephasing_master.cfg", {"master.variant": "none"},
     "master trace drift", "exceeds the bound 1e-08", _drifting_dephasing),
    ("oracle", "two_mode_oracle.cfg",
     {"run.t_max": 60.0, "run.t_steps": 61, "oracle.dim": 8},
     "uncertainty relation", "violates the uncertainty relation", None),
    # the gate clears every evolved covariance, but the purity read finds
    # det(2 sigma) < 1 at t = 60
    ("evolve", "two_mode_oracle.cfg", {"run.t_max": 60},
     "uncertainty relation", "degenerate covariance", None),
])
def test_cli_trust_refusals_exit_2_and_name_the_gate(
        tmp_path, capsys, monkeypatch, command, name, values, gate, message, rig):
    if rig is not None:
        rig(monkeypatch)
    cfg = _shipped(tmp_path, name, values)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"trust gate '{gate}'" in err and message in err


@pytest.mark.parametrize("values", [{"bath.n": 64}, {"run.t_max": 10}],
                         ids=["n64", "t10"])
def test_cli_compare_runs_a_larger_bath_and_longer_times(tmp_path, values):
    # a larger bath and longer times, t ||h|| = 1.03e3 and 2.6e3 in the
    # CM+R frame: the propagator is exact at any t
    cfg = _shipped(tmp_path, "chain_compare.cfg", values)
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "comparison.csv").exists()


@pytest.mark.parametrize("eta, sign, code", [
    (0.15, -1, 2), (0.15, 1, 2), (0.1, -1, 0), (0.095, -1, 0)])
def test_cli_compare_confinement_sees_whole_potential_block(
        tmp_path, capsys, eta, sign, code):
    # at eta = 0.15 every diagonal constant is positive, yet the position
    # block of h has eigenvalue -0.288; eta = 0.1 sits exactly on the edge
    cfg = _shipped(tmp_path, "chain_compare.cfg", {
        "bath.eta": eta, "model.coupling_sign": sign, "run.t_steps": 3})
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    if code == 2:
        assert "trust gate 'confinement positivity'" in capsys.readouterr().err


def test_cli_master_eq(tmp_path, capsys):
    text = (TWO_MODE_FAST
            + "master.dim = 16\n"
            + "master.t_max = 0.1\nmaster.t_steps = 3\nmaster.x0 = 1.0\n")
    cfg = _cfg_file(tmp_path, text)
    out = tmp_path / "out"
    assert main(["master-eq", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "visibility.csv").exists()
    assert "trace drift" in capsys.readouterr().out


@pytest.mark.parametrize("values", [{}, {"master.t_max": 5.0, "master.t_steps": 2}])
def test_cli_master_eq_ignores_global_rng(tmp_path, values):
    # the Taylor steps read only exact norms, so no random norm estimate
    # runs; the one long interval takes 33 sub-steps
    cfg = _shipped(tmp_path, "dephasing_master.cfg", values)
    written = []
    for seed in (0, 12345):
        np.random.seed(seed)
        before = np.random.get_state()
        out = tmp_path / f"out{seed}"
        assert main(["master-eq", "--config", cfg, "--out", str(out)]) == 0
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]
        written.append((out / "visibility.csv").read_bytes())
    assert written[0] == written[1]


def test_cli_master_eq_refuses_a_leaking_basis(tmp_path, capsys):
    # dephasing heats the mode, <p^2> grows by 2 Lambda t: by t = 20 the top
    # two of 40 levels hold 4.6e-2 of the population, yet the truncated
    # generator conserves the trace, so only the leakage gate sees it
    cfg = _shipped(tmp_path, "dephasing_master.cfg", {
        "master.variant": "free", "master.lam": 0.5, "master.t_max": 20})
    out = tmp_path / "o"
    assert main(["master-eq", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "trust gate 'master leakage'" in err
    assert "4.636e-02 is not below the bound 1e-06" in err
    assert not (out / "visibility.csv").exists()


def _fresh_interpreter(code: str) -> str:
    """The stdout of `code` run by a new Python process on this source."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return out.stdout


def test_cli_import_leaves_out_unused_scipy_modules():
    # the Gaussian engine and the oracle need only NumPy; scipy.sparse loads
    # on the first master-eq solve, so importing the CLI never pays for SciPy
    code = ("import sys, oscidec.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _fresh_interpreter(code).strip() == "[]"


@pytest.mark.parametrize("command, name", [
    ("compare", "chain_compare.cfg"), ("oracle", "two_mode_oracle.cfg")])
def test_cli_gaussian_and_oracle_runs_never_load_scipy(tmp_path, command, name):
    argv = [command, "--config", str(CONFIGS / name),
            "--out", str(tmp_path / "o")]
    code = ("import sys; from oscidec.cli import main; "
            f"code = main({argv!r}); "
            "print(code, 'scipy' in sys.modules)")
    assert _fresh_interpreter(code).strip().splitlines()[-1] == "0 False"


@pytest.mark.parametrize("variant, loaded", [
    ("none", []), ("harmonic", ["scipy.sparse"])],
    ids=["none", "harmonic"])
def test_cli_master_eq_none_leaves_out_sparse_solver(tmp_path, variant, loaded):
    # variant none is solved in closed form, so scipy.sparse never loads;
    # the Taylor-stepped solver of the other variants loads scipy.sparse
    # for its CSR generator, and never scipy.sparse.linalg
    cfg = _shipped(tmp_path, "dephasing_master.cfg", {"master.variant": variant})
    argv = ["master-eq", "--config", cfg, "--out", str(tmp_path / "o")]
    code = ("import sys; from oscidec.cli import main; "
            f"code = main({argv!r}); "
            "print(code, [m for m in ('scipy.sparse', 'scipy.sparse.linalg') "
            "if m in sys.modules])")
    assert _fresh_interpreter(code).strip().splitlines()[-1] == f"0 {loaded}"


def test_cli_missing_config_exits_1(tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "config not found" in capsys.readouterr().err


def test_cli_invalid_config_exits_1(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "model.kind = bogus\nrun.t_steps = zero\n")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("config error:") == 2
