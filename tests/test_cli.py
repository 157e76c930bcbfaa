"""CLI behavior: config resolution, exit codes, output files, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fockqha.cli import SETTINGS, main, parse_config_file, resolve_config, build_parser, ConfigError


def run_cli(args):
    return main(args)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmodel.D = 10\n\nconv.m=32\n")
    assert parse_config_file(path) == {"model.D": "10", "conv.m": "32"}


def test_parse_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("model.D 10\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(path)


def test_resolve_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.D=10\nmodel.Q=14\n")
    args = build_parser().parse_args(["--config", str(path), "--D", "12", "verify"])
    cfg = resolve_config(args)
    assert cfg["model.D"] == 12  # flag overrides file
    assert cfg["model.Q"] == 14  # file overrides default


def test_unknown_config_key_is_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.bogus=1\n")
    args = build_parser().parse_args(["--config", str(path), "verify"])
    with pytest.raises(ConfigError, match="unknown"):
        resolve_config(args)


def test_print_config(capsys):
    assert run_cli(["--print-config", "--D", "18"]) == 0
    out = capsys.readouterr().out
    assert "model.D=18" in out
    assert "model.Q=20" in out


def test_verify_passes_on_default_model(tmp_path, capsys):
    code = run_cli(["--D", "16", "--Q", "20", "--outdir", str(tmp_path), "verify"])
    assert code == 0
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["passed"] is True
    assert doc["schema"] == "1"
    assert doc["config"]["model.D"] == 16  # resolved config embedded
    for record in doc["records"]:
        assert set(record) == {"identity", "operands", "residual", "cfg"}
        assert set(record["cfg"]) == {"tolerance"}


def test_verify_rejects_invalid_model(capsys):
    assert run_cli(["--D", "12", "--Q", "4", "verify"]) == 2


@pytest.mark.parametrize("t", ["nan", "inf", "0"])
def test_verify_rejects_a_weight_that_is_not_positive_and_finite(t, tmp_path, capsys):
    argv = ["--t", t, "--D", "4", "--Q", "6", "--outdir", str(tmp_path), "verify"]
    assert run_cli(argv) == 2
    assert "t must be positive and finite" in capsys.readouterr().err


def test_m_flag_is_ignored_and_conv_keys_are_rejected(tmp_path, capsys):
    # every convolution uses the exact order 2D + 1, so --m changes no byte
    # and the retired conv.* keys are unknown
    base = ["--D", "16", "--Q", "20", "--outdir", str(tmp_path)]
    assert run_cli(base + ["verify"]) == 0
    a = (tmp_path / "verify_report.json").read_bytes()
    assert run_cli(base + ["--m", "5", "verify"]) == 0
    assert (tmp_path / "verify_report.json").read_bytes() == a
    assert len(SETTINGS) == 11 and not any(key.startswith("conv.") for key in SETTINGS)
    for key in ("conv.m=48", "conv.window=6.0"):
        path = tmp_path / "run.cfg"
        path.write_text(key + "\n")
        assert run_cli(["--config", str(path), "verify"]) == 2
        assert "unknown config key" in capsys.readouterr().err


def run_module(argv):
    """`python -m fockqha.cli` on argv with this checkout's src/ first on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-m", "fockqha.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def _flag_lines(stdout):
    return [line[6:] for line in stdout.splitlines() if line.startswith("flag  ")]


def test_approx_reports_warnings_as_flags(tmp_path):
    # under `python -m` every frame below the runner is package code, so the
    # fit-node warnings become flag lines and report entries, not stderr
    # lines naming the module runner
    argv = ["--D", "8", "--Q", "12", "--m", "24", "--outdir", str(tmp_path), "approx", "weyl:0.5"]
    proc = run_module(argv)
    assert proc.returncode == 0, proc.stderr
    assert "runpy" not in proc.stderr
    flags = json.loads((tmp_path / "approx_report.json").read_text())["flags"]
    assert flags and all("outside the trusted Berezin window" in f for f in flags)
    assert len(set(flags)) == len(flags)
    assert _flag_lines(proc.stdout) == flags


def test_verify_reports_warnings_as_flags(tmp_path):
    # D = 2 truncates the coherent state at 0.3 by more than the threshold;
    # the tolerances fail too, so the exit status is 1
    proc = run_module(["--D", "2", "--Q", "4", "--m", "8", "--outdir", str(tmp_path), "verify"])
    assert proc.returncode in (0, 1), proc.stderr
    assert "runpy" not in proc.stderr and "Warning" not in proc.stderr
    flags = json.loads((tmp_path / "verify_report.json").read_text())["flags"]
    assert any(f.startswith("kernel truncation defect") for f in flags)
    assert _flag_lines(proc.stdout) == flags


def test_sweep_reports_warnings_as_flags(tmp_path):
    argv = ["--D", "4", "--Q", "6", "--outdir", str(tmp_path),
            "sweep", "compactness", "--symbol", "rank-one:3"]
    proc = run_module(argv)
    assert proc.returncode == 0, proc.stderr
    assert "runpy" not in proc.stderr and "Warning" not in proc.stderr
    flags = _flag_lines(proc.stdout)
    assert len(flags) == 1 and flags[0].startswith("kernel truncation defect")
    assert json.loads((tmp_path / "sweep_compactness.json").read_text())["flags"] == flags


def test_export_berezin_reports_warnings_as_flags(tmp_path):
    argv = ["--D", "8", "--Q", "12", "--outdir", str(tmp_path), "export-berezin", "rank-one:1.5"]
    proc = run_module(argv)
    assert proc.returncode == 0, proc.stderr
    assert "runpy" not in proc.stderr and "Warning" not in proc.stderr
    flags = _flag_lines(proc.stdout)
    assert len(flags) == 1 and flags[0].startswith("kernel truncation defect")
    assert json.loads((tmp_path / "berezin.json").read_text())["flags"] == flags


def test_malformed_approx_target(capsys):
    assert run_cli(["--D", "10", "--Q", "14", "approx", "bogus:1"]) == 2


@pytest.mark.parametrize("target", ["toeplitz:0", "toeplitz:-1", "toeplitz:inf"])
def test_gaussian_target_needs_a_positive_width(target, tmp_path, capsys):
    assert run_cli(["--D", "10", "--Q", "14", "--outdir", str(tmp_path), "approx", target]) == 2
    assert "width" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("target", ["weyl:nan", "rank-one:inf", "toeplitz:nan", "toeplitz:2:nan"])
def test_target_needs_finite_numbers(target, tmp_path, capsys):
    argv = ["--D", "8", "--Q", "12", "--outdir", str(tmp_path), "approx", target]
    assert run_cli(argv) == 2
    assert "not finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("m", ["1", "0", "-3"])
def test_export_berezin_rejects_a_grid_below_two_points(m, tmp_path, capsys):
    argv = ["--D", "8", "--Q", "12", "--outdir", str(tmp_path), "export-berezin", "rank-one:0"]
    assert run_cli(argv + ["--grid-m", m]) == 2
    assert "grid-m" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_sweep_kind(capsys):
    assert run_cli(["--D", "10", "--Q", "14", "sweep", "nonsense"]) == 2


@pytest.mark.parametrize(
    "kind, symbol",
    [("invariance", "radail"), ("invariance", "rank-one:0"), ("quantization", "radial"),
     ("approx-identity", "horizontal")],
)
def test_sweep_rejects_a_symbol_it_does_not_read(kind, symbol, tmp_path, capsys):
    argv = ["--D", "8", "--Q", "10", "--outdir", str(tmp_path), "sweep", kind, "--symbol", symbol]
    assert run_cli(argv) == 2
    assert "--symbol" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("symbol", ["", "horizontal", "radial"])
def test_invariance_sweep_accepts_its_symbols(symbol, tmp_path, capsys):
    argv = ["--D", "8", "--Q", "10", "--outdir", str(tmp_path), "sweep", "invariance", "--symbol", symbol]
    assert run_cli(argv) == 0
    doc = json.loads((tmp_path / "sweep_invariance.json").read_text())
    assert doc["metadata"].get("negative_control", False) == (symbol == "radial")


def test_missing_subcommand(capsys):
    assert run_cli(["--D", "10"]) == 2


def test_export_operator_and_berezin(tmp_path, capsys):
    assert run_cli(["--D", "8", "--Q", "12", "--outdir", str(tmp_path), "export-operator", "weyl:0.2"]) == 0
    doc = json.loads((tmp_path / "operator.json").read_text())
    assert doc["kind"] == "fock-operator"
    assert run_cli(
        ["--D", "8", "--Q", "12", "--outdir", str(tmp_path), "export-berezin", "rank-one:0", "--grid-m", "11"]
    ) == 0
    assert (tmp_path / "berezin.csv").exists()


def test_compactness_sweep_writes_files(tmp_path, capsys):
    code = run_cli(
        ["--D", "10", "--Q", "14", "--outdir", str(tmp_path), "sweep", "compactness", "--symbol", "rank-one:0"]
    )
    assert code == 0
    assert (tmp_path / "sweep_compactness.csv").exists()
    doc = json.loads((tmp_path / "sweep_compactness.json").read_text())
    assert doc["kind"] == "compactness"


def test_outputs_are_deterministic(tmp_path, capsys):
    # same outdir both times: the embedded resolved config must match too
    base = ["--D", "16", "--Q", "20", "--seed", "3", "--outdir", str(tmp_path)]
    assert run_cli(base + ["--threads", "1", "verify"]) == 0
    a = (tmp_path / "verify_report.json").read_bytes()
    assert run_cli(base + ["--threads", "4", "verify"]) == 0
    b = (tmp_path / "verify_report.json").read_bytes()
    # the thread cap is not part of the resolved config and must not
    # change a single output byte
    assert a == b


# the files each command writes; README lists the same table
WRITTEN = {
    ("verify",): {"verify_report.json"},
    ("approx", "weyl:0.5"): {"approx_report.csv", "approx_report.json"},
    ("sweep", "quantization"): {
        "sweep_quantization_op.csv",
        "sweep_quantization_sup.csv",
        "sweep_quantization.json",
    },
    ("sweep", "approx-identity"): {"sweep_approx_identity.csv", "sweep_approx-identity.json"},
    ("sweep", "compactness"): {"sweep_compactness.csv", "sweep_compactness.json"},
    ("sweep", "invariance"): {"sweep_invariance.csv", "sweep_invariance.json"},
    ("export-operator", "weyl:0.2"): {"operator.json"},
    ("export-berezin", "rank-one:0", "--grid-m", "5"): {"berezin.csv", "berezin.json"},
}


def _cell_is_exact(cell):
    try:
        return str(int(cell)) == cell
    except ValueError:
        pass
    try:
        return repr(float(cell)) == cell
    except ValueError:
        return False


def test_every_output_follows_the_writer_contract(tmp_path, capsys):
    for command, expected in WRITTEN.items():
        outdir = tmp_path / "-".join(command[:2])
        argv = ["--D", "6", "--Q", "8", "--m", "16", "--outdir", str(outdir), *command]
        # every command turns the package's warnings into flags, so none escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(argv)
        # verify may fail its tolerances at this size; it still writes its report
        assert code in ((0, 1) if command == ("verify",) else (0,)), command
        assert {p.name for p in outdir.iterdir()} == expected, command
        for path in outdir.glob("*.json"):
            doc = json.loads(path.read_text())
            assert doc["schema"] == "1", path.name
            # every report records its config and flags; operator.json is a
            # load_operator document, whose meta keeps the config
            if path.name != "operator.json":
                assert doc["config"]["model.D"] == 6, path.name
                assert isinstance(doc["flags"], list), path.name
        for path in outdir.glob("*.csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path.name
            bad = [c for row in rows for c in row if not _cell_is_exact(c)]
            assert not bad, (path.name, bad[:3])
