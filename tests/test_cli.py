import csv
import math
import struct

import pytest

from pdrslink.cli import main
from pdrslink.frameio import _HEADER, MAGIC
from pdrslink.harness import (
    CSV_HEADER,
    DETECTOR_TABLE,
    DETECTORS,
    parse_config,
    run_point,
)
from pdrslink.metrics import complexity_model

SMALL_CFG = """
M = 12
N = 24
L = 8
l = 2
K = 5
zeta = 5
snr_db = 10
D = 4
trials = 4
seed = 9
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def test_sweep_writes_csv(cfg_file, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(
        [
            "sweep",
            "--config", cfg_file,
            "--var", "snr_db",
            "--values", "0,10",
            "--detectors", "pdrs,oracle",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_sweep_stdout_when_no_out(cfg_file, capsys):
    rc = main(
        [
            "sweep",
            "--config", cfg_file,
            "--values", "10",
            "--detectors", "oracle",
            "--trials", "2",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_sweep_rejects_bad_detector(cfg_file, capsys):
    rc = main(["sweep", "--config", cfg_file, "--values", "0", "--detectors", "nope"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_a_fractional_l(cfg_file, capsys):
    rc = main(["sweep", "--config", cfg_file, "--var", "l", "--values", "1.5,2.9", "--detectors", "oracle"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "l takes whole numbers, got 1.5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "values, detectors, message",
    [("4,4", "oracle", "sweep value 4.0 is repeated"),
     ("4", "oracle,oracle", "sweep detector 'oracle' is repeated")],
)
def test_sweep_rejects_a_repeated_entry(cfg_file, capsys, values, detectors, message):
    assert main(["sweep", "--config", cfg_file, "--values", values, "--detectors", detectors]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err and captured.out == ""


def test_sweep_rejects_an_infinite_alpha(cfg_file, capsys):
    rc = main(["sweep", "--config", cfg_file, "--var", "alpha", "--values", "inf", "--detectors", "oracle"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: sweep variable alpha takes finite values, got inf" in captured.err
    assert captured.out == ""


def test_gen_frame_then_detect(cfg_file, tmp_path, capsys):
    frame_path = tmp_path / "one.pdrs"
    assert main(["gen-frame", "--config", cfg_file, "--out", str(frame_path)]) == 0
    assert frame_path.exists()
    capsys.readouterr()

    assert main(["detect", "--frame", str(frame_path), "--detector", "pdrs"]) == 0
    out = capsys.readouterr().out
    assert "detector: pdrs, zeta=5" in out
    assert "true_pos=" in out
    assert "counted complex mults:" in out


def test_detect_with_explicit_zeta(cfg_file, tmp_path, capsys):
    frame_path = tmp_path / "one.pdrs"
    main(["gen-frame", "--config", cfg_file, "--out", str(frame_path)])
    capsys.readouterr()
    assert main(["detect", "--frame", str(frame_path), "--detector", "fpr", "--zeta", "7"]) == 0
    out = capsys.readouterr().out
    assert "zeta=7" in out
    assert "counted real mults:" in out


@pytest.mark.parametrize("detector", ["oracle", "pdrs"])
@pytest.mark.parametrize("zeta", ["0", "25"])
def test_detect_rejects_a_zeta_outside_the_pool(cfg_file, tmp_path, capsys, detector, zeta):
    frame_path = tmp_path / "one.pdrs"
    main(["gen-frame", "--config", cfg_file, "--out", str(frame_path)])
    capsys.readouterr()
    rc = main(["detect", "--frame", str(frame_path), "--detector", detector, "--zeta", zeta])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: zeta must satisfy 1 <= zeta <= N = 24, got {zeta}\n"


@pytest.mark.parametrize("verb", ["sweep", "gen-frame"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_outside_the_philox_key_exits_2(tmp_path, capsys, verb, seed):
    args = {
        "sweep": ["sweep", "--values", "4", "--trials", "1", "--detectors", "oracle"],
        "gen-frame": ["gen-frame", "--out", str(tmp_path / "one.pdrs")],
    }[verb]
    assert main(args + ["--seed", seed]) == 2
    assert capsys.readouterr().err == f"error: seed must satisfy 0 <= seed < 2**64, got {seed}\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64 - 1)])
def test_lemma_check_rejects_a_seed_outside_the_philox_key(capsys, seed):
    assert main(["lemma-check", "--iterations", "1", "--seed", seed]) == 2
    assert capsys.readouterr().err == f"error: seed must satisfy 0 <= seed < 2**64 - 1, got {seed}\n"


def test_a_repeated_config_key_exits_2(cfg_file, capsys):
    with open(cfg_file, "a", encoding="utf-8") as fh:
        fh.write("M = 16\n")
    assert main(["sweep", "--config", cfg_file, "--values", "4", "--detectors", "oracle"]) == 2
    assert capsys.readouterr().err == f"error: {cfg_file}:12: M is set again (first on line 2)\n"


def test_detect_missing_frame(tmp_path, capsys):
    rc = main(["detect", "--frame", str(tmp_path / "absent.pdrs")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_complexity_table(cfg_file, tmp_path, capsys):
    out = tmp_path / "ledger.csv"
    rc = main(["complexity", "--config", cfg_file, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "normalizer: K^3 = 125" in text
    assert "modeled ratios:" in text
    assert "counted ratios:" in text
    rows = out.read_text().splitlines()
    assert rows[0].startswith("detector,modeled_mults,counted_mults")
    assert len(rows) == 5


def test_lemma_check_verb(capsys):
    rc = main(["lemma-check", "--iterations", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3


def test_lemma_check_fails_with_absurd_tolerance(capsys):
    rc = main(["lemma-check", "--iterations", "5", "--tol", "1e-30"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_bad_config_path(capsys):
    rc = main(["sweep", "--config", "/nonexistent/x.cfg", "--values", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_detect_rejects_a_frame_holding_nan(cfg_file, tmp_path, capsys):
    frame_path = tmp_path / "one.pdrs"
    main(["gen-frame", "--config", cfg_file, "--out", str(frame_path)])
    raw = bytearray(frame_path.read_bytes())
    # Y[0, 0] follows the M x l = 12 x 2 block Y_R
    struct.pack_into("<d", raw, len(MAGIC) + _HEADER.size + 1 + 16 * 12 * 2, float("nan"))
    frame_path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["detect", "--frame", str(frame_path), "--detector", "bomp"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", DETECTORS)
def test_every_table_detector_runs_everywhere(name, cfg_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PDRS_THREADS", "1")
    cfg = parse_config(cfg_file)
    model = complexity_model(cfg, DETECTOR_TABLE[name].stage)
    (row,) = run_point(cfg, [name])
    assert row.detector == name and row.modeled_mults == model.detect_mults
    assert not math.isnan(row.ser) and not math.isnan(row.mean_post_sinr_db)

    frame_path = tmp_path / "one.pdrs"
    assert main(["gen-frame", "--config", cfg_file, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    assert main(["detect", "--frame", str(frame_path), "--detector", name]) == 0
    captured = capsys.readouterr()
    assert f"detector: {name}, zeta=5" in captured.out and captured.err == ""
