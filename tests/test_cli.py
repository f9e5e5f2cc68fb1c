import csv
import hashlib
import math
import struct
from dataclasses import replace

import pytest

from pdrslink import cli, frameio, harness
from pdrslink.cli import main
from pdrslink.frameio import _HEADER, MAGIC
from pdrslink.harness import (
    CSV_HEADER,
    DETECTOR_TABLE,
    DETECTORS,
    STAGE_TABLE,
    parse_config,
    run_point,
)
from pdrslink.linalg import process_blas
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


def test_sweep_names_a_value_that_is_not_a_number(cfg_file, capsys):
    assert main(["sweep", "--config", cfg_file, "--values", "4,abc", "--detectors", "oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --values: 'abc' is not a number\n"
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "message, line",
    [("Unable to allocate 64.0 EiB for an array", "Unable to allocate 64.0 EiB for an array"), ("", "MemoryError")],
    ids=["numpy's", "bare"],
)
def test_gen_frame_out_of_memory_exits_2_with_one_error_line(message, line, cfg_file, tmp_path, capsys, monkeypatch):
    # raised by hand: a real giant allocation can succeed lazily and then be killed
    def no_memory(*a, **kw):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "draw_trial", no_memory)
    frame_path = tmp_path / "one.pdrs"
    assert main(["gen-frame", "--config", cfg_file, "--out", str(frame_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not frame_path.exists()
    assert captured.err == f"error: {line}\n"


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


def test_a_sweep_value_whose_zeta_is_out_of_range_exits_2(capsys):
    assert main(["sweep", "--var", "alpha", "--values", "1,0.004", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: zeta = round(alpha * K) = round(0.004 * 96) = 0 must lie in [1, N=1000]\n"
    )


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


#: sha256 of ``pdrslink complexity``'s stdout and of its ``--out`` CSV at the
#: anchor config.  Every line is an integer count or a fixed-precision ratio
#: of counts, so neither digest depends on the BLAS; nor on the seed, which
#: moves no count.
LEDGER_STDOUT_SHA256 = "77184ead61731947fbe7da654bc47b5cd465a346d65336b6f5148f3c92d361be"
LEDGER_CSV_SHA256 = "dbedeb57a7ce335f174bdc1480e233a3b9e6d769987f6bfc4e3bf020cb4ab8ec"


@pytest.mark.parametrize("seed", [[], ["--seed", "5"]], ids=["default seed", "seed 5"])
def test_the_anchor_ledger_keeps_its_bytes(tmp_path, capsys, seed):
    out = tmp_path / "ledger.csv"
    assert main(["complexity", *seed, "--out", str(out)]) == 0
    table, wrote = capsys.readouterr().out.rsplit("wrote ", 1)
    assert wrote == f"{out}\n"
    assert hashlib.sha256(table.encode()).hexdigest() == LEDGER_STDOUT_SHA256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LEDGER_CSV_SHA256


def test_complexity_at_zeta_above_l_counts_no_pick_past_the_full_span(tmp_path, capsys):
    # the anchor at zeta = 2L: BOMP's pursuit ends at rank L, so both its
    # ledger and its model equal those at zeta = L
    path = tmp_path / "overshoot.cfg"
    path.write_text("zeta = 192\n")
    assert main(["complexity", "--config", str(path)]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("bomp ")]
    assert line.split()[1:3] == ["1305781248", "1305781248"]


def test_complexity_counts_what_a_one_trial_point_counts(cfg_file, tmp_path, capsys):
    out = tmp_path / "ledger.csv"
    assert main(["complexity", "--config", cfg_file, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        counted = {row["detector"]: int(row["counted_mults"]) for row in csv.DictReader(fh)}
    rows = run_point(replace(parse_config(cfg_file), trials=1), list(STAGE_TABLE))
    assert counted == {row.detector: row.counted_mults for row in rows}


def test_a_failed_ledger_trial_exits_2_naming_the_detector_and_step(cfg_file, capsys, monkeypatch):
    def boom(*a, **kw):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(harness, "detect_bomp", boom)
    assert main(["complexity", "--config", cfg_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trial 0, detector bomp, detect: synthetic failure\n"


def test_complexity_reads_pdrs_threads_as_a_sweep_does(cfg_file, capsys, monkeypatch):
    monkeypatch.setenv("PDRS_THREADS", "0")
    assert main(["complexity", "--config", cfg_file]) == 2
    assert capsys.readouterr().err == "error: PDRS_THREADS must be >= 1, got 0\n"


#: Where each verb first calls the library: ``sweep`` and ``complexity`` reach
#: ``harness.synth_pool`` inside ``run_sweep``, ``gen-frame`` calls ``synth_pool``
#: itself, ``detect`` loads its frame and ``lemma-check`` runs its suites.
FIRST_LIBRARY_CALLS = [
    (cli, "synth_pool"), (harness, "synth_pool"), (frameio, "load_frame"), (harness, "lemma_check"),
]


@pytest.mark.skipif(process_blas().symbol is None, reason="numpy's BLAS exports no known thread setter")
@pytest.mark.parametrize("verb", ["sweep", "detect", "complexity", "gen-frame", "lemma-check"])
def test_every_verb_calls_the_library_with_blas_on_one_thread(verb, cfg_file, tmp_path, capsys, monkeypatch):
    frame_path = str(tmp_path / "one.pdrs")
    assert main(["gen-frame", "--config", cfg_file, "--out", frame_path]) == 0
    argv = {
        "sweep": ["sweep", "--config", cfg_file, "--values", "10", "--detectors", "fpr"],
        "detect": ["detect", "--frame", frame_path, "--detector", "fpr"],
        "complexity": ["complexity", "--config", cfg_file],
        "gen-frame": ["gen-frame", "--config", cfg_file, "--out", frame_path],
        "lemma-check": ["lemma-check", "--iterations", "1"],
    }[verb]
    blas = process_blas()
    seen = []
    for module, name in FIRST_LIBRARY_CALLS:
        original = getattr(module, name)

        def recorded(*args, _original=original, **kwargs):
            seen.append(blas.threads())
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    before = blas.threads()
    blas._set(2)  # more than one, so an unpinned call shows on any machine
    try:
        assert main(argv) == 0
    finally:
        blas._set(before)
    assert seen[:1] == [1]


def test_lemma_check_verb(capsys):
    rc = main(["lemma-check", "--iterations", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3


def test_lemma_check_rejects_iterations_whose_suites_would_share_streams(capsys):
    assert main(["lemma-check", "--iterations", "501"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: iterations must be <= 500, got 501: ")
    assert "same streams" in err


def test_lemma_check_fails_with_absurd_tolerance(capsys, monkeypatch):
    monkeypatch.setattr(harness, "EQUIV_TOL", 1e-30)
    rc = main(["lemma-check", "--iterations", "5"])
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
