"""Smoke tests: each demo script runs end to end against the library."""

import os
import pathlib
import subprocess
import sys

from apes_eval.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_synthetic_corpus(tmp_path):
    run_script("make_synthetic_corpus.py", "--docs", "5", "--out-dir", "demo", cwd=tmp_path)
    for name in ("corpus.jsonl", "sys_gold.jsonl", "sys_shuffled.jsonl", "sys_lead1.jsonl"):
        assert len((tmp_path / "demo" / name).read_text().splitlines()) == 5


def test_shuffle_experiment_scores_feed_correlate(tmp_path, capsys):
    out = run_script(
        "shuffle_experiment.py", "--docs", "20", "--shuffle-seeds", "2",
        "--scores-csv", "scores.csv", cwd=tmp_path,
    )
    assert "(OK)" in out
    assert main(["correlate", str(tmp_path / "scores.csv")]) == 0
    assert "pearson(r1, apes)" in capsys.readouterr().out


def test_toy_model_decodes(tmp_path, capsys):
    run_script("make_toy_model.py", "--out", "toy.json", cwd=tmp_path)
    outputs = []
    for gamma in ("0", "4"):
        argv = ["decode-demo", str(tmp_path / "toy.json"), "--width", "8", "--max-len", "3"]
        assert main(argv + ["--gamma", gamma]) == 0
        outputs.append(capsys.readouterr().out.splitlines()[0])
    assert outputs[0] != outputs[1]  # the saliency charge flips the winner
