"""The files a run writes do not depend on the BLAS thread count. The fits'
Gram and Hessian products sum over rows in a thread-dependent order, so the
last bits of fitted parameters can move, and with them the scores a
generative model's KDE bandwidths are computed from; but a model file holds
only its kind and settings, and every report must not move."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_synth import README_SYNTH

SRC = Path(__file__).resolve().parent.parent / "src"


def run_readme_flow(work: Path, kind: str, threads: int) -> None:
    """synth, train ``kind`` and simulate one split of the README dataset in
    fresh interpreters with ``threads`` OpenBLAS threads."""
    work.mkdir()
    (work / "synth.cfg").write_text(README_SYNTH)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for argv in (["synth", "--config", "synth.cfg", "--out", "data.bin"],
                 ["train", "data.bin", "--kind", kind, "--out", "model.bin"],
                 ["simulate", "model.bin", "data.bin", "--splits", "1", "--out", "report.json"]):
        subprocess.run([sys.executable, "-m", "rsvptyping.cli", *argv], cwd=work, env=env,
                       check=True, capture_output=True)


@pytest.mark.parametrize("kind", ["logreg", "gen-lda"])
def test_reports_agree_across_blas_thread_counts(tmp_path, kind):
    run_readme_flow(tmp_path / "one", kind, 1)
    run_readme_flow(tmp_path / "two", kind, 2)
    for name in ("data.bin", "model.bin", "report.json", "report.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
