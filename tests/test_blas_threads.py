"""Reports do not depend on the BLAS thread count. Model files may: the fits'
Gram and Hessian products sum over rows in a thread-dependent order, so
their last bits can move, but every report a run writes must not."""

import os
import subprocess
import sys
from pathlib import Path

from test_synth import README_SYNTH

SRC = Path(__file__).resolve().parent.parent / "src"


def run_readme_flow(work: Path, threads: int) -> None:
    """synth, train logreg and simulate one split of the README dataset in
    fresh interpreters with ``threads`` OpenBLAS threads."""
    work.mkdir()
    (work / "synth.cfg").write_text(README_SYNTH)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for argv in (["synth", "--config", "synth.cfg", "--out", "data.bin"],
                 ["train", "data.bin", "--kind", "logreg", "--out", "logreg.bin"],
                 ["simulate", "logreg.bin", "data.bin", "--splits", "1", "--out", "report.json"]):
        subprocess.run([sys.executable, "-m", "rsvptyping.cli", *argv], cwd=work, env=env,
                       check=True, capture_output=True)


def test_reports_agree_across_blas_thread_counts(tmp_path):
    run_readme_flow(tmp_path / "one", 1)
    run_readme_flow(tmp_path / "two", 2)
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
