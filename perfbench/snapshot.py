"""The checkout's snapshot of the rollout corpus, and its reference answers.

``search_cold`` cold-starts from a ``save_index`` snapshot of the fixed
corpus.  The first run in a checkout builds it, checks the build report,
records the built system's answers to a fixed query sample and a digest
of its synopsis rows, and publishes all of it under
``.bench_build/perfbench/`` keyed by a digest of the sources.  Every
later run checks that its cold-started system still gives exactly those
answers and rows (persisted output equals rebuilt output).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import checks
import inputs

REFERENCE_FILE = "perfbench-reference.json"
#: Size of the fixed query sample, drawn with seed 0.
REFERENCE_SAMPLE = 16


def source_digest(root: Path) -> str:
    """Digest of the program and benchmark sources plus the corpus shape.

    A snapshot is reused only by the exact code that wrote it and its
    reference answers.
    """
    digest = hashlib.blake2b(digest_size=12)
    digest.update(repr((inputs.corpus_shape(),
                        sys.version_info[:2])).encode())
    here = Path(__file__).resolve().parent
    sources = sorted((root / "src").rglob("*.py")) + [
        here / name for name in ("harness.py", "inputs.py", "checks.py",
                                 "snapshot.py")]
    for path in sources:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def snapshot_bytes(directory: Path) -> Dict[str, int]:
    """Bytes of a ``save_index`` directory, split by component."""
    def size(path: Path) -> int:
        if path.is_file():
            return path.stat().st_size
        return sum(p.stat().st_size for p in path.rglob("*")
                   if p.is_file() and p.name != REFERENCE_FILE)

    sizes = {
        "index": size(directory / "index"),
        "synopsis": size(directory / "synopsis.json"),
        "graph": size(directory / "graph.json"),
    }
    sizes["total"] = size(directory)
    return sizes


def reference_sample(pools: inputs.Pools) -> List[inputs.Request]:
    return inputs.cold_plan(0, pools, REFERENCE_SAMPLE)


def answers(system, sample, user) -> List[str]:
    """Canonical answers of ``system`` to ``sample``."""
    return [checks.canonical(checks.execute_read(system, request, user),
                             request)
            for request in sample]


def ensure(work_dir: Path, root: Path) -> Tuple[Path, float]:
    """The snapshot directory, built first if missing.

    Returns the directory and the seconds spent building (0.0 when it
    already existed).  The build runs in a child process, so it adds
    nothing to the peak memory of the run that triggered it.
    """
    target = work_dir / f"snapshot-{source_digest(root)}"
    if not (target / REFERENCE_FILE).is_file():
        started = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        str(work_dir), str(root)], check=True, timeout=900,
                       stdout=sys.stderr)
        return target, time.perf_counter() - started
    return target, 0.0


def build(work_dir: Path, root: Path) -> None:
    """Build, check and publish the snapshot of the fixed corpus.

    The build is staged and renamed into place, so an interrupted build
    is never reused.
    """
    from repro import EILSystem

    corpus, _ = inputs.generate_corpus()
    pools = inputs.Pools.from_corpus(corpus)
    staging = work_dir / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    system = EILSystem.build(corpus)
    system.save_index(str(staging))
    reference = {
        "build_errors": checks.build_report_errors(
            system, inputs.DEALS * inputs.DOCS_PER_DEAL),
        "rows": checks.rows_digest(system),
        "answers": answers(system, reference_sample(pools),
                           checks.default_user()),
    }
    (staging / REFERENCE_FILE).write_text(json.dumps(reference))
    try:
        os.rename(staging, work_dir / f"snapshot-{source_digest(root)}")
    except OSError:
        # Another run published the same snapshot first.
        shutil.rmtree(staging, ignore_errors=True)


def cold_start_errors(directory: Path, system, pools,
                      user) -> List[str]:
    """How a cold-started ``system`` differs from the built reference."""
    reference = json.loads((directory / REFERENCE_FILE).read_text())
    errors = list(reference["build_errors"])
    if checks.rows_digest(system) != reference["rows"]:
        errors.append("synopsis rows differ after cold start")
    sample = reference_sample(pools)
    for request, got, want in zip(sample, answers(system, sample, user),
                                  reference["answers"]):
        if got != want:
            errors.append(f"{request}: cold-started answer differs")
    return errors


if __name__ == "__main__":
    # python3 snapshot.py WORK_DIR ROOT -- run by ensure() in a child.
    sys.path.insert(0, str(Path(sys.argv[2]) / "src"))
    build(Path(sys.argv[1]), Path(sys.argv[2]))
