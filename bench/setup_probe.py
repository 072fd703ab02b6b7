"""Set-up probe: a fresh interpreter imports born_branch and builds the configs.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints one JSON line: ``ready`` (time.monotonic() when the first job could
start), ``import_s`` (time of ``import born_branch``) and ``configs`` (number
of validated experiment configs). run.py times it from spawn to ``ready``.
"""
import json
import sys
import time
from pathlib import Path

start = time.monotonic()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import born_branch  # noqa: E402,F401

imported = time.monotonic()
from born_branch.cli import ExperimentConfig  # noqa: E402
from workloads import make_jobs  # noqa: E402

configs = [ExperimentConfig(**c) for job in make_jobs(sys.argv[1], int(sys.argv[2])) for c in job]
print(json.dumps({"ready": time.monotonic(), "import_s": imported - start, "configs": len(configs)}))
