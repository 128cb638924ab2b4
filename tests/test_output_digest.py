"""The output digest (tools/output_digest.py) runs every benchmark workload:
its WORKLOADS table must name exactly the configs of perfbench/workloads."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_digest_covers_every_workload():
    found = importlib.util.spec_from_file_location("output_digest",
                                                   ROOT / "tools" / "output_digest.py")
    digest = importlib.util.module_from_spec(found)
    found.loader.exec_module(digest)
    workloads = {cfg.stem for cfg in (ROOT / "perfbench" / "workloads").glob("*.cfg")}
    assert workloads and set(digest.WORKLOADS) == workloads
