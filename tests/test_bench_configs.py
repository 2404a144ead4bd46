"""The benchmark's workload configs still parse.

bench/run.py writes one config per workload and seed. A schema edit that
renames a key, tightens a rule or drops a default would make every
benchmark run fail; here it fails in the tier-1 suite instead.
"""

import configparser
import importlib.util
from pathlib import Path

import pytest

from kineticmf.cli import parse_config

RUN_PATH = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench()


@pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
def test_workload_configs_parse_and_resolve_as_written(tmp_path, workload):
    for seed in BENCH.WORKLOAD_SEEDS:
        text = BENCH.config_text(workload, seed)
        path = tmp_path / f"{workload}_{seed}.ini"
        path.write_text(text)
        rc = parse_config(str(path))
        written = configparser.ConfigParser()
        written.read_string(text)
        for section in written.sections():
            for key, value in written[section].items():
                assert rc.resolved[section][key] == value, (section, key)
        assert rc.seed == seed
