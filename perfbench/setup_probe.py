"""Set-up probe: what `hirefair run` does before its first stage.

Run: python3 perfbench/setup_probe.py CONFIG SEED

Imports `hirefair.cli`, loads the run config, the corpus and the name pools,
validates the corpus and pairs jobs, then exits. Timing the whole process
gives the set-up cost, interpreter start included. Exits 1 when the corpus
fails validation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(config_path: str, seed: int) -> int:
    import hirefair.cli  # noqa: F401 - the import cost is part of set-up
    from hirefair.config import load_run_config
    from hirefair.corpus import load_corpus, load_name_pools, pair_jobs, validate_corpus

    config = load_run_config(config_path, out_dir="setup-probe-unused",
                             master_seed=seed)
    resumes, jobs = load_corpus(config.corpus_path)
    overrides = None
    if config.frequency_table_path:
        overrides = json.loads(Path(config.frequency_table_path).read_text())
    pools = load_name_pools(frequency_overrides=overrides)
    problems = validate_corpus(resumes, jobs, pools)
    pair_jobs(resumes, jobs, aliases=config.occupation_aliases)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems or not resumes or not jobs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
