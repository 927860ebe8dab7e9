"""Regenerate ``reference.json``: input digests and results for the default seed.

    python3 perfbench/make_reference.py

Run only when a change to the generators or the program's answers is
intended; the benchmark compares every default-seed run against this file.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import DEFAULT_SEED, HERE, ROOT, WORK, _cli_call, _parse, _sha256


def main() -> int:
    from nestedot import cli

    out = {"seed": DEFAULT_SEED, "rel_tol": workloads.REL_TOL, "workloads": {}}
    for name in sorted(workloads.WHY):
        workdir = WORK / name
        workdir.mkdir(parents=True, exist_ok=True)
        pool = workloads.make_pool(name, DEFAULT_SEED, workdir, ROOT)
        digests, results = {}, []
        for pair in pool:
            values = {}
            commands = workloads.setup_commands(name, pair) + workloads.job_commands(name, pair)
            for argv in commands:
                report, error = _parse(argv, *_cli_call(cli, argv))
                if error:
                    print(error, file=sys.stderr)
                    return 1
                values.update(workloads.result_values(report))
            for key in ("mu", "nu", "P", "Q"):
                path = ROOT / pair.files[key]
                if path.exists():
                    digests[pair.files[key]] = _sha256(path)
            results.append(values)
        out["workloads"][name] = {"inputs": digests, "results": results}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
