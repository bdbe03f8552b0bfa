"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_expected.py

Writes perfbench/expected/ladder.json (bit length and SHA-256 of each
lattice_ladder total that has no closed form) and perfbench/expected/cli/
(exit code and exact stdout of each cli_cold job that has no closed form).
Run it only on a commit whose outputs are trusted: the benchmark treats
these files as the right answers.
"""

import json
import shutil
import sys

import workloads as wl


def main() -> int:
    gc = wl.import_gaugecount()
    wl.EXPECTED.mkdir(parents=True, exist_ok=True)
    (wl.EXPECTED / "ladder.json").write_text("{}")  # so every case without a closed form asks
    ladder = {}
    for job in wl.ladder_setup(gc):
        total = job.run()
        if job.check(total) == "no seed record":
            ladder[job.name] = wl.digest(total)
        print(f"{job.name}: {total.bit_length()} bits")
    (wl.EXPECTED / "ladder.json").write_text(json.dumps(ladder, indent=1, sort_keys=True) + "\n")

    workdir = wl.OUT / "record"
    cli_dir = wl.EXPECTED / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    exits = {}
    try:
        wl.write_cli_configs(workdir)
        for name, args, cfg in wl.CLI_JOBS:
            if name in wl.CLI_CLOSED_FORM:
                continue
            rc, out, err = wl.run_process(
                [sys.executable, "-m", "gaugecount.cli"] + wl.cli_argv(name, args, cfg, workdir))
            exits[name] = rc
            (cli_dir / f"{name}.out").write_bytes(out)
            print(f"{name}: exit {rc}, {len(out)} bytes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (wl.EXPECTED / "cli.json").write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
