"""cli-cold: a fixed session of ``python -m stegogame.cli`` calls, one at a time.

One op is one invocation.  The session builds the library and the world
pool, asks for the capacity, makes a seeded key, embeds a multi-block
message, extracts every block, and runs a small budget, divergence and KCA
attack.  T=20, N=4 gives l=16, a whole number of hex digits per block.

Children get an explicit environment: PYTHONPATH pointing at src/ (the
package is not installed) and STEGOGAME_THREADS=2.  Each invocation must
exit 0 and print JSON; extract must return the embedded hex; and from the
second session on, stdout must be byte-identical to the first session's.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

from common import Op, check, child_env, median

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 3
T, N, L = 20, 4, 16
WORLD = 64
BLOCKS = 8
COVER_BYTES = 2048
SAMPLES = 400
# Enough Monte-Carlo trials that budget is the slowest call by a clear gap,
# so that the tail is the same call from run to run.
MC_TRIALS = 150000
ATTACK_TRIALS = 100
TIMEOUT_S = 120
PROBE_REPS = 3


class CliCold:
    name = "cli-cold"
    min_cycles = REPEATS
    setup_imports = ()  # the parent imports nothing from the package; children do
    kernel = "start"  # ops are interpreter starts and imports

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.session = os.path.join(workdir, "session")
        self.first: dict[int, bytes] = {}
        self.tracer = None
        rng = random.Random(seed)
        self.message = "".join(f"{rng.getrandbits(L):04x}" for _ in range(BLOCKS))
        self.cmd_seed = str(rng.getrandbits(31))

    def build(self, rep: int) -> None:
        shutil.rmtree(self.session, ignore_errors=True)
        rng = random.Random(f"{self.seed}/workspace")
        for folder, count in (("lib", T), ("world", WORLD)):
            os.makedirs(os.path.join(self.session, folder))
            for i in range(count):
                with open(os.path.join(self.session, folder, f"{i:02d}.bin"), "wb") as fh:
                    fh.write(rng.randbytes(COVER_BYTES))
        for name in ("a.txt", "b.txt"):
            with open(os.path.join(self.session, name), "w") as fh:
                fh.write("\n".join(repr(rng.gauss(0.0, 1.0)) for _ in range(SAMPLES)) + "\n")
        with open(os.path.join(self.session, "scen.json"), "w") as fh:
            json.dump({"library": "lib.json", "world_pool": "world.json", "N": N,
                       "leak_fraction": 0.5}, fh)
        # warm-up: bytecode and page cache, as any repeat user has them
        done = self._call(["--version"])
        check(done.returncode == 0, f"warm-up invocation exited {done.returncode}")

    def _session(self) -> list[tuple[list[str], object]]:
        s = self.cmd_seed
        seqs = [f"seq.{i:03d}.json" for i in range(BLOCKS)]
        return [
            (["build-library", *(f"lib/{i:02d}.bin" for i in range(T)), "-o", "lib.json"],
             lambda r: check(r["T"] == T, "library size")),
            (["build-library", *(f"world/{i:02d}.bin" for i in range(WORLD)), "-o", "world.json"],
             lambda r: check(r["T"] == WORLD, "world pool size")),
            (["capacity", "-T", str(T), "-N", str(N)],
             lambda r: check(r["l"] == L and r["r"] == "116280", "capacity of T=20, N=4")),
            (["keygen", "-T", str(T), "-N", str(N), "-o", "key.txt", "--seed", s],
             lambda r: check(r["l"] == L, "key length")),
            (["embed", "-m", self.message, "-k", "key.txt", "-x", "lib.json", "-N", str(N),
              "-o", "seq.json"],
             lambda r: check(r["blocks"] == BLOCKS and r["sequences"] == seqs, "embedded blocks")),
            (["extract", *(a for q in seqs for a in ("-s", q)), "-k", "key.txt", "-x", "lib.json"],
             lambda r: check(r["message"] == self.message, "extract did not return the embedded hex")),
            (["budget", "-T", str(T), "-N", str(N), "--zeta", "0.4", "--mc-trials", str(MC_TRIALS),
              "--seed", s],
             lambda r: check(r["x"] == r["x_max"] and r["mc_within_4se"] is True, "budget report")),
            (["divergence", "-a", "a.txt", "-b", "b.txt", "--epsilon", "auto", "--seed", s],
             lambda r: check(r["metric"] == "js" and r["epsilon_mode"] == "auto", "divergence report")),
            (["attack", "--level", "kca", "--adversary", "kca-membership",
              "--trials", str(ATTACK_TRIALS), "--seed", s, "--scenario", "scen.json"],
             lambda r: check(r["trials"] == ATTACK_TRIALS and r["level"] == "KCA", "attack report")),
        ]

    def cycle(self, index: int):
        return [self._op(i, argv, first_check) for i, (argv, first_check) in enumerate(self._session())]

    def _op(self, position: int, argv: list[str], first_check) -> Op:
        def run():
            return self._call(argv)

        def verify(done):
            check(done.returncode == 0, f"{argv[0]} exited {done.returncode}: {done.stderr[-300:]!r}")
            first_check(json.loads(done.stdout))
            if position in self.first:
                check(done.stdout == self.first[position], f"{argv[0]} stdout differs from the first session")
            else:
                self.first[position] = done.stdout

        return Op(argv[0], run, verify)

    def _call(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            return subprocess.run(
                [sys.executable, "-m", "stegogame.cli", *argv], cwd=self.session,
                env=child_env(), capture_output=True, timeout=TIMEOUT_S,
            )
        spans_file = os.path.join(self.workdir, "child-spans.json")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "tracechild.py"), spans_file, *argv],
            cwd=self.session, env=child_env(), capture_output=True, timeout=TIMEOUT_S,
        )
        with open(spans_file) as fh:
            self.tracer.merge(json.load(fh), self.tracer.current(), self.tracer.op)
        os.remove(spans_file)
        return done

    def probes(self) -> dict[str, float]:
        """Interpreter start, package import and per-package import cost."""
        env = child_env()

        def wall_ms(code: str) -> float:
            times = []
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter()
                done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                      timeout=TIMEOUT_S)
                times.append(time.perf_counter() - t0)
                check(done.returncode == 0, f"probe {code!r} failed")
            return median(times) * 1e3

        out = {
            "cli.interpreter_ms": wall_ms("pass"),
            "cli.import_ms": wall_ms("import stegogame.cli"),
        }
        groups: dict[str, list[float]] = {"scipy": [], "numpy": [], "stegogame": []}
        for _ in range(PROBE_REPS):
            done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stegogame.cli"],
                                  env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
            check(done.returncode == 0, "import-time probe failed")
            totals = _import_self_us(done.stderr)
            for group in groups:
                groups[group].append(totals.get(group, 0) / 1e3)
        for group, values in groups.items():
            out[f"cli.import.{group}_ms"] = median(values)
        return out


def _import_self_us(stderr: str) -> dict[str, int]:
    """Sum of ``-X importtime`` self times per top-level package."""
    totals: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        totals[top] = totals.get(top, 0) + self_us
    return totals
