"""The certification workloads.

A workload turns a seed slot into the `wcelab` command lines of one pass.
Every workload is one client in a closed loop: the next CLI call starts
when the previous one has returned its verdict.

- rotation-full: 200 rotation seeds (n = 2..24, all modes, point maps,
  all 12 check groups) as 10 `wcelab suite --full` calls of 20 seeds.
- dense-n64: one `wcelab verify` call per instance file, n = 64 with 2..16
  blocks and the generator modes cycling, the 7 basic check groups.

Both workloads fix the (n, blocks, mode) of every instance in a pass, so a
different seed changes the numbers drawn but not the size of the work.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

# Seeds are folded onto this many slots; each slot has a recorded verdict
# table in expected/<workload>.json, so every seed is checked.
SEED_SLOTS = 16

Cli = Callable[[list[str]], int]

_MODES = ((), ("zero_blocks",), ("constant_u",), ("measurable_u",),
          ("partial_isometry",))


def seed_slot(seed: int) -> int:
    return seed % SEED_SLOTS


# rotation_config draws n = 2..24 from the seed mod 23, the block count from
# the seed mod n and the mode from the seed mod 5. Seeds that differ by the
# lcm of 2..24 (a multiple of 5 and 23) give instances of the same n, block
# count and mode, so every slot does the same amount of work.
ROTATION_STRIDE = 5_354_228_880


def _rotation_full(slot: int, work: Path, cli: Cli) -> list[list[str]]:
    # 10 calls give time to verdict 10 samples per pass, not one.
    lo = 1 + ROTATION_STRIDE * slot
    return [["suite", "--seeds", f"{a}..{a + 19}", "--full"] for a in range(lo, lo + 200, 20)]


def _dense_n64(slot: int, work: Path, cli: Cli) -> list[list[str]]:
    """Writes the 15 instance files through `wcelab gen`; one verify call each."""
    calls = []
    for i in range(15):
        path = work / f"instance-{i:02d}.json"
        argv = ["gen", "--seed", str(100_000 + 1000 * slot + i), "--n", "64",
                "--blocks", str(2 + i % 15)]
        for mode in _MODES[i % 5]:
            argv += ["--mode", mode]
        if cli(argv + ["-o", str(path)]) != 0:
            raise RuntimeError(f"wcelab {' '.join(argv)} failed")
        calls.append(["verify", str(path), "--checks",
                      "condexp,norm,vanishing,partial_isometry,func_calc,polar,aluthge"])
    return calls


# name -> (slot, work dir, cli) -> command lines of one pass.
WORKLOADS: dict[str, Callable[[int, Path, Cli], list[list[str]]]] = {
    "rotation-full": _rotation_full,
    "dense-n64": _dense_n64,
}
