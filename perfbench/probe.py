"""Set-up probe: one fresh interpreter doing a phase's set-up.

``python3 probe.py PHASE CACHE_DIR`` imports what the phase needs,
configures it the way the benchmark does, prints ``ready`` and exits.
The parent times spawn -> ``ready``; that is the phase's ``setup_s``.

* ``serve``: start a ReproServer on an ephemeral port with an empty
  disk cache and wait until it reports ready (warm set compiled);
* ``mc``: import the sharded and distributed engines, build the system
  and the shard plan.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import plan as plan_mod  # noqa: E402


def serve(cache_dir: str) -> None:
    import repro.cache as cache
    from repro.serve import ReproServer, ServeConfig

    cache.configure_cache(directory=cache_dir)

    async def main():
        server = ReproServer(ServeConfig(port=0, warm=plan_mod.SERVE_CURVES))
        await server.start()
        while not server.ready:
            await asyncio.sleep(0.001)
        print("ready", flush=True)
        server.request_stop("probe done")
        await server.serve_until_stopped()

    asyncio.run(main())


def mc(cache_dir: str) -> None:
    import repro.distributed  # noqa: F401
    from repro.model.algorithms import SingleThresholdRule
    from repro.model.system import DistributedSystem
    from repro.simulation.parallel import plan_shards

    DistributedSystem(
        [SingleThresholdRule(plan_mod.MC_BETA)] * plan_mod.MC_N,
        plan_mod.MC_DELTA,
    )
    plan_shards(plan_mod.MC_TRIALS, plan_mod.MC_SHARDS["mc_shards"])
    print("ready", flush=True)


if __name__ == "__main__":
    {"serve": serve, "mc": mc}[sys.argv[1]](sys.argv[2])
