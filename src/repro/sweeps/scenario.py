"""The ``sweep`` scenario: design-space grid campaigns from the API/CLI.

Registered like every experiment driver; the runner resolves the grid
from ``RunRequest.grid`` (``--grid key=val[,val...]`` arguments, or a
curated grid name passed as a single ``--grid`` token) and defaults to
the curated ``sweep-ablations`` grid — the paper's five presets as the
degenerate sweep.
"""

from __future__ import annotations

from repro.api.capabilities import Capability
from repro.api.request import RunRequest
from repro.campaigns.registry import Scenario, register
from repro.sweeps.campaign import SweepCampaign, SweepResult
from repro.sweeps.grids import CURATED, curated_spec
from repro.sweeps.spec import SweepSpec

#: Default trace budget of a CLI sweep (per point).
DEFAULT_TRACES = 600


def resolve_spec(grid_args) -> SweepSpec:
    """Grid arguments -> spec: a curated name, or key=values axes."""
    if not grid_args:
        return curated_spec("sweep-ablations")
    if len(grid_args) == 1 and grid_args[0] in CURATED:
        return curated_spec(grid_args[0])
    return SweepSpec.from_cli(grid_args)


def run_sweep(request: RunRequest) -> SweepResult:
    spec = resolve_spec(request.grid)
    n_traces = request.n_traces or DEFAULT_TRACES
    budgets = (n_traces // 2, n_traces) if n_traces >= 64 else (n_traces,)
    campaign = SweepCampaign(
        spec,
        n_traces=n_traces,
        budgets=budgets,
        base_scope=request.scope,
        chunk_size=request.chunk_size,
        jobs=request.jobs or 1,
        seed=request.seed if request.seed is not None else 0x5EEB,
        precision=request.precision,
        backend=request.backend,
        retries=request.retries,
        chunk_timeout=request.chunk_timeout,
    )
    return campaign.run(checkpoint=request.checkpoint, resume=bool(request.resume))


SCENARIO = register(
    Scenario(
        name="sweep",
        title="Design-space sweep: grid campaigns over the pipeline config",
        description=(
            "Expands a grid (or a curated spec; default: the five "
            "characterized presets) into variant points, scores each by "
            "CPA margin / max Welch-t / partition SNR at every trace "
            "budget, and ranks them against the cortex-a7 baseline."
        ),
        runner=run_sweep,
        default_traces=DEFAULT_TRACES,
        capabilities=frozenset(
            {
                Capability.TRACES,
                Capability.SEED,
                Capability.CHUNKING,
                Capability.JOBS,
                Capability.BACKEND,
                Capability.PRECISION,
                Capability.GRID,
                Capability.SCOPE,
                Capability.RESILIENCE,
            }
        ),
        tags=("sweep", "design-space"),
    )
)
