"""sustainable-ai-repro: holistic operational + embodied carbon accounting
for machine-learning systems.

Reproduction of Wu et al., "Sustainable AI: Environmental Implications,
Challenges and Opportunities" (MLSys 2022).

Quickstart::

    from repro import FootprintAnalyzer, TaskDescription, PhaseWorkload, Phase

    task = TaskDescription(
        name="my-model",
        workloads=(
            PhaseWorkload(Phase.OFFLINE_TRAINING, device_hours=5_000),
            PhaseWorkload(Phase.INFERENCE, device_hours=20_000),
        ),
    )
    print(FootprintAnalyzer().analyze(task).describe())
"""

from repro._version import __version__
from repro.core.analyzer import FootprintAnalyzer, PhaseWorkload, TaskDescription


def run_experiment(experiment_id: str):
    """Run one of the paper's reproduced experiments by id.

    Thin convenience over :func:`repro.experiments.registry.run_experiment`
    (imported lazily so `import repro` stays light).
    """
    from repro.experiments.registry import run_experiment as _run

    return _run(experiment_id)


def experiment_ids() -> tuple[str, ...]:
    """Ids of every reproduced figure / in-text claim / extension."""
    from repro.experiments.registry import experiment_ids as _ids

    return _ids()


def verify_experiments(baselines_path=None, jobs: int = 1):
    """Run every experiment and diff it against the golden baselines.

    Returns a :class:`repro.core.ledger.VerifyReport`, the diff
    ``sustainable-ai verify`` prints (:func:`repro.experiments.golden.diff_run`);
    ``report.ok`` is the verdict that command exposes as its exit code.
    An experiment that failed to run is a ``run-failure`` drift.
    """
    from repro.experiments import golden
    from repro.experiments.registry import experiment_ids as _ids
    from repro.experiments.runner import _run_many

    records = _run_many(_ids(), jobs)
    baselines = golden.load_baselines(baselines_path or golden.DEFAULT_BASELINES_PATH)
    bundles = map(golden.bundle_from_record, records)
    return golden.diff_run(golden.bundles_from_baselines(baselines), bundles)


from repro.core.footprint import (
    EmbodiedFootprint,
    OperationalFootprint,
    Phase,
    TotalFootprint,
)
from repro.core.quantities import Carbon, Energy, Power
from repro.core.scenario import Scenario, evaluate_work, utilization_sweep

__all__ = [
    "Carbon",
    "EmbodiedFootprint",
    "Energy",
    "FootprintAnalyzer",
    "OperationalFootprint",
    "Phase",
    "PhaseWorkload",
    "Power",
    "Scenario",
    "TaskDescription",
    "TotalFootprint",
    "__version__",
    "evaluate_work",
    "experiment_ids",
    "run_experiment",
    "utilization_sweep",
    "verify_experiments",
]
