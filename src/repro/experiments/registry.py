"""Experiment registry and runner."""

EXPERIMENTS = {}


def register(exp_id, title, paper_ref):
    """Decorator registering ``run(scale=1.0, seed=0) -> ExperimentResult``."""

    def _wrap(func):
        if exp_id in EXPERIMENTS:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        EXPERIMENTS[exp_id] = {
            "id": exp_id,
            "title": title,
            "paper_ref": paper_ref,
            "run": func,
        }
        return func

    return _wrap


def get_experiment(exp_id):
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(exp_id, scale=1.0, seed=0):
    """Run one experiment at the given scale factor; returns its result.

    ``scale`` shrinks durations/round counts for quick runs (the tier-1
    shape test uses small scales; 1.0 is the full published configuration
    of this repo).
    """
    entry = get_experiment(exp_id)
    return entry["run"](scale=scale, seed=seed)
