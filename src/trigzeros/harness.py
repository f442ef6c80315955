"""Monte Carlo experiment harness: batches of zero counts vs theory.

An experiment fixes a coefficient model and runs ``trials`` independent
samples at each requested degree, counting real zeros per sample.  Each
trial's seed is derived as mix64(master_seed, n, trial_index), so any row or
single trial can be reproduced in isolation and adding degrees never shifts
the seeds of existing ones.

Trials whose zero count is not certified (zeros.count_zeros reports
stable=False: some cell of the grid route, or the phase of an r = 0
sample, could not be decided) are excluded from the aggregates and
reported per row; a row with more than 1% uncertified trials is marked
failed (the count ceases to be trustworthy at that point, and a finer grid
or more local halvings -- not statistics -- are the fix).

Reports carry no timestamps or hostnames: two runs with the same config are
byte-identical, which makes regression diffs meaningful.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
from dataclasses import asdict, dataclass

from .constants import theoretical_mean
from .models import CoefficientModel, mix64, sample_coefficients
from .trigpoly import scratch_scope
from .zeros import count_zeros

CSV_COLUMNS = (
    "n",
    "m",
    "r",
    "trials",
    "unstable",
    "empirical_mean",
    "stddev",
    "stderr",
    "theory",
    "order",
    "z",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the model fields, the degrees and the counting
    options.  Construction runs validate(), so a config in hand is valid."""

    kind: str = "trig"
    dep: str = "iid"
    ell: int | None = None
    sigma: float = 1.0
    degrees: tuple = (100,)
    trials: int = 200
    master_seed: int = 0
    grid_per_degree: int = 32
    max_doublings: int = 4
    workers: int = 1

    def __post_init__(self):
        self.validate()

    def model(self) -> CoefficientModel:
        return CoefficientModel(kind=self.kind, dep=self.dep, ell=self.ell, sigma=self.sigma)

    def validate(self) -> None:
        model = self.model()
        if not self.degrees:
            raise ValueError("at least one degree is required")
        for n in self.degrees:  # each must be >= 1 and hold one full period
            model.period(n)
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.grid_per_degree < 1:
            raise ValueError("grid_per_degree must be >= 1")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be >= 0")


@dataclass(frozen=True)
class DegreeRow:
    n: int
    m: int | None
    r: int | None
    trials: int
    unstable: int
    empirical_mean: float | None
    stddev: float | None
    stderr: float | None
    theory: float | None
    order: str | None
    z: float | None
    failed: bool


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple

    def any_failed(self) -> bool:
        return any(row.failed for row in self.rows)


# trials per task of a worker pool, which share one scratch scope
_POOL_CHUNK = 8


def _single_trial(args):
    """One seeded sample counted."""
    model, n, seed, grid_per_degree, max_doublings = args
    sample = sample_coefficients(model, n, seed=seed)
    report = count_zeros(sample, grid_per_degree=grid_per_degree, max_doublings=max_doublings)
    return report.count, report.stable


def _trials(jobs):
    """Seeded trials counted in order in one trigpoly.scratch_scope;
    module-level so worker pools can pickle it."""
    with scratch_scope():
        return [_single_trial(job) for job in jobs]


def _aggregate_row(config: ExperimentConfig, n: int, outcomes) -> DegreeRow:
    model = config.model()
    counts = [c for c, stable in outcomes if stable]
    unstable = sum(1 for _, stable in outcomes if not stable)

    dec = model.period(n)
    # i.i.d. rows leave m and r blank: their split is the vacuous period
    m_val, r_val = (dec.m, dec.r) if model.dep == "periodic" else (None, None)

    try:
        theory, order = theoretical_mean(model, n)
    except ValueError:
        theory, order = None, None

    mean = stddev = stderr = z = None
    if counts:
        k = len(counts)
        mean = sum(counts) / k
        if k > 1:
            stddev = math.sqrt(sum((c - mean) ** 2 for c in counts) / (k - 1))
            stderr = stddev / math.sqrt(k)
        if theory is not None and stderr is not None and stderr > 0.0:
            z = (mean - theory) / stderr
    return DegreeRow(
        n=n,
        m=m_val,
        r=r_val,
        trials=len(outcomes),
        unstable=unstable,
        empirical_mean=mean,
        stddev=stddev,
        stderr=stderr,
        theory=theory,
        order=order,
        z=z,
        failed=not counts or unstable > 0.01 * len(outcomes),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every (degree, trial) cell and aggregate per degree.

    With workers > 1 the trials are evaluated by a process pool of at most
    one process per chunk of _POOL_CHUNK trials; results are consumed in
    submission order, so the aggregates (and hence the report bytes) do
    not depend on scheduling.  The trials of a run, or of a chunk, share
    one trigpoly.scratch_scope, released when they return.
    """
    model = config.model()
    jobs = [
        (model, n, mix64(config.master_seed, n, t), config.grid_per_degree,
         config.max_doublings)
        for n in config.degrees
        for t in range(config.trials)
    ]
    if config.workers > 1:
        chunks = [jobs[i:i + _POOL_CHUNK] for i in range(0, len(jobs), _POOL_CHUNK)]
        workers = min(config.workers, len(chunks))
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            outcomes = [out for chunk in pool.map(_trials, chunks) for out in chunk]
    else:
        outcomes = _trials(jobs)

    rows = []
    for i, n in enumerate(config.degrees):
        chunk = outcomes[i * config.trials : (i + 1) * config.trials]
        rows.append(_aggregate_row(config, n, chunk))
    return ExperimentReport(config=config, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _cell(value):
    """CSV cell: blank for missing, repr-roundtrippable floats otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow([_cell(getattr(row, c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    """The config (minus workers, which cannot change a count) and every row."""
    config = asdict(report.config)
    del config["workers"]
    payload = {"config": config, "rows": [asdict(row) for row in report.rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "kind": str,
    "dep": str,
    "ell": int,
    "sigma": float,
    "degrees": "int_list",
    "trials": int,
    "master_seed": int,
    "grid_per_degree": int,
    "max_doublings": int,
    "workers": int,
}


def parse_config_text(text: str) -> dict:
    """key=value lines into an ExperimentConfig kwargs dict.

    Blank lines and #-comments are skipped; 'degrees' takes a comma list.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        if kind == "int_list":
            out[key] = tuple(int(tok) for tok in value.split(",") if tok.strip())
        else:
            out[key] = kind(value)
    return out


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
