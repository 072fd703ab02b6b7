"""Correctness checks on job outputs, run after the timed loop.

Every execution of a job must reproduce the first execution of that job
exactly (``estimates`` of results.json and the bytes of series.csv), whatever
the worker count and whether it was traced; the first execution is then held
to an oracle that does not depend on the code under test where one exists:

- ``tree``: counts at t <= 64 equal the composition-dict DP (a run of
  ``count_survivors_dp`` with t_max = 64), counts at t <= 12 equal brute
  enumeration of all 3^t paths; once per run the bundled ``tree`` config's
  counts match a digest recorded from the seed code.
- ``mc``: |z| < 5 for diffusion Monte Carlo against the closed form computed
  here; measure frequencies within 5 SE of the exact weights delta^r / sum;
  walk and LCG p_hat nondecreasing in the start (nested survivors under
  common random numbers).
- ``population``: slopes of the run at phi0 and at 100 phi0 agree to 1e-9.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

#: Digest of the count columns of the bundled tree config's series.csv.
BUNDLED_TREE_DIGEST = "b37d988824c2f56b07d37a09d0723a4bfed422e0a0298c4dabc56b3606b22ff7"

#: Exit codes of cli.run that are not failures: 2 means a science check
#: failed its tolerance, which lcg's var_log_delta does by design.
OK_CODES = (0, 2)

ORACLE_DICT_T = 64
ORACLE_BRUTE_T = 12
MC_Z_LIMIT = 5.0
FREQ_SE_LIMIT = 5.0
SLOPE_GAP_LIMIT = 1e-9


@dataclass(frozen=True)
class Output:
    """What one cli.run call left behind."""

    experiment: str
    code: int
    results: dict
    series: bytes

    def fingerprint(self) -> tuple:
        estimates = json.dumps(self.results.get("estimates"), sort_keys=True)
        return (self.experiment, self.code, estimates, self.series)

    def rows(self) -> tuple[list[str], list[list[str]]]:
        table = list(csv.reader(io.StringIO(self.series.decode())))
        return table[0], table[1:]


def tree_counts(out: Output) -> dict[int, list[int]]:
    """Survivor counts per recorded depth, from the n_phi_* columns."""
    header, rows = out.rows()
    cols = [i for i, name in enumerate(header) if name.startswith("n_phi_")]
    return {int(row[0]): [int(row[i]) for i in cols] for row in rows}


def counts_digest(counts: dict[int, list[int]]) -> str:
    text = "".join(f"{t}:{','.join(map(str, c))}\n" for t, c in sorted(counts.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_oracle(config: dict, out: Output) -> list[str]:
    from born_branch.model import BranchingSpec, Exogenous, alpha_for_unit_beta
    from born_branch.tree import count_survivors_dp, enumerate_brute

    p = config["parameters"]
    spec = BranchingSpec(tuple(p["deltas"]))
    sched = Exogenous(p["epsilon"], alpha_for_unit_beta(spec).alpha)
    phis = [float(v) for v in p["phis"]]
    counts = tree_counts(out)
    errors = []
    prefix = [t for t in counts if t <= ORACLE_DICT_T]
    dp = count_survivors_dp(spec, sched, ORACLE_DICT_T, phis, record_ts=prefix)
    for res in dp:
        if list(res.counts) != counts[res.t]:
            errors.append(f"tree t={res.t}: counts {counts[res.t]} != dict DP {list(res.counts)}")
    for j, phi in enumerate(phis):
        brute = {r.t: r.counts[0] for r in enumerate_brute(spec, sched, ORACLE_BRUTE_T, phi)}
        for t in prefix:
            if t <= ORACLE_BRUTE_T and counts[t][j] != brute[t]:
                errors.append(f"tree t={t} phi0={phi:g}: {counts[t][j]} != brute {brute[t]}")
    return errors


def _nondecreasing(p_hat: dict[str, float], what: str) -> list[str]:
    values = [p_hat[k] for k in sorted(p_hat, key=float)]
    if any(b < a for a, b in zip(values, values[1:])):
        return [f"{what} p_hat not nondecreasing in the start: {values}"]
    return []


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _diffusion_oracle(config: dict, out: Output) -> list[str]:
    # method of images: q = Phi(z1) - exp(2 mu d / sigma^2) Phi(z2)
    p = config["parameters"]
    mu, sigma, d, tau, n = p["mu"], p["sigma"], p["mc_d"], p["mc_tau"], p["mc_n_paths"]
    st = sigma * math.sqrt(tau)
    q = _norm_cdf((d - mu * tau) / st) - math.exp(2 * mu * d / sigma**2) * _norm_cdf(
        (-d - mu * tau) / st
    )
    p_hat = out.results["estimates"]["mc_p_hat"]
    se = math.sqrt(p_hat * (1 - p_hat) / n)
    z = (p_hat - q) / se if se > 0 else math.inf
    return [] if abs(z) < MC_Z_LIMIT else [f"diffusion |z|={abs(z):.2f} vs closed form {q:.6f}"]


def _measure_oracle(config: dict, out: Output) -> list[str]:
    # exact conditioned frequencies delta_k^r / sum, r = prep_rate (default 1),
    # read per arm from the series.csv rows
    p = config["parameters"]
    r = p.get("prep_rate") or 1.0
    deltas = [float(d) for d in p["deltas"]]
    total = math.fsum(d**r for d in deltas)
    header, rows = out.rows()
    col = {name: i for i, name in enumerate(header)}
    arms = [float(row[col["delta"]]) for row in rows]
    if arms != deltas:
        return [f"measure arms {arms} != configured deltas {deltas}"]
    n = sum(int(row[col["n_survivors"]]) for row in rows)
    errors = []
    for d, row in zip(deltas, rows):
        f = float(row[col["frequency"]])
        w = d**r / total
        se = math.sqrt(w * (1 - w) / max(n, 1))
        if abs(f - w) > FREQ_SE_LIMIT * se:
            errors.append(f"measure delta={d:g}: frequency {f:.4f} vs weight {w:.4f} (se {se:.4f})")
    return errors


def _population_oracle(config: dict, out: Output) -> list[str]:
    est = out.results["estimates"]
    gap = abs(est["slope"] - est["slope_rescaled"])
    return [] if gap <= SLOPE_GAP_LIMIT else [f"population slope gap {gap:.3e} > {SLOPE_GAP_LIMIT}"]


def _walk_oracle(config: dict, out: Output) -> list[str]:
    return _nondecreasing(out.results["estimates"]["p_hat"], "walk")


def _lcg_oracle(config: dict, out: Output) -> list[str]:
    return _nondecreasing(out.results["estimates"]["p_hat"], "lcg")


ORACLES = {
    "tree": _tree_oracle,
    "walk": _walk_oracle,
    "diffusion": _diffusion_oracle,
    "measure": _measure_oracle,
    "lcg": _lcg_oracle,
    "endogenous": _population_oracle,
}


def oracle_errors(job: list[dict], outputs: list[Output]) -> list[str]:
    """Oracle failures of one execution of a job."""
    errors = []
    for config, out in zip(job, outputs):
        if out.code not in OK_CODES:
            errors.append(f"{out.experiment}: exit code {out.code}")
            continue
        errors.extend(ORACLES[out.experiment](config, out))
    return errors


def execution_errors(
    jobs: list[list[dict]], executions: list[tuple[int, list[Output] | str]]
) -> list[list[str]]:
    """Errors of each (job index, outputs or error text) execution, in order.

    The first execution of each job is checked against the oracles; every
    later one must reproduce it exactly.
    """
    first: dict[int, tuple[list[tuple], list[str]]] = {}
    result = []
    for index, outputs in executions:
        if isinstance(outputs, str):
            result.append([outputs])
            continue
        prints = [o.fingerprint() for o in outputs]
        if index not in first:
            first[index] = (prints, oracle_errors(jobs[index], outputs))
            result.append(list(first[index][1]))
            continue
        ref, ref_errors = first[index]
        errors = list(ref_errors)
        for a, b in zip(ref, prints):
            if a != b:
                errors.append(f"{b[0]}: output differs from the first run of job {index}")
        result.append(errors)
    return result


def fail_frac(errors: list[list[str]]) -> float:
    """Share of executions with at least one error."""
    return sum(1 for e in errors if e) / len(errors)


def bundled_tree_errors(out: Output) -> list[str]:
    digest = counts_digest(tree_counts(out))
    if digest != BUNDLED_TREE_DIGEST:
        return [f"bundled tree counts digest {digest[:16]} != recorded {BUNDLED_TREE_DIGEST[:16]}"]
    return []
