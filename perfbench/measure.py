"""Timed rounds of setup and solves, and the metrics computed from them."""

import contextlib
import itertools
import math
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

import layers
from tracer import ROOT, Tracer, self_times
from workloads import relative_residual

# solve_tail_s reads this percentile of the warm solves.  The highest
# percentile with ten samples beyond it (the 98th on the 128^2 workload)
# spread by a third of its median over ten runs of the same code, as bursts
# of host load came and went; the 90th spread by about a seventh.
TAIL_PERCENTILE = 90
# Each run holds at least this many warm solves, so that one lies above the
# tail.
MIN_WARM_SOLVES = 11
# Traced self times must add up to the traced wall time within this share.
SELF_SUM_TOLERANCE = 0.01


@dataclass
class Round:
    """Outcome of one setup followed by a solve of every right-hand side."""

    setup_s: float
    total_s: float
    solve_s: list
    ok: list
    iterations: list
    histories: list
    levels: int
    cycle_complexity: float
    storage_complexity: float
    flops_per_cycle: int
    f_fraction: float
    setup_breakdown: dict

    def fingerprint(self):
        """What a transparent tracer or a deterministic solver must leave
        bit-identical between rounds on the same inputs."""
        return (self.histories, self.iterations, self.ok, self.levels,
                self.cycle_complexity, self.storage_complexity)


def _fresh_matrix(airmg, inputs):
    """A new matrix object per round, so every round starts with cold
    lazily built views, as a user handing over a matrix would."""
    return airmg.SparseMatrix.csr(inputs.n, inputs.n, inputs.row_offsets,
                                  inputs.col_indices, inputs.values)


def run_round(airmg, A, inputs, tracer=None):
    """Setup on ``A`` and one solve per right-hand side, each checked with
    scipy; returns the round and its hierarchy.  With a ``tracer`` the
    timed part is its root span."""
    solve_cfg = airmg.SolveConfig()
    x0 = np.zeros(inputs.n)
    solve_s, ok, iterations, histories = [], [], [], []
    flops_per_cycle = 0
    root = tracer.span(ROOT) if tracer else contextlib.nullcontext()
    with root:
        t0 = perf_counter()
        H = airmg.setup(A, airmg.SetupConfig())
        t1 = perf_counter()
        for b in inputs.rhs:
            start = perf_counter()
            try:
                x, stats = airmg.richardson_solve(H, b, x0, solve_cfg)
            except airmg.DivergenceError as exc:
                solve_s.append(perf_counter() - start)
                ok.append(False)
                iterations.append(exc.iteration)
                histories.append(None)
                continue
            solve_s.append(perf_counter() - start)
            residual = relative_residual(inputs, b, x)
            ok.append(stats.converged and residual <= solve_cfg.rtol)
            iterations.append(stats.iterations)
            histories.append(tuple(stats.residual_history))
            flops_per_cycle = stats.flops_per_cycle
        total = perf_counter() - t0
    n_f = sum(L.split.n_f for L in H.levels)
    n_all = sum(L.n for L in H.levels)
    return Round(
        setup_s=t1 - t0, total_s=total, solve_s=solve_s, ok=ok,
        iterations=iterations, histories=histories, levels=H.num_levels,
        cycle_complexity=H.cycle_complexity,
        storage_complexity=H.storage_complexity,
        flops_per_cycle=flops_per_cycle,
        f_fraction=n_f / n_all if n_all else 0.0,
        setup_breakdown=dict(H.setup_breakdown)), H


def _plain_round(airmg, inputs):
    return run_round(airmg, _fresh_matrix(airmg, inputs), inputs)[0]


def _min_rounds(workload):
    """Rounds needed for ``MIN_WARM_SOLVES`` warm solves (the first solve
    of each round is cold)."""
    return math.ceil(MIN_WARM_SOLVES / (workload.nrhs - 1))


def _repeat(step, seconds, min_count):
    """Run ``step`` at least ``min_count`` times and then while one more
    step, at the duration of the last one, fits in ``seconds``."""
    results = []
    start = perf_counter()
    while True:
        t = perf_counter()
        results.append(step())
        last = perf_counter() - t
        if (len(results) >= min_count
                and perf_counter() - start + last > seconds):
            return results


def _warm_solves(rounds):
    return [t for r in rounds for t in r.solve_s[1:]]


def _solve_s(rounds):
    """Median over rounds of each round's mean warm solve time.

    On a shared host one solve runs in either of two speed states (about
    1.5x apart, CPU time alike), and their mix shifts from minute to minute.
    The median of single solves jumps between the two states as the mix
    crosses one half; a mean over a round's solves moves only in proportion
    to the mix.
    """
    return statistics.median(statistics.fmean(r.solve_s[1:]) for r in rounds)


def _tail(samples):
    """``TAIL_PERCENTILE`` of the samples (nearest rank) and the number of
    samples above it."""
    ordered = sorted(samples)
    value = ordered[math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1]
    return value, sum(t > value for t in ordered)


def _convergence_factor(rounds):
    """Median over solves of the mean per-iteration residual reduction."""
    factors = [(h[-1] / h[0]) ** (1.0 / (len(h) - 1))
               for r in rounds for h in r.histories
               if h is not None and len(h) > 1]
    return statistics.median(factors)


def _solve_gflops(rounds):
    """Modelled cycle flops times iterations over measured warm solve time,
    median over warm solves."""
    rates = [r.flops_per_cycle * its / t / 1e9
             for r in rounds
             for t, its in zip(r.solve_s[1:], r.iterations[1:])]
    return statistics.median(rates)


def _counts(rounds):
    attempted = sum(len(r.ok) for r in rounds)
    failed = sum(not ok for r in rounds for ok in r.ok)
    return attempted, failed


def measure_untraced(airmg, workload, inputs, seconds):
    """End-to-end metrics from untraced rounds."""
    rounds = _repeat(lambda: _plain_round(airmg, inputs), seconds,
                     _min_rounds(workload))
    attempted, failed = _counts(rounds)
    warm = _warm_solves(rounds)
    tail, beyond = _tail(warm)
    reference = rounds[0].fingerprint()
    metrics = {
        'setup_s': statistics.median(r.setup_s for r in rounds),
        'solve_s': _solve_s(rounds),
        'solve_tail_s': tail,
        'time_to_solution_s': statistics.median(r.total_s for r in rounds),
        'iterations': max(max(r.iterations) for r in rounds),
        'cycle_complexity': rounds[0].cycle_complexity,
        'storage_complexity': rounds[0].storage_complexity,
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        'solve_success_rate': (attempted - failed) / attempted,
    }
    return {
        'metrics': metrics, 'attempted': attempted, 'failed': failed,
        'checks': {'rounds_identical': all(r.fingerprint() == reference
                                           for r in rounds)},
        'rounds': len(rounds), 'warm_solves': len(warm),
        'single_solve_median_s': statistics.median(warm),
        'solve_tail_percentile': TAIL_PERCENTILE,
        'solve_tail_beyond': beyond,
        'levels': rounds[0].levels,
    }


class TracedPair(NamedTuple):
    """An untraced round and a traced round on the same inputs."""

    plain: Round
    traced: Round
    metrics: dict
    per_level: list
    self_sum_s: float


def _traced_pair(airmg, inputs, traced_first):
    """The side run first alternates between pairs, so the process's cold
    first round does not always land on the untraced side."""
    if not traced_first:
        plain = _plain_round(airmg, inputs)
    A = _fresh_matrix(airmg, inputs)
    tracer = Tracer()
    with tracer.installed():
        traced, H = run_round(airmg, A, inputs, tracer)
    if traced_first:
        plain = _plain_round(airmg, inputs)
    _, own = self_times(tracer.spans)
    return TracedPair(plain, traced, layers.span_metrics(tracer.spans, H),
                      layers.level_rows(tracer.spans), float(own.sum()))


def measure_traced(airmg, inputs, seconds):
    """Per-layer metrics from traced rounds, each paired with an untraced
    round on the same inputs that it must reproduce bit for bit."""
    order = itertools.count()
    pairs = _repeat(lambda: _traced_pair(airmg, inputs, next(order) % 2 == 1),
                    seconds, 1)
    plain = [p.plain for p in pairs]
    traced = [p.traced for p in pairs]
    metrics = {name: statistics.median_low(p.metrics[name] for p in pairs)
               for name in pairs[0].metrics}
    untraced_wall = statistics.median(r.total_s for r in plain)
    traced_wall = statistics.median(r.total_s for r in traced)
    metrics.update({
        'splitting.f_fraction': plain[0].f_fraction,
        'hierarchy.levels': plain[0].levels,
        'solve.gflops': _solve_gflops(plain),
        'solve.convergence_factor': _convergence_factor(plain),
        'trace.overhead_s': traced_wall - untraced_wall,
    })
    attempted, failed = _counts(plain + traced)
    reference = plain[0].fingerprint()
    return {
        'metrics': metrics, 'attempted': attempted, 'failed': failed,
        'checks': {
            'traced_identical': all(r.fingerprint() == reference
                                    for r in plain + traced),
            'self_sum_matches_wall': all(
                abs(p.self_sum_s - p.traced.total_s)
                <= SELF_SUM_TOLERANCE * p.traced.total_s for p in pairs),
        },
        'rounds': len(pairs),
        'transparency': {
            'untraced_wall_s': untraced_wall, 'traced_wall_s': traced_wall,
            'overhead_s': traced_wall - untraced_wall,
            'self_sum_s': [p.self_sum_s for p in pairs],
            'traced_round_wall_s': [r.total_s for r in traced],
        },
        'per_level': pairs[-1].per_level,
        'setup_breakdown': traced[-1].setup_breakdown,
        'moves': {name: {'end_to_end': m[0], 'workload': m[1]}
                  for name, m in layers.MOVES.items()},
    }
